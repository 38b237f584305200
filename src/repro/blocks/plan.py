"""The numeric plan: everything the numeric phase needs that depends on the
sparsity pattern alone, compiled once per :class:`BlockStructure`.

Layout. Panel K (width ``w``, ``r`` dense rows below the diagonal block) is
one row-major ``(w + r) x w`` *slab* of a single float64 store: slab rows
``0..w-1`` are the diagonal block, slab rows ``w + lo .. w + hi - 1`` the
subdiagonal block whose rows are ``rows_below[K][lo:hi]``. A block is a
view of its slab, so every block starts C-contiguous with the shape it
always had.

From that layout the plan derives, with whole-matrix array operations only:

* the ``A -> store`` scatter map of a CSC pattern (:meth:`scatter_map`),
* per source panel K and destination panel J, the *relative indices* of a
  BMOD: where each row of K at or below block J lands inside the
  destination block of panel J (:attr:`rel`, :attr:`rel_of`) and inside
  panel J's slab flattened (:attr:`slab_flat`) — so that every update
  from K into J is one scatter, a panel update,
* per panel, its columns and the global rows of its stacked subdiagonal
  blocks, all the block substitution reads (:attr:`panel_rows`),
* the CSC pattern of ``L`` and its gather out of the store
  (:meth:`csc_pattern`),
* where each block lies in the store (:meth:`block_spans`) and, for a
  set of blocks, the runs of words they span and the entries of ``A``
  that land there (:meth:`init_map`): a rank's share of the initial
  state when the ranks of the shared-memory transport factor one store
  in place.

The plan is derived state: :class:`BlockStructure` builds it on demand and
leaves it out of its pickled form.
"""

from __future__ import annotations

from itertools import islice

import numpy as np


def _ragged_arange(starts, lengths, dtype=np.intp, step=None) -> np.ndarray:
    """``concatenate([arange(s, s + l * d, d) for s, l, d in zip(starts,
    lengths, step)])`` (every ``d`` 1 when ``step`` is None), built in
    ``dtype``, which every value and ``sum(lengths)`` must fit."""
    heads = np.cumsum(lengths) - lengths
    out = np.arange(int(lengths.sum()), dtype=dtype)
    if step is None:
        out += np.repeat((starts - heads).astype(dtype), lengths)
    else:  # offset in the segment, times its step, plus its start
        out -= np.repeat(heads.astype(dtype), lengths)
        out *= np.repeat(step.astype(dtype), lengths)
        out += np.repeat(starts.astype(dtype), lengths)
    return out


def _index_dtype(bound: int) -> type:
    """int32 when every index below ``bound`` fits, else int64."""
    return np.int32 if bound < 2**31 else np.int64


class NumericPlan:
    """Pattern-only index structure of the block numeric phase.

    Attributes
    ----------
    size:
        Number of float64 words in the packed store.
    slabs:
        Per panel ``(w, start, stop)``: its width and slab bounds in the
        store (Python ints).
    spans[K]:
        ``{I: (lo, hi)}`` — slab rows of subdiagonal block ``(I, K)``,
        in ``block_rows[K]`` order.
    rel:
        One int32 vector holding, for every (K, J) with J in
        ``block_rows[K]``, the destination-block-relative row index of each
        row of panel K at or below block ``(J, K)``. Rows inside panel J
        come first; their entries are also the BMOD's destination columns.
    slab_flat:
        Beside ``rel``, as ``intp``: the row of panel J's slab that row
        ``p`` lands in, times the slab's width. A slab is row-major, so
        ``slab_flat[p] + col`` is the position of that entry in the slab
        flattened, and all the updates from K into J are one 1-D fancy
        index, whichever destination blocks they land in.
    rel_of[K]:
        ``{J: (base, cols, cspan)}`` — ``rel[base + lo : base + hi]`` (and
        ``slab_flat`` there) are the destination rows of the slab rows
        ``lo..hi`` of panel K, for every ``lo`` at or below block
        ``(J, K)``; ``cols`` is the ``1 x c`` view of the destination
        columns and ``cspan`` their ``(c0, c1)`` range when contiguous,
        else ``None``.
    panel_rows[K]:
        ``(c0, c1, rows)`` — the columns of panel K and the global rows of
        its stacked subdiagonal blocks (``rows_below[K]``).
    """

    def __init__(self, structure):
        part = structure.partition
        self.n = int(part.symbolic.n)
        N = part.npanels
        self._panel_of_col = np.asarray(part.panel_of_col, dtype=np.int64)
        self._ptr = ptr = np.asarray(part.panel_ptr, dtype=np.int64)
        self._widths = widths = np.diff(ptr)
        self._nbelow = nbelow = np.array(
            [rows.shape[0] for rows in structure.rows_below], np.int64)
        self._slab_ptr = slab_ptr = np.concatenate(
            [[0], np.cumsum((widths + nbelow) * widths)]
        )
        self.size = int(slab_ptr[-1])
        self.slabs = list(zip(
            widths.tolist(), slab_ptr[:-1].tolist(), slab_ptr[1:].tolist()
        ))
        self._below_ptr = below_ptr = np.concatenate([[0], np.cumsum(nbelow)])
        # Every panel's rows_below, end to end; per panel the span from
        # its first to its last, and each row's slot in the spans' table.
        self._rows = rows_cat = np.concatenate(
            [np.empty(0, np.int64), *structure.rows_below]
        )
        edge, has = np.concatenate([[0], rows_cat, [-1]]), nbelow > 0
        self._lo = lo = np.where(has, edge[below_ptr[:-1] + 1], 0)
        self._span = span = np.where(has, edge[below_ptr[1:]] + 1 - lo, 0)
        self._tptr = tptr = np.cumsum(span) - span
        owner = np.repeat(np.arange(N), nbelow)
        self._slot = tptr[owner] + rows_cat - lo[owner]
        self.spans = [
            dict(zip(brows.tolist(), zip(
                (w + splits[:-1]).tolist(), (w + splits[1:]).tolist()
            )))
            for brows, splits, w in zip(
                structure.block_rows, structure.row_splits, widths.tolist()
            )
        ]
        self.panel_rows = list(zip(
            ptr[:-1].tolist(), ptr[1:].tolist(), structure.rows_below
        ))
        self._compile_bmod(structure)
        self._scatter = self._csc = None

    def _locate(self, panel: np.ndarray, row: np.ndarray) -> np.ndarray | None:
        """Positions of the ``(panel, row)`` pairs in the end-to-end
        ``rows_below``; ``None`` when any pair is not in the structure.
        One look-up each, in a table built for the call: at ``_tptr[K] +
        row - _lo[K]``, the position of ``row`` among panel K's, or -1."""
        at = row - self._lo[panel]
        if not ((at >= 0) & (at < self._span[panel])).all():
            return None
        table = np.full(int(self._span.sum()), -1,
                        _index_dtype(self._rows.shape[0] + 1))
        table[self._slot] = np.arange(self._rows.shape[0])
        pos = table[self._tptr[panel] + at]
        return None if (pos < 0).any() else pos

    # ------------------------------------------------------------------
    def _compile_bmod(self, structure) -> None:
        ptr, below_ptr, rows_cat = self._ptr, self._below_ptr, self._rows
        N = len(self.slabs)
        nblk = np.array([b.shape[0] for b in structure.block_rows], np.int64)
        empty = np.empty(0, np.int64)
        # One entry per block (I, K): its first row in rows_below[K], its
        # row count, and — per row of rows_cat — its block's first row.
        blk_lo = np.concatenate(
            [empty, *(s[:-1] for s in structure.row_splits)]
        )
        blk_cnt = np.concatenate([empty, *structure.block_counts])
        row_blk_lo = np.repeat(blk_lo, blk_cnt)
        # One (K, J) pair per block: rows_below[K] from block (J, K) down.
        pair_K = np.repeat(np.arange(N), nblk)
        pair_J = np.concatenate([empty, *structure.block_rows])
        # Block (I, K), in (K, I) order: its key and its first store word.
        self._sub_keys = pair_K * N + pair_J
        self._sub_start = (
            self._slab_ptr[pair_K]
            + (self._widths[pair_K] + blk_lo) * self._widths[pair_K]
        )
        self._sub_size = blk_cnt * self._widths[pair_K]
        pair_len = self._nbelow[pair_K] - blk_lo
        pair_off = np.cumsum(pair_len) - pair_len
        rows = rows_cat[_ragged_arange(below_ptr[pair_K] + blk_lo, pair_len)]
        J = np.repeat(pair_J, pair_len)
        rel = rows - ptr[J]  # rows inside panel J: diagonal-block relative
        slab_row = rel.copy()
        below = np.flatnonzero(rows >= ptr[J + 1])
        pos = self._locate(J[below], rows[below])
        if pos is None:
            raise RuntimeError("BMOD rows missing from destination block")
        within = pos - below_ptr[J[below]]  # position in rows_below[J]
        rel[below] = within - row_blk_lo[pos]
        slab_row[below] = self._widths[J[below]] + within
        self.slab_flat = (slab_row * self._widths[J]).astype(np.intp)
        self.rel = rel = rel.astype(np.int32)
        first = rel[pair_off]
        contiguous = rel[pair_off + blk_cnt - 1] - first == blk_cnt - 1
        bases = pair_off - self._widths[pair_K] - blk_lo
        entries = (
            (j, (base, rel[None, off : off + cnt],
                 (c0, c0 + cnt) if span else None))
            for j, base, off, cnt, c0, span in zip(
                pair_J.tolist(), bases.tolist(), pair_off.tolist(),
                blk_cnt.tolist(), first.tolist(), contiguous.tolist(),
            )
        )
        self.rel_of = [dict(islice(entries, k)) for k in nblk.tolist()]

    # ------------------------------------------------------------------
    def scatter_map(
        self, indptr: np.ndarray, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dest)``: adding ``data[src]`` at ``dest`` scatters the
        lower triangle of a CSC matrix of this pattern into a zeroed store
        (diagonal blocks symmetrised; the indices need not be sorted, and
        duplicate entries share a ``dest``). Cached for the last pattern
        seen, compared by content. Raises ``ValueError`` when an entry
        falls outside the symbolic structure."""
        cached = self._scatter
        if (cached is not None and np.array_equal(cached[0], indptr)
                and np.array_equal(cached[1], indices)):
            return cached[2], cached[3]
        n, ptr = self.n, self._ptr
        cols = np.repeat(np.arange(n), np.diff(indptr))
        src = np.flatnonzero(indices >= cols)
        r = indices[src].astype(np.int64)
        c = cols[src]
        K = self._panel_of_col[c]
        w = self._widths[K]
        local_col = c - ptr[K]
        dest = self._slab_ptr[K] + (r - ptr[K]) * w + local_col
        below = np.flatnonzero(r >= ptr[K + 1])
        Kb = K[below]
        pos = self._locate(Kb, r[below])
        if pos is None:
            raise ValueError("matrix entry outside the symbolic structure")
        dest[below] = (
            self._slab_ptr[Kb]
            + (w[below] + pos - self._below_ptr[Kb]) * w[below]
            + local_col[below]
        )
        # Strictly-lower entries of a diagonal block land in its upper
        # triangle too: dpotrf wants full symmetric storage.
        mirror = np.flatnonzero((r > c) & (r < ptr[K + 1]))
        Km = K[mirror]
        src = np.concatenate([src, src[mirror]])
        dest = np.concatenate([
            dest,
            self._slab_ptr[Km]
            + local_col[mirror] * w[mirror] + (r[mirror] - ptr[Km]),
        ])
        src = src.astype(_index_dtype(indices.shape[0] + 1))
        dest = dest.astype(_index_dtype(self.size + 1))
        self._scatter = (indptr.copy(), indices.copy(), src, dest)
        return src, dest

    # ------------------------------------------------------------------
    def csc_pattern(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, gather)``: the CSC pattern of ``L`` (every
        structural entry, sorted rows) and, per stored entry, its position
        in the slab layout. Built on first use."""
        if self._csc is None:
            K = self._panel_of_col
            w = self._widths[K]
            local_col = np.arange(self.n) - self._ptr[K]
            length = w - local_col + self._nbelow[K]
            indptr = np.concatenate([[0], np.cumsum(length)])
            # The index width scipy itself picks for this shape and nnz.
            itype = _index_dtype(max(self.n, int(indptr[-1])) + 1)
            # Every panel's rows, its own columns then rows_below, end to
            # end: column j's rows are the tail of its panel's from its own
            # row on, and its slab positions step by the panel's width.
            below_ptr = self._below_ptr
            rows = np.insert(
                self._rows.astype(itype),
                np.repeat(below_ptr[:-1], self._widths), np.arange(self.n),
            )
            head = np.arange(self.n) + below_ptr[K]
            first = self._slab_ptr[K] + local_col * (w + 1)
            self._csc = (
                indptr.astype(itype),
                rows[_ragged_arange(head, length, itype)],
                _ragged_arange(first, length, _index_dtype(self.size + 1), w),
            )
        return self._csc

    # ------------------------------------------------------------------
    def block_spans(self, I, J) -> tuple[np.ndarray, np.ndarray]:
        """``(start, size)``: the first store word of block ``(I[b],
        J[b])`` of the structure and the words it spans — a diagonal block
        its whole ``w x w`` square, a subdiagonal one its slab rows."""
        I = np.asarray(I, dtype=np.int64)
        J = np.asarray(J, dtype=np.int64)
        start = self._slab_ptr[J]
        size = self._widths[J] ** 2
        sub = np.flatnonzero(I != J)
        key = J[sub] * len(self.slabs) + I[sub]
        pos = np.searchsorted(self._sub_keys, key)
        start[sub] = self._sub_start[pos]
        size[sub] = self._sub_size[pos]
        return start, size

    def init_map(self, indptr: np.ndarray, indices: np.ndarray, start,
                 size) -> tuple[list, np.ndarray, np.ndarray]:
        """``(runs, src, at)`` for the blocks spanning ``size[b]`` store
        words from ``start[b]`` (:meth:`block_spans`): their words as
        ascending runs ``(lo, hi, off)`` — store words ``lo..hi - 1`` are
        positions ``off..`` of the runs laid end to end — and the entries
        of a CSC matrix of this pattern that land there. Setting the runs
        to ``data[src]`` summed at ``at`` (positions in the runs), zero
        elsewhere, is the :meth:`scatter_map` of ``A`` restricted to those
        blocks, each word's entries summed in the same order."""
        order = np.argsort(start, kind="stable")
        start = np.asarray(start, dtype=np.int64)[order]
        stop = start + np.asarray(size, dtype=np.int64)[order]
        head = np.ones(start.shape[0], dtype=bool)
        head[1:] = start[1:] != stop[:-1]  # a block that starts a run
        lo, hi = start[head], stop[np.roll(head, -1)]
        off = np.cumsum(hi - lo) - (hi - lo)
        dtype = _index_dtype(self.size + 1)
        local = np.full(self.size, -1, dtype=dtype)
        local[_ragged_arange(lo, hi - lo, dtype)] = np.arange(
            int((hi - lo).sum()), dtype=dtype)
        src, dest = self.scatter_map(indptr, indices)
        at = local[dest]
        keep = np.flatnonzero(at >= 0)
        runs = list(zip(lo.tolist(), hi.tolist(), off.tolist()))
        return runs, src[keep], at[keep]
