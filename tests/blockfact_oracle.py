"""The interpreted ``A -> blocks`` scatter and COO ``to_csc`` that
``BlockCholesky`` ran before the numeric plan replaced them — kept, loop
for loop, as the reference the vectorised maps are compared against.

Also the scipy-wrapper forms of the four kernels that now call ``dpotrf`` /
``dtrtrs`` directly, the open-mesh BMOD scatter, and the per-task factor
and substitution loops built on them, as they ran before the kernels were
rebound: the production kernels must reproduce them bit for bit.

And the two references of the panel ops. The per-block one
(:func:`oracle_bmod_factor`, :func:`oracle_run_schedule`) is the factor as
it ran before BDIVs and BMODs were grouped — one dtrsm per block, one
dgemm and one scatter per block — and the panel ops must match it to
rounding only: a dtrsm or dgemm over stacked rows need not round like the
same rows computed alone. The grouped one (:func:`oracle_grouped_factor`)
computes what the panel factors and updates compute for a given block map,
with every index derived from the global row numbers, and the production
executors must match it bit for bit.

The substitution has the same pair: :func:`oracle_block_solve` runs one
update per block, as the sweeps did before they were grouped by panel
(to rounding only), and :func:`oracle_grouped_solve` groups each panel's
updates by owner as the sweeps and the distributed solve do (bit for
bit).

The numeric plan's ``(panel, row)`` look-up as it ran before its table,
one ``searchsorted`` over sorted keys ``panel * n + row``
(:func:`oracle_locate`): the table must return its positions, and miss
where it misses.

Last, the two sequential orders of the task DAG, left-looking and
right-looking (:func:`leftlooking_schedule`, :func:`rightlooking_schedule`),
which :func:`oracle_run_schedule` replays to show that both execute the
same BFAC/BDIV/BMOD operations."""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy import sparse

from repro.blocks import WorkModel
from repro.fanout.tasks import BDIV, BFAC, BMOD
from repro.numeric import BlockCholesky
from repro.numeric.dense_kernels import bmod_kernel, bmod_kernel_into


def oracle_locate(plan, panel, row):
    """Positions of the ``(panel, row)`` pairs in the plan's end-to-end
    ``rows_below`` by a binary search over every panel's rows as keys
    ``K * n + row``; ``None`` when any pair is not there."""
    keys = np.repeat(np.arange(len(plan.slabs)) * plan.n, plan._nbelow)
    keys = keys + plan._rows
    key = panel * plan.n + row
    if not keys.size:
        return None if key.size else key
    pos = np.minimum(np.searchsorted(keys, key), keys.shape[0] - 1)
    return pos if np.array_equal(keys[pos], key) else None


def oracle_blocks(structure, A):
    """``(diag, below)`` exactly as the per-column scatter built them."""
    part = structure.partition
    A = A.tocsc()
    diag, below = [], []
    ptr = part.panel_ptr
    for k in range(part.npanels):
        c0, c1 = int(ptr[k]), int(ptr[k + 1])
        w = c1 - c0
        D = np.zeros((w, w))
        rows = structure.rows_below[k]
        blocks = {}
        splits = structure.row_splits[k]
        brows = structure.block_rows[k]
        for t, bi in enumerate(brows):
            blocks[int(bi)] = np.zeros((int(splits[t + 1] - splits[t]), w))
        for j in range(c0, c1):
            col_rows = A.indices[A.indptr[j] : A.indptr[j + 1]]
            col_vals = A.data[A.indptr[j] : A.indptr[j + 1]]
            sel = col_rows >= c0
            col_rows, col_vals = col_rows[sel], col_vals[sel]
            in_diag = col_rows < c1
            D[col_rows[in_diag] - c0, j - c0] = col_vals[in_diag]
            lower_rows = col_rows[~in_diag]
            lower_vals = col_vals[~in_diag]
            if lower_rows.size:
                pos = np.searchsorted(rows, lower_rows)
                if not np.array_equal(rows[pos], lower_rows):
                    raise ValueError(
                        "matrix entry outside the symbolic structure"
                    )
                for p_, v in zip(pos, lower_vals):
                    t = int(np.searchsorted(splits, p_, side="right")) - 1
                    blocks[int(brows[t])][p_ - splits[t], j - c0] = v
        diag.append(np.tril(D) + np.tril(D, -1).T)
        below.append(blocks)
    return diag, below


def oracle_to_csc(chol) -> sparse.csc_matrix:
    """``L`` assembled from ``chol``'s blocks through three COO lists."""
    part = chol.partition
    st = chol.structure
    n = part.symbolic.n
    rows_l, cols_l, vals_l = [], [], []
    ptr = part.panel_ptr
    for k in range(part.npanels):
        c0, c1 = int(ptr[k]), int(ptr[k + 1])
        tri = np.tril_indices(c1 - c0)
        rows_l.append(tri[0] + c0)
        cols_l.append(tri[1] + c0)
        vals_l.append(chol.diag[k][tri])
        rows = st.rows_below[k]
        if rows.size:
            cols = np.arange(c0, c1)
            rr, cc = np.meshgrid(rows, cols, indexing="ij")
            full = np.concatenate(
                [chol.below[k][int(bi)] for bi in st.block_rows[k]], axis=0
            )
            rows_l.append(rr.ravel())
            cols_l.append(cc.ravel())
            vals_l.append(full.ravel())
    L = sparse.coo_matrix(
        (np.concatenate(vals_l), (np.concatenate(rows_l), np.concatenate(cols_l))),
        shape=(n, n),
    )
    return L.tocsc()


def assert_blocks_equal(chol, diag, below) -> None:
    assert len(chol.diag) == len(diag)
    for k, D in enumerate(diag):
        assert chol.diag[k].shape == D.shape
        assert np.array_equal(chol.diag[k], D), f"diag[{k}]"
        assert list(chol.below[k]) == list(below[k])
        for i, B in below[k].items():
            assert chol.below[k][i].shape == B.shape
            assert chol.below[k][i].flags.c_contiguous
            assert np.array_equal(chol.below[k][i], B), f"below[{k}][{i}]"


# ----------------------------------------------------------------------
# The kernels through scipy's convenience wrappers
# ----------------------------------------------------------------------
def oracle_bfac(D):
    return sla.cholesky(D, lower=True, overwrite_a=True, check_finite=False)


def oracle_bdiv(B, L_KK):
    """``B L_KK^{-T}``; consumes a C-contiguous ``B``."""
    out = sla.solve_triangular(
        np.ascontiguousarray(L_KK), B.T, lower=True, trans="N",
        overwrite_b=True, check_finite=False,
    ).T
    return np.ascontiguousarray(out)


def oracle_fsolve(Lkk, B):
    return np.ascontiguousarray(sla.solve_triangular(
        np.ascontiguousarray(Lkk), np.ascontiguousarray(B), lower=True
    ))


def oracle_bsolve(Lkk, B):
    return np.ascontiguousarray(sla.solve_triangular(
        np.ascontiguousarray(Lkk), np.ascontiguousarray(B),
        lower=True, trans=1,
    ))


def oracle_scatter(dest, rows, cols, U) -> None:
    """``dest[rows x cols] -= U`` through the open mesh."""
    dest[np.asarray(rows)[:, None], np.asarray(cols)[None, :]] -= U


def _contiguous(idx) -> bool:
    return int(idx[-1]) - int(idx[0]) + 1 == idx.shape[0]


def oracle_factor(structure, A):
    """``(diag, below)`` of the factor: the right-looking loop, one task
    at a time in the order ``BlockCholesky.factor`` ran them before its
    look-ups were hoisted, every destination index derived from the
    global row numbers."""
    diag, below = oracle_blocks(structure, A)
    ptr = structure.partition.panel_ptr
    for k in range(structure.npanels):
        diag[k] = oracle_bfac(diag[k])
        brows = [int(i) for i in structure.block_rows[k]]
        for i in brows:
            below[k][i] = oracle_bdiv(below[k][i], diag[k])
        for a, i in enumerate(brows):
            rows_i = structure.block_row_span(k, a)
            for b, j in enumerate(brows[: a + 1]):
                cols = structure.block_row_span(k, b) - int(ptr[j])
                if i == j:
                    dest, ridx = diag[j], rows_i - int(ptr[j])
                else:
                    t = list(structure.block_rows[j]).index(i)
                    dest = below[j][i]
                    ridx = np.searchsorted(
                        structure.block_row_span(j, t), rows_i
                    )
                L_IK, L_JK = below[k][i], below[k][j]
                if _contiguous(ridx) and _contiguous(cols):
                    r0, c0 = int(ridx[0]), int(cols[0])
                    out = dest[r0 : r0 + ridx.shape[0], c0 : c0 + cols.shape[0]]
                    if out.flags.c_contiguous:
                        bmod_kernel_into(L_IK, L_JK, out)
                        continue
                oracle_scatter(dest, ridx, cols, L_IK @ L_JK.T)
    return diag, below


def oracle_block_solve(structure, diag, below, pb):
    """Forward then backward block substitution on a permuted ``n x nrhs``
    right-hand side, one update per block, through the wrapper solves."""
    Y = np.array(pb, dtype=np.float64, order="C", copy=True)
    ptr = structure.partition.panel_ptr
    N = structure.npanels
    for k in range(N):
        c0, c1 = int(ptr[k]), int(ptr[k + 1])
        Yk = oracle_fsolve(diag[k], Y[c0:c1])
        Y[c0:c1] = Yk
        for t, i in enumerate(structure.block_rows[k]):
            rows = structure.block_row_span(k, t)
            Y[rows] -= np.ascontiguousarray(below[k][int(i)]) @ Yk
    for k in range(N - 1, -1, -1):
        c0, c1 = int(ptr[k]), int(ptr[k + 1])
        B = np.ascontiguousarray(Y[c0:c1])
        for t, i in enumerate(structure.block_rows[k]):
            rows = structure.block_row_span(k, t)
            B -= np.ascontiguousarray(below[k][int(i)]).T @ (
                np.ascontiguousarray(Y[rows])
            )
        Y[c0:c1] = oracle_bsolve(diag[k], B)
    return Y


# ----------------------------------------------------------------------
# The two references of the panel ops
# ----------------------------------------------------------------------
def oracle_block_bdiv(chol, i, k) -> None:
    """BDIV(I, K) for one block of ``chol``, as it ran before BDIVs were
    grouped: that block's rows of panel K as a dtrsm of their own."""
    w = chol.diag[k].shape[0]
    lo, hi = chol._plan.spans[k][i]
    chol.pfac(k, slice(lo - w, hi - w), diag=False)


def oracle_bmod(chol, i, j, k) -> None:
    """``L_IJ -= L_IK L_JK^T`` for one block of ``chol``, as
    ``BlockCholesky.bmod`` ran it before updates were grouped: a dgemm
    into the destination when its window is one row-major slice, else the
    product subtracted through the open mesh."""
    plan = chol._plan
    lo, hi = plan.spans[k][i]
    base, cols, cspan = plan.rel_of[k][j]
    L_IK, L_JK = chol.below[k][i], chol.below[k][j]
    dest = chol.diag[j] if i == j else chol.below[j][i]
    rel = plan.rel[base + lo : base + hi]
    r0 = int(rel[0])
    if cspan is not None and int(rel[-1]) - r0 == hi - lo - 1:
        out = dest[r0 : r0 + hi - lo, cspan[0] : cspan[1]]
        if out.flags.c_contiguous:
            chol.flops += bmod_kernel_into(L_IK, L_JK, out)
            return
    U, f = bmod_kernel(L_IK, L_JK)
    chol.flops += f
    dest[rel[:, None], cols] -= U


def oracle_run_schedule(chol, tg, schedule):
    """Replay a completion order (one the simulator recorded, say) on
    ``chol``, one task-graph task at a time; returns ``chol``."""
    if len(schedule) != tg.ntasks:
        raise ValueError("schedule does not cover every task")
    for tid in map(int, schedule):
        b = int(tg.task_block[tid])
        I, J = int(tg.block_I[b]), int(tg.block_J[b])
        if tg.task_kind[tid] == BFAC:
            chol.bfac(J)
        elif tg.task_kind[tid] == BDIV:
            oracle_block_bdiv(chol, I, J)
        else:
            oracle_bmod(chol, I, J, int(tg.block_J[tg.task_src1[tid]]))
    return chol


def rightlooking_schedule(tg) -> np.ndarray:
    """Task order of the right-looking (fan-out) sequential factorization.

    For each source panel K ascending: BFAC(K), the BDIVs of its column,
    then every BMOD sourced from column K.
    """
    kinds = tg.task_kind
    src_panel = np.where(
        kinds == BMOD,
        tg.block_J[np.maximum(tg.task_src1, 0)],
        tg.block_J[tg.task_block],
    )
    kind_rank = np.choose(kinds, [0, 1, 2])  # BFAC, BDIV, BMOD
    dest_key = tg.block_I[tg.task_block]
    order = np.lexsort((dest_key, kind_rank, src_panel))
    return order.astype(np.int64)


def leftlooking_schedule(tg) -> np.ndarray:
    """Task order of the left-looking (fan-in) sequential factorization.

    For each destination panel J ascending: all BMODs into column J first,
    then BFAC(J), then the BDIVs of column J.
    """
    kinds = tg.task_kind
    dest_panel = tg.block_J[tg.task_block]
    # BMOD before BFAC before BDIV within a destination column.
    kind_rank = np.choose(kinds, [1, 2, 0])
    dest_row = tg.block_I[tg.task_block]
    order = np.lexsort((dest_row, kind_rank, dest_panel))
    return order.astype(np.int64)


def oracle_bmod_factor(structure, A):
    """The right-looking factor one BDIV and one BMOD at a time, in the
    order ``BlockCholesky.factor`` ran them before they were grouped."""
    chol = BlockCholesky(structure, A)
    for k, span in enumerate(chol._plan.spans):
        chol.bfac(k)
        for i in span:
            oracle_block_bdiv(chol, i, k)
        brows = list(span)
        for t, j in enumerate(brows):
            for i in brows[t:]:
                oracle_bmod(chol, i, j, k)
    return chol


def oracle_grouped_factor(structure, A, owners):
    """``(diag, below)`` of the factor whose BDIVs of panel K, and whose
    updates from panel K into panel J, are grouped by the owner of their
    destination block (``owners`` per block of the structure's work model,
    as ``block_owners`` gives them): per BDIV group, one solve of its
    stacked rows of K against ``L_KK``; per update group, one product of
    its stacked rows of K, subtracted through the open mesh — or
    accumulated by the dgemm itself where the group's destination rows and
    columns are one row-major window of J's panel. Each panel is one
    array, diagonal block on top, the blocks below it in order; BFAC /
    BDIV go through the scipy wrappers, and every destination index comes
    from the global rows."""
    wm = WorkModel(structure)
    block_of = {
        (int(i), int(j)): b
        for b, (i, j) in enumerate(zip(wm.dest_I, wm.dest_J))
    }
    diag, below = oracle_blocks(structure, A)
    part = structure.partition
    ptr, widths = part.panel_ptr, part.widths
    N = structure.npanels
    brows = [[int(i) for i in structure.block_rows[k]] for k in range(N)]
    panels = [
        np.concatenate([diag[k], *(below[k][i] for i in brows[k])])
        for k in range(N)
    ]

    def slab_rows(j, i, rows):
        """Rows of panel ``j`` holding global rows ``rows`` of block ``i``."""
        if i == j:
            return rows - int(ptr[j])
        pos = np.searchsorted(structure.rows_below[j], rows)
        assert np.array_equal(structure.rows_below[j][pos], rows)
        return int(widths[j]) + pos

    for k in range(N):
        w, panel = int(widths[k]), panels[k]
        splits = w + structure.row_splits[k]
        panel[:w] = oracle_bfac(panel[:w])
        shares: dict = {}
        for t, i in enumerate(brows[k]):
            shares.setdefault(int(owners[block_of[i, k]]), []).append(t)
        for members in shares.values():
            rows = np.concatenate(
                [np.arange(splits[t], splits[t + 1]) for t in members]
            )
            panel[rows] = oracle_bdiv(panel[rows], panel[:w])
        spans = [
            structure.block_row_span(k, t) for t in range(len(brows[k]))
        ]
        for b, j in enumerate(brows[k]):
            cols = spans[b] - int(ptr[j])
            L_JK = panel[splits[b] : splits[b + 1]]
            groups: dict = {}
            for a in range(b, len(brows[k])):
                owner = int(owners[block_of[brows[k][a], j]])
                groups.setdefault(owner, []).append(a)
            for members in groups.values():
                src = np.concatenate(
                    [np.arange(splits[a], splits[a + 1]) for a in members]
                )
                dst = np.concatenate([
                    slab_rows(j, brows[k][a], spans[a]) for a in members
                ])
                # numpy's matmul calls syrk for ``X @ X.T``: the stacked
                # operand is a view when its rows are contiguous, as in
                # BlockCholesky.pmod, so a lone diagonal update is one.
                S = (panel[src[0] : src[-1] + 1] if _contiguous(src)
                     else panel[src])
                d0, c0 = int(dst[0]), int(cols[0])
                out = panels[j][d0 : d0 + dst.shape[0],
                                c0 : c0 + cols.shape[0]]
                if (_contiguous(dst) and _contiguous(cols)
                        and out.flags.c_contiguous):
                    bmod_kernel_into(S, L_JK, out)
                else:
                    oracle_scatter(panels[j], dst, cols, S @ L_JK.T)
    diag = [panels[k][: int(widths[k])] for k in range(N)]
    below = [
        {i: panels[k][lo:hi] for i, lo, hi in zip(
            brows[k], int(widths[k]) + structure.row_splits[k][:-1],
            int(widths[k]) + structure.row_splits[k][1:],
        )}
        for k in range(N)
    ]
    return diag, below


def oracle_grouped_solve(structure, diag, below, owners, pb):
    """Forward then backward block substitution on a permuted ``n x nrhs``
    right-hand side, with the updates of each panel K grouped by the
    owner of their block (``owners`` per block of the structure's work
    model): per group, one product of its stacked rows of K — with ``Y_K``
    forward, subtracted from each block's global rows; transposed, with
    the solution at those rows backward, the groups' products subtracted
    from ``B_K`` in ascending order of their first block. Solves go
    through the scipy wrappers, indices come from the global rows."""
    wm = WorkModel(structure)
    block_of = {
        (int(i), int(j)): b
        for b, (i, j) in enumerate(zip(wm.dest_I, wm.dest_J))
    }
    ptr = structure.partition.panel_ptr
    N = structure.npanels

    def groups(k):
        """``(stacked rows, [global rows per member])`` per owner of
        column k's blocks, in order of their first block."""
        out: dict = {}
        for t, i in enumerate(int(i) for i in structure.block_rows[k]):
            owner = int(owners[block_of[i, k]])
            out.setdefault(owner, []).append(
                (below[k][i], structure.block_row_span(k, t))
            )
        return [
            (np.concatenate([B for B, _ in members]),
             [rows for _, rows in members])
            for members in out.values()
        ]

    Y = np.array(pb, dtype=np.float64, order="C", copy=True)
    for k in range(N):
        c0, c1 = int(ptr[k]), int(ptr[k + 1])
        Yk = oracle_fsolve(diag[k], Y[c0:c1])
        Y[c0:c1] = Yk
        for S, spans in groups(k):
            U, at = S @ Yk, 0
            for rows in spans:
                Y[rows] -= U[at : at + rows.shape[0]]
                at += rows.shape[0]
    for k in range(N - 1, -1, -1):
        c0, c1 = int(ptr[k]), int(ptr[k + 1])
        B = np.ascontiguousarray(Y[c0:c1])
        for S, spans in groups(k):
            B -= S.T @ Y[np.concatenate(spans)]
        Y[c0:c1] = oracle_bsolve(diag[k], B)
    return Y


def oracle_grouped_cholesky(structure, A, owners):
    """A ``BlockCholesky`` holding :func:`oracle_grouped_factor`."""
    chol = BlockCholesky.shell(structure)
    diag, below = oracle_grouped_factor(structure, A, owners)
    for k, D in enumerate(diag):
        chol.install(k, k, D)
        for i, B in below[k].items():
            chol.install(i, k, B)
    return chol
