"""Minimum-degree ordering with multiple elimination (MMD, Liu 1985).

A quotient-graph implementation: eliminated vertices become *elements*; each
remaining *supervariable* tracks its adjacent supervariables and its
adjacent elements. Indistinguishable supervariables (identical adjacency)
are merged, and — following Liu's multiple-elimination refinement — all
minimum-degree vertices of an independent set are eliminated before any
degree is recomputed.

The quotient graph has two representations. They take the same decisions
in the same order, so they return the same permutation bit for bit:

* a Python set of ints per vertex, for sparse graphs (meshes and
  structural problems, where an adjacency list is far shorter than n bits);
* an n-bit mask (one Python ``int``) per vertex, per element and for the
  live set, for dense graphs — average degree at least n / 64, where an
  adjacency list costs at least as many 64-bit words as the mask.
  Absorption, pruning and merging are ``|`` and ``& ~`` over whole words,
  and a round's degrees are one weighted popcount of its reach masks.

The graph picks the representation (``_DENSE_FILL``); no caller does.

This is the ordering the paper uses for the irregular (Harwell-Boeing/
application) benchmark matrices.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy import sparse

from repro.graph.adjacency import AdjacencyGraph
from repro.util.arrays import INDEX_DTYPE

# Entries of reach sets held at once during an exact degree update (a few
# tens of MB); bigger rounds are updated in runs of rows.
_REACH_BUDGET = 1 << 22

# The bitset quotient graph runs when the graph stores at least this share
# of the n * n adjacency (average degree >= n / 64): then its n-bit masks
# take no more memory than the adjacency lists they replace.
_DENSE_FILL = 1 / 64


def minimum_degree(graph: AdjacencyGraph) -> np.ndarray:
    """Return the MMD permutation: ``perm[k]`` = original vertex placed k-th.

    Every degree is the exact external degree of its supervariable.
    """
    n = graph.n
    if n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    if graph.indices.shape[0] >= _DENSE_FILL * n * n:
        order = _bitset_minimum_degree(graph)
    else:
        order = _set_minimum_degree(graph)
    perm = np.asarray(order, dtype=INDEX_DTYPE)
    assert perm.shape[0] == n
    return perm


def _set_minimum_degree(graph: AdjacencyGraph) -> list[int]:
    """The elimination order over a quotient graph of Python sets."""
    n = graph.n
    # Quotient graph state. adj_vars[v]/adj_elts[v] are sets of plain ints,
    # meaningful only for live supervariable representatives. An element's
    # boundary is an index array frozen when the element forms: a
    # supervariable merged away later stays listed in it, with weight 0 and
    # ``alive`` False, so it counts for nothing in a degree and is dropped
    # when the element is absorbed.
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    adj_vars: list[set[int]] = [
        set(indices[indptr[v] : indptr[v + 1]]) for v in range(n)
    ]
    adj_elts: list[set[int]] = [set() for _ in range(n)]
    elt_vars: dict[int, np.ndarray] = {}  # element id -> boundary supervariables
    weight = np.ones(n, dtype=INDEX_DTYPE)  # columns merged into supervariable
    members: list[list[int]] = [[v] for v in range(n)]  # merged original vertices
    alive = np.ones(n, dtype=bool)
    degree = np.fromiter(map(len, adj_vars), dtype=INDEX_DTYPE, count=n)

    def gather(sets: list[set[int]], rows: list[int]):
        """The chosen rows of a set-valued adjacency as CSR (indptr, indices)."""
        ptr = np.zeros(len(rows) + 1, dtype=INDEX_DTYPE)
        np.cumsum([len(sets[u]) for u in rows], out=ptr[1:])
        flat = chain.from_iterable(map(sets.__getitem__, rows))
        return ptr, np.fromiter(flat, dtype=INDEX_DTYPE, count=int(ptr[-1]))

    def external_degrees(rows: list[int]) -> np.ndarray:
        """External degree (sum of supervariable weights) of each of ``rows``,
        every one of which is on the boundary of at least one element."""
        k = len(rows)
        var_ptr, var_idx = gather(adj_vars, rows)
        elt_ptr, elt_idx = gather(adj_elts, rows)
        elts, elt_col = np.unique(elt_idx, return_inverse=True)
        # left = [incidence of rows on their elements | I]; right stacks the
        # element boundaries on the rows' own variable adjacency, so
        # left @ right lists, with multiplicity, everything a row reaches.
        left_ptr = elt_ptr + np.arange(k + 1, dtype=INDEX_DTYPE)
        left_idx = np.empty(int(left_ptr[-1]), dtype=INDEX_DTYPE)
        own = np.zeros(left_idx.shape[0], dtype=bool)
        own[left_ptr[1:] - 1] = True
        left_idx[own] = elts.shape[0] + np.arange(k, dtype=INDEX_DTYPE)
        left_idx[~own] = elt_col
        bounds = [elt_vars[e] for e in elts.tolist()]
        right_ptr = np.zeros(elts.shape[0] + k + 1, dtype=INDEX_DTYPE)
        right_ptr[1 : elts.shape[0] + 1] = [b.shape[0] for b in bounds]
        right_ptr[elts.shape[0] + 1 :] = np.diff(var_ptr)
        np.cumsum(right_ptr, out=right_ptr)
        right_idx = np.concatenate(bounds + [var_idx])
        left = sparse.csr_matrix(
            (np.ones_like(left_idx), left_idx, left_ptr),
            shape=(k, elts.shape[0] + k),
        )
        right = sparse.csr_matrix(
            (np.ones_like(right_idx), right_idx, right_ptr),
            shape=(elts.shape[0] + k, n),
        )
        # Reach sets a run of rows at a time, so the product in flight holds
        # about _REACH_BUDGET entries at most: a row's reach is no longer
        # than everything it lists, nor than n.
        size = np.minimum(left @ np.diff(right_ptr), n)
        run = np.cumsum(size) // _REACH_BUDGET
        starts = np.flatnonzero(np.diff(run, prepend=-1)).tolist()
        reached = np.empty(k, dtype=INDEX_DTYPE)
        for a, b in zip(starts, starts[1:] + [k]):
            reach = left[a:b] @ right
            reach.data[:] = 1
            reached[a:b] = reach @ weight
        # A row is on the boundary of each of its elements, so it reaches
        # itself exactly once after the union.
        return reached - weight[rows]

    order: list[int] = []
    next_elt = n  # element ids disjoint from vertex ids
    while len(order) < n:
        live = np.flatnonzero(alive)
        dmin = degree[live].min()
        # Candidates at minimum degree; multiple elimination takes an
        # independent set of them (no two adjacent in the quotient graph).
        candidates = live[degree[live] == dmin]
        pivots: list[int] = []
        blocked: set[int] = set()
        for v in candidates.tolist():
            if v in blocked:
                continue
            absorbed = adj_elts[v]
            boundary = adj_vars[v]
            for e in absorbed:
                # Absorbed elements disappear into the new one.
                bound = elt_vars.pop(e)
                boundary.update(bound[alive[bound]].tolist())
            boundary.discard(v)
            # --- eliminate v: absorb its elements into a new element -------
            order.extend(members[v])
            pivots.append(v)
            blocked |= boundary
            e_new = next_elt
            next_elt += 1
            elt_vars[e_new] = np.fromiter(
                boundary, dtype=INDEX_DTYPE, count=len(boundary)
            )
            for u in boundary:
                # v's variable adjacency becomes element adjacency via e_new.
                # Variable-variable edges inside the new element are redundant
                # (covered by e_new); prune them to keep sets small.
                # (``a - b`` walks the small side; ``a -= b`` would walk b.)
                adj_vars[u] = adj_vars[u] - boundary
                adj_vars[u].discard(v)
                adj_elts[u] -= absorbed
                adj_elts[u].add(e_new)
            adj_vars[v] = adj_elts[v] = None
        alive[pivots] = False

        # --- mass degree update for all supervariables adjacent to any newly
        # formed element, with indistinguishable-variable merging ----------
        # Merge indistinguishable supervariables (identical element and
        # variable adjacency). Touched vertices all carry at least one
        # element, so equal adjacency keys imply a shared element, i.e. the
        # two variables are adjacent in the filled graph — the classic
        # supervariable merge condition. Ascending order, and each key as
        # it stands when its vertex is reached, decide who absorbs whom.
        sig: dict[tuple, int] = {}
        kept: list[int] = []
        merged: list[int] = []
        into: list[int] = []
        for u in sorted(blocked):
            key = (frozenset(adj_elts[u]), frozenset(adj_vars[u]))
            w = sig.get(key)
            if w is None or not adj_elts[u]:
                sig[key] = u
                kept.append(u)
                continue
            members[w].extend(members[u])
            merged.append(u)
            into.append(w)
            for x in adj_vars[u]:
                adj_vars[x].discard(u)
                if x != w:
                    adj_vars[x].add(w)
                    adj_vars[w].add(x)
            adj_vars[u] = adj_elts[u] = None
        if merged:
            np.add.at(weight, into, weight[merged])
            weight[merged] = 0
            alive[merged] = False
        if kept:
            degree[kept] = external_degrees(kept)
    return order


def _bitset_minimum_degree(graph: AdjacencyGraph) -> list[int]:
    """The elimination order over a quotient graph of n-bit masks.

    Every decision is the set version's: the same candidates in ascending
    vertex id, the same merges in ascending order with each key as it
    stands when its vertex is reached, the same degrees. Bit ``j`` of
    ``adj_vars[v]`` is supervariable j; bit ``e`` of ``adj_elts[v]`` is the
    element formed when vertex e was eliminated (a vertex id is free once
    it is eliminated, so element ids need no range of their own).
    """
    n = graph.n
    nbytes = (n + 7) // 8

    def unpack(masks: list[int]) -> np.ndarray:
        """The masks as the rows of a ``len(masks) x n`` 0/1 matrix."""
        raw = b"".join([m.to_bytes(nbytes, "little") for m in masks])
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
        return np.unpackbits(rows, axis=1, count=n, bitorder="little")

    def bits(mask: int) -> list[int]:
        """The set bits of ``mask``, ascending."""
        if mask.bit_count() > 8:
            raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
            return np.unpackbits(raw, bitorder="little").nonzero()[0].tolist()
        # Few bits (a row's elements, mostly): peel the lowest one off.
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def weighted_counts(masks: list[int], w: np.ndarray) -> np.ndarray:
        """``sum(w[j] for j in mask)`` per mask, a run of about
        ``_REACH_BUDGET`` unpacked entries at a time."""
        out = np.empty(len(masks), dtype=INDEX_DTYPE)
        step = max(1, _REACH_BUDGET // n)
        for a in range(0, len(masks), step):
            out[a : a + step] = unpack(masks[a : a + step]) @ w
        return out

    # Quotient graph state: adj_vars / adj_elts are meaningful for live
    # supervariable representatives only. An element's boundary is frozen
    # when the element forms; a supervariable merged away later keeps its
    # bit there, with weight 0 and its ``alive`` bit clear.
    dense = np.zeros((n, n), dtype=bool)
    dense[np.repeat(np.arange(n), np.diff(graph.indptr)), graph.indices] = True
    raw = np.packbits(dense, axis=1, bitorder="little").tobytes()
    del dense
    adj_vars: list[int] = [
        int.from_bytes(raw[v * nbytes : (v + 1) * nbytes], "little")
        for v in range(n)
    ]
    adj_elts: list[int] = [0] * n
    elt_vars: dict[int, int] = {}  # element id -> boundary supervariables
    weight = np.ones(n, dtype=INDEX_DTYPE)
    members: list[list[int]] = [[v] for v in range(n)]
    alive = (1 << n) - 1
    # An eliminated or merged vertex never reaches the minimum again.
    gone = np.iinfo(INDEX_DTYPE).max
    degree = np.fromiter(map(int.bit_count, adj_vars), dtype=INDEX_DTYPE, count=n)

    def external_degrees(rows: list[int]) -> np.ndarray:
        """The set version's ``external_degrees``: a weighted popcount of
        each row's reach."""
        reach = []
        for u in rows:
            r = adj_vars[u]
            for e in bits(adj_elts[u]):
                r |= elt_vars[e]
            reach.append(r)
        # A row is on the boundary of each of its elements, so it is in
        # its own reach once.
        return weighted_counts(reach, weight) - weight[rows]

    order: list[int] = []
    while len(order) < n:
        # Candidates at minimum degree; multiple elimination takes an
        # independent set of them (no two adjacent in the quotient graph).
        candidates = np.flatnonzero(degree == degree.min())
        pivots: list[int] = []
        blocked = 0
        for v in candidates.tolist():
            if blocked >> v & 1:
                continue
            absorbed = adj_elts[v]
            boundary = adj_vars[v]
            for e in bits(absorbed):
                # Absorbed elements disappear into the new one.
                boundary |= elt_vars.pop(e)
            boundary &= alive & ~(1 << v)
            # --- eliminate v: absorb its elements into element v ------------
            order.extend(members[v])
            pivots.append(v)
            blocked |= boundary
            elt_vars[v] = boundary
            # Variable-variable edges inside the new element are covered by
            # it: prune them, and trade the absorbed elements for element v.
            outside = ~(boundary | 1 << v)
            for u in bits(boundary):
                adj_vars[u] &= outside
                adj_elts[u] = adj_elts[u] & ~absorbed | 1 << v
            adj_vars[v] = adj_elts[v] = None
        degree[pivots] = gone
        for v in pivots:
            alive &= ~(1 << v)

        # --- mass degree update, with indistinguishable-variable merging
        # (see the set version for why equal keys may merge) --------------
        sig: dict[tuple, int] = {}
        kept: list[int] = []
        merged: list[int] = []
        into: list[int] = []
        for u in bits(blocked):
            key = (adj_elts[u], adj_vars[u])
            w = sig.get(key)
            if w is None or not adj_elts[u]:
                sig[key] = u
                kept.append(u)
                continue
            members[w].extend(members[u])
            merged.append(u)
            into.append(w)
            others, u_bit, w_bit = adj_vars[u], 1 << u, 1 << w
            for x in bits(others):
                adj_vars[x] &= ~u_bit
                if x != w:
                    adj_vars[x] |= w_bit
            adj_vars[w] |= others & ~w_bit
            adj_vars[u] = adj_elts[u] = None
            alive &= ~u_bit
        if merged:
            np.add.at(weight, into, weight[merged])
            weight[merged] = 0
            degree[merged] = gone
        if kept:
            degree[kept] = external_degrees(kept)
    return order
