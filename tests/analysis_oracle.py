"""The interpreted analysis phase — minimum degree, BFS levels, nested
dissection, elimination tree, column counts, supernode structures,
amalgamation, the per-block work model, the task graph, its critical path
and its bottom-level priorities — exactly as the package ran it
before the array-pass rewrites, kept loop for loop as the reference the new
passes are compared against (``test_analysis_identity``).

Nothing here imports an implementation from ``repro``: only the graph
container and the index dtype."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy import sparse

INDEX_DTYPE = np.int64


# ---------------------------------------------------------------- ordering
def oracle_minimum_degree(graph):
    """Quotient-graph MMD over Python sets, one numpy scalar at a time."""
    n = graph.n
    if n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)

    adj_vars = [set(graph.neighbors(v).tolist()) for v in range(n)]
    adj_elts = [set() for _ in range(n)]
    elt_vars = {}
    weight = np.ones(n, dtype=INDEX_DTYPE)
    members = [[v] for v in range(n)]
    alive = np.ones(n, dtype=bool)
    degree = np.array([len(a) for a in adj_vars], dtype=INDEX_DTYPE)

    order = []
    next_elt = n

    def exact_degree(v):
        seen = set(adj_vars[v])
        for e in adj_elts[v]:
            seen.update(elt_vars[e])
        seen.discard(v)
        return int(sum(weight[u] for u in seen))

    def reachable(v):
        s = set(adj_vars[v])
        for e in adj_elts[v]:
            s.update(elt_vars[e])
        s.discard(v)
        return s

    remaining = n
    while remaining > 0:
        live = np.flatnonzero(alive)
        dmin = degree[live].min()
        candidates = live[degree[live] == dmin]
        blocked = set()
        touched = set()
        for v in candidates.tolist():
            if v in blocked or not alive[v]:
                continue
            boundary = reachable(v)
            order.extend(members[v])
            alive[v] = False
            remaining -= 1
            blocked.update(boundary)

            e_new = next_elt
            next_elt += 1
            elt_vars[e_new] = boundary
            absorbed = adj_elts[v]
            for u in boundary:
                adj_vars[u].discard(v)
                adj_elts[u] -= absorbed
                adj_elts[u].add(e_new)
                adj_vars[u] -= boundary
                touched.add(u)
            for e in absorbed:
                elt_vars.pop(e, None)
            adj_vars[v] = set()
            adj_elts[v] = set()

        touched = {u for u in touched if alive[u]}
        sig = {}
        for u in sorted(touched):
            key = (tuple(sorted(adj_elts[u])), tuple(sorted(adj_vars[u])))
            w = sig.get(key)
            if w is None or not adj_elts[u]:
                sig[key] = u
                continue
            weight[w] += weight[u]
            members[w].extend(members[u])
            alive[u] = False
            remaining -= 1
            for e in adj_elts[u]:
                elt_vars[e].discard(u)
            for x in adj_vars[u]:
                adj_vars[x].discard(u)
                if x != w:
                    adj_vars[x].add(w)
                    adj_vars[w].add(x)
            adj_vars[u] = set()
            adj_elts[u] = set()
        touched = {u for u in touched if alive[u]}
        for u in touched:
            degree[u] = exact_degree(u)

    perm = np.asarray(order, dtype=INDEX_DTYPE)
    assert perm.shape[0] == n
    return perm


def oracle_bfs_levels(graph, root, mask=None):
    """Frontier BFS gathering neighbours vertex by vertex, ``np.unique``
    deduplication."""
    levels = np.full(graph.n, -1, dtype=INDEX_DTYPE)
    if mask is not None and not mask[root]:
        raise ValueError("root excluded by mask")
    levels[root] = 0
    frontier = np.array([root], dtype=INDEX_DTYPE)
    depth = 0
    while frontier.size:
        depth += 1
        starts, stops = graph.indptr[frontier], graph.indptr[frontier + 1]
        total = int((stops - starts).sum())
        if total == 0:
            break
        nxt = np.empty(total, dtype=INDEX_DTYPE)
        pos = 0
        for s, t in zip(starts, stops):
            cnt = int(t - s)
            nxt[pos : pos + cnt] = graph.indices[s:t]
            pos += cnt
        nxt = np.unique(nxt)
        nxt = nxt[levels[nxt] == -1]
        if mask is not None:
            nxt = nxt[mask[nxt]]
        levels[nxt] = depth
        frontier = nxt
    return levels


def oracle_connected_components(graph, mask=None):
    if mask is None:
        mask = np.ones(graph.n, dtype=bool)
    remaining = mask.copy()
    comps = []
    while True:
        seeds = np.flatnonzero(remaining)
        if seeds.size == 0:
            break
        levels = oracle_bfs_levels(graph, int(seeds[0]), mask=remaining)
        comp = np.flatnonzero(levels >= 0)
        comps.append(comp)
        remaining[comp] = False
    return comps


def oracle_pseudo_peripheral_node(graph, start, mask=None):
    node = start
    levels = oracle_bfs_levels(graph, node, mask=mask)
    ecc = int(levels.max())
    while True:
        last = np.flatnonzero(levels == ecc)
        if last.size == 0:
            return node, levels
        cand = last[np.argmin(graph.degrees[last])]
        new_levels = oracle_bfs_levels(graph, int(cand), mask=mask)
        new_ecc = int(new_levels.max())
        if new_ecc <= ecc:
            return node, levels
        node, levels, ecc = int(cand), new_levels, new_ecc


def oracle_vertex_separator_from_levels(graph, vertices):
    vertices = np.asarray(vertices)
    if vertices.size <= 2:
        return (
            vertices,
            np.empty(0, dtype=vertices.dtype),
            np.empty(0, dtype=vertices.dtype),
        )

    mask = np.zeros(graph.n, dtype=bool)
    mask[vertices] = True
    _, levels = oracle_pseudo_peripheral_node(graph, int(vertices[0]), mask=mask)
    if (levels[vertices] < 0).any():
        raise ValueError(
            "vertex_separator_from_levels requires a connected vertex set"
        )

    max_level = int(levels.max())
    if max_level < 2:
        local_deg = graph.degrees[vertices]
        sep_v = vertices[np.argmax(local_deg)]
        rest = vertices[vertices != sep_v]
        half = rest.shape[0] // 2
        return rest[:half], np.array([sep_v], dtype=vertices.dtype), rest[half:]

    counts = np.bincount(levels[vertices], minlength=max_level + 1)
    below = np.cumsum(counts)
    total = below[-1]
    imbalance = np.abs(2 * below[:-1] - total)
    cut = 1 + int(np.argmin(imbalance[1:max_level]))

    in_sep_level = levels == cut
    lower = vertices[levels[vertices] < cut]
    upper = vertices[levels[vertices] > cut]

    sep_candidates = vertices[in_sep_level[vertices]]
    keep = np.zeros(sep_candidates.shape[0], dtype=bool)
    lower_mask = np.zeros(graph.n, dtype=bool)
    lower_mask[lower] = True
    for i, v in enumerate(sep_candidates):
        nbrs = graph.neighbors(v)
        if lower_mask[nbrs].any():
            keep[i] = True
    separator = sep_candidates[keep]
    upper = np.concatenate([upper, sep_candidates[~keep]])
    return lower, separator, upper


def oracle_nested_dissection(graph, leaf_size=32):
    """Coordinate-free nested dissection over the oracle traversals."""
    n = graph.n
    perm = np.empty(n, dtype=INDEX_DTYPE)
    stack = [comp for comp in oracle_connected_components(graph)]
    out_ranges = []
    pos = n
    for comp in reversed(stack):
        out_ranges.append((comp, pos))
        pos -= comp.shape[0]

    def pieces(part):
        if part.shape[0] <= 1:
            return [part]
        mask = np.zeros(graph.n, dtype=bool)
        mask[part] = True
        return oracle_connected_components(graph, mask=mask)

    work = list(out_ranges)
    while work:
        vertices, end = work.pop()
        m = vertices.shape[0]
        if m <= leaf_size:
            perm[end - m : end] = np.sort(vertices)
            continue
        part_a, sep, part_b = oracle_vertex_separator_from_levels(graph, vertices)
        if part_a.size == 0 or part_b.size == 0:
            perm[end - m : end] = np.sort(vertices)
            continue
        perm[end - sep.shape[0] : end] = np.sort(sep)
        mid = end - sep.shape[0]
        for part in (part_b, part_a):
            if part.size == 0:
                continue
            for piece in pieces(part):
                work.append((piece, mid))
                mid -= piece.shape[0]
    return perm


# ---------------------------------------------------------------- symbolic
def oracle_permute_spd(A, perm):
    A = A.tocsc()
    return A[perm][:, perm].tocsc()


def oracle_elimination_tree(A):
    """Liu's algorithm with path compression over numpy scalars."""
    A = A.tocsc()
    n = A.shape[0]
    parent = np.full(n, -1, dtype=INDEX_DTYPE)
    ancestor = np.full(n, -1, dtype=INDEX_DTYPE)
    indptr, indices = A.indptr, A.indices
    for j in range(n):
        for p in range(indptr[j], indptr[j + 1]):
            i = indices[p]
            if i >= j:
                continue
            while True:
                anc = ancestor[i]
                if anc == j:
                    break
                ancestor[i] = j
                if anc == -1:
                    parent[i] = j
                    break
                i = anc
    return parent


def oracle_etree_postorder(parent):
    parent = np.asarray(parent)
    n = parent.shape[0]
    head = np.full(n, -1, dtype=INDEX_DTYPE)
    nxt = np.full(n, -1, dtype=INDEX_DTYPE)
    for v in range(n - 1, -1, -1):
        p = parent[v]
        if p != -1:
            nxt[v] = head[p]
            head[p] = v
    post = np.empty(n, dtype=INDEX_DTYPE)
    k = 0
    stack = []
    for root in range(n):
        if parent[root] != -1:
            continue
        stack.append(root)
        while stack:
            v = stack[-1]
            c = head[v]
            if c == -1:
                post[k] = v
                k += 1
                stack.pop()
            else:
                head[v] = nxt[c]
                stack.append(int(c))
    if k != n:
        raise ValueError("parent array is not a forest (cycle detected)")
    return post


def oracle_tree_depths(parent):
    parent = np.asarray(parent)
    n = parent.shape[0]
    depth = np.zeros(n, dtype=INDEX_DTYPE)
    for j in range(n - 1, -1, -1):
        p = parent[j]
        if p != -1:
            if p <= j:
                raise ValueError("tree_depths requires a postordered etree")
            depth[j] = depth[p] + 1
    return depth


def oracle_subtree_sizes(parent):
    parent = np.asarray(parent)
    n = parent.shape[0]
    size = np.ones(n, dtype=INDEX_DTYPE)
    for j in range(n):
        p = parent[j]
        if p != -1:
            if p <= j:
                raise ValueError("subtree_sizes requires a postordered etree")
            size[p] += size[j]
    return size


def oracle_column_counts(A, parent):
    """Row-subtree marking walk: one trip per nonzero of L."""
    A = A.tocsr()
    n = A.shape[0]
    cc = np.ones(n, dtype=INDEX_DTYPE)
    mark = np.full(n, -1, dtype=INDEX_DTYPE)
    indptr, indices = A.indptr, A.indices
    parent = np.asarray(parent)
    for i in range(n):
        mark[i] = i
        for p in range(indptr[i], indptr[i + 1]):
            k = indices[p]
            if k >= i:
                continue
            j = k
            while mark[j] != i:
                mark[j] = i
                cc[j] += 1
                j = parent[j]
                if j == -1:
                    break
    return cc


def oracle_row_counts(A, parent):
    """The same walk accumulating per row."""
    A = A.tocsr()
    n = A.shape[0]
    rc = np.ones(n, dtype=INDEX_DTYPE)
    mark = np.full(n, -1, dtype=INDEX_DTYPE)
    indptr, indices = A.indptr, A.indices
    parent = np.asarray(parent)
    for i in range(n):
        mark[i] = i
        for p in range(indptr[i], indptr[i + 1]):
            k = indices[p]
            if k >= i:
                continue
            j = k
            while mark[j] != i:
                mark[j] = i
                rc[i] += 1
                j = parent[j]
                if j == -1:
                    break
    return rc


def oracle_detect_supernodes(parent, cc):
    parent = np.asarray(parent)
    cc = np.asarray(cc)
    n = parent.shape[0]
    if n == 0:
        return np.zeros(1, dtype=INDEX_DTYPE)
    prev = np.arange(n - 1)
    same = (parent[prev] == prev + 1) & (cc[prev + 1] == cc[prev] - 1)
    starts = np.concatenate([[True], ~same])
    boundaries = np.flatnonzero(starts)
    return np.concatenate([boundaries, [n]]).astype(INDEX_DTYPE)


def oracle_snode_of_column(snode_ptr, n):
    snode_ptr = np.asarray(snode_ptr)
    out = np.zeros(n, dtype=INDEX_DTYPE)
    out[snode_ptr[1:-1]] = 1
    return np.cumsum(out) if n else out


def oracle_supernode_parents(snode_ptr, parent):
    snode_ptr = np.asarray(snode_ptr)
    parent = np.asarray(parent)
    n = parent.shape[0]
    col2s = oracle_snode_of_column(snode_ptr, n)
    nsup = snode_ptr.shape[0] - 1
    sparent = np.full(nsup, -1, dtype=INDEX_DTYPE)
    for s in range(nsup):
        last = snode_ptr[s + 1] - 1
        p = parent[last]
        if p != -1:
            sparent[s] = col2s[p]
    return sparent


def _union_sorted(a, b):
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    merged = np.concatenate([a, b])
    merged.sort(kind="mergesort")
    keep = np.empty(merged.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def oracle_supernode_structures(A, snode_ptr, sparent):
    """Bottom-up union, one ``np.unique`` and one merge per child."""
    nsup = snode_ptr.shape[0] - 1
    indptr, indices = A.indptr, A.indices
    pending = [[] for _ in range(nsup)]
    out = []
    for s in range(nsup):
        a, b = int(snode_ptr[s]), int(snode_ptr[s + 1])
        cols = np.unique(indices[indptr[a] : indptr[b]])
        rows = cols[cols >= b]
        for child_rows in pending[s]:
            rows = _union_sorted(rows, child_rows[child_rows >= b])
        pending[s] = []
        out.append(np.ascontiguousarray(rows, dtype=INDEX_DTYPE))
        p = sparent[s]
        if p != -1:
            pending[int(p)].append(rows)
    return out


def _sn_nnz(width, nbelow):
    return width * (width + 1) // 2 + width * nbelow


def oracle_amalgamate_supernodes(
    snode_ptr, structs, sparent, small_width=8, frac_small=0.30, frac=0.05
):
    """Relaxed amalgamation chasing ``merged_into`` through numpy scalars."""
    snode_ptr = np.asarray(snode_ptr)
    nsup = snode_ptr.shape[0] - 1
    if nsup == 0:
        return snode_ptr.astype(INDEX_DTYPE), []
    start = snode_ptr[:-1].copy()
    end = snode_ptr[1:].copy()
    rows = [np.asarray(r, dtype=INDEX_DTYPE) for r in structs]
    parent_group = sparent.copy()
    merged_into = np.full(nsup, -1, dtype=INDEX_DTYPE)

    def find(s):
        while merged_into[s] != -1:
            s = int(merged_into[s])
        return s

    for s in range(nsup):
        g = find(s)
        if g != s:
            continue
        p = parent_group[g]
        if p == -1:
            continue
        p = find(int(p))
        if start[p] != end[g]:
            continue
        w_c = int(end[g] - start[g])
        w_p = int(end[p] - start[p])
        w = w_c + w_p
        child_tail = rows[g][rows[g] >= end[p]]
        merged_rows = _union_sorted(child_tail, rows[p])
        new_nnz = _sn_nnz(w, merged_rows.shape[0])
        old_nnz = _sn_nnz(w_c, rows[g].shape[0]) + _sn_nnz(w_p, rows[p].shape[0])
        zeros = new_nnz - old_nnz
        limit = frac_small if w_c <= small_width else frac
        if zeros > 0 and zeros > limit * new_nnz:
            continue
        start[p] = start[g]
        rows[p] = merged_rows
        merged_into[g] = p

    keep = np.flatnonzero(merged_into == -1)
    new_ptr = np.concatenate([start[keep], [end[keep[-1]]]]).astype(INDEX_DTYPE)
    new_structs = [rows[int(s)] for s in keep]
    return new_ptr, new_structs


def oracle_symbolic_factor(A, perm=None, amalgamate=True):
    """The whole pipeline as it ran: permute, etree, postorder, permute
    again, etree again, marking-walk counts, structures, amalgamation.
    Returns a dict of the outputs that must not move."""
    A = sparse.csc_matrix(A)
    n = A.shape[0]
    if perm is None:
        perm = np.arange(n, dtype=INDEX_DTYPE)
    perm = np.asarray(perm, dtype=INDEX_DTYPE)
    A1 = oracle_permute_spd(A, perm)
    parent = oracle_elimination_tree(A1)
    post = oracle_etree_postorder(parent)
    if not np.array_equal(post, np.arange(n)):
        perm = perm[post]
        A1 = oracle_permute_spd(A, perm)
        parent = oracle_elimination_tree(A1)
    cc = oracle_column_counts(A1, parent)
    depth = oracle_tree_depths(parent)
    snode_ptr = oracle_detect_supernodes(parent, cc)
    sparent = oracle_supernode_parents(snode_ptr, parent)
    structs = oracle_supernode_structures(A1, snode_ptr, sparent)
    if amalgamate:
        snode_ptr, structs = oracle_amalgamate_supernodes(
            snode_ptr, structs, sparent
        )
    return {
        "A": A1,
        "perm": perm,
        "parent": parent,
        "depth": depth,
        "cc": cc,
        "snode_ptr": snode_ptr,
        "snode_rows": structs,
    }


# ---------------------------------------------------------------- blocks
def oracle_chol_flops(w):
    return w + w * (w - 1) + (w - 1) * w * (2 * w - 1) // 6


def oracle_work_model(structure, op_fixed_cost=1000):
    """The §3.2 work model panel by panel, a dozen numpy calls a panel.
    Returns a dict of the arrays and totals ``WorkModel`` exposes, and its
    ``(I, J) -> index`` lookup as ``"lookup"``."""
    part = structure.partition
    N = part.npanels
    widths = part.widths.astype(np.int64)

    key_chunks = []
    flop_chunks = []
    op_chunks = []
    mod_chunks = []

    for k in range(N):
        w = int(widths[k])
        brows = structure.block_rows[k]
        counts = structure.block_counts[k].astype(np.int64)
        # BFAC(K, K)
        key_chunks.append(np.array([k * N + k], dtype=np.int64))
        flop_chunks.append(np.array([oracle_chol_flops(w)], dtype=np.int64))
        op_chunks.append(np.ones(1, dtype=np.int64))
        mod_chunks.append(np.zeros(1, dtype=np.int64))
        m = brows.shape[0]
        if m == 0:
            continue
        # BDIV(I, K) for each below block
        key_chunks.append(brows * N + k)
        flop_chunks.append(counts * w * w)
        op_chunks.append(np.ones(m, dtype=np.int64))
        mod_chunks.append(np.zeros(m, dtype=np.int64))
        # BMOD(I, J, K): destination (brows[i], brows[j]) for i >= j.
        # Diagonal destinations (i == j) are symmetric rank-w updates
        # (SYRK): half the flops of the general GEMM case.
        ii, jj = np.tril_indices(m)
        key_chunks.append(brows[ii] * N + brows[jj])
        flop_chunks.append(
            np.where(
                ii == jj,
                counts[ii] * (counts[ii] + 1) * w,
                2 * counts[ii] * counts[jj] * w,
            )
        )
        ones = np.ones(ii.shape[0], dtype=np.int64)
        op_chunks.append(ones)
        mod_chunks.append(ones)

    keys = np.concatenate(key_chunks)
    flops = np.concatenate(flop_chunks)
    ops = np.concatenate(op_chunks)
    mods = np.concatenate(mod_chunks)

    ukeys, inv = np.unique(keys, return_inverse=True)
    out = {
        "dest_I": (ukeys // N).astype(INDEX_DTYPE),
        "dest_J": (ukeys % N).astype(INDEX_DTYPE),
        "flops": np.bincount(inv, weights=flops).astype(np.int64),
        "nops": np.bincount(inv, weights=ops).astype(np.int64),
        "nmod": np.bincount(inv, weights=mods).astype(np.int64),
    }
    out["work"] = out["flops"] + op_fixed_cost * out["nops"]
    out["workI"] = np.bincount(out["dest_I"], weights=out["work"], minlength=N)
    out["workJ"] = np.bincount(out["dest_J"], weights=out["work"], minlength=N)
    out["total_work"] = float(out["work"].sum())
    out["total_flops"] = int(out["flops"].sum())
    out["total_ops"] = int(out["nops"].sum())
    out["lookup"] = {int(k): i for i, k in enumerate(ukeys)}
    return out


# ---------------------------------------------------------------- tasks
ORACLE_BFAC, ORACLE_BDIV, ORACLE_BMOD = 0, 1, 2


def oracle_task_graph(structure):
    """The fan-out task graph panel by panel, one ``(I, J)`` dict lookup
    per task. Returns a namespace of the arrays ``TaskGraph`` exposes."""
    BFAC, BDIV, BMOD = ORACLE_BFAC, ORACLE_BDIV, ORACLE_BMOD
    wm = oracle_work_model(structure)
    tg = SimpleNamespace()
    part = structure.partition
    N = part.npanels
    widths = part.widths.astype(np.int64)
    tg.npanels = N
    tg.nblocks = wm["dest_I"].shape[0]
    key_lookup = wm["lookup"]

    kinds = []
    blocks = []
    flops = []
    src1 = []
    src2 = []

    # Per-block message size.
    tg.block_words = np.zeros(tg.nblocks, dtype=np.int64)
    diag_mask = wm["dest_I"] == wm["dest_J"]
    w_of = widths[wm["dest_J"]]
    tg.block_words[diag_mask] = w_of[diag_mask] * (w_of[diag_mask] + 1) // 2

    subdiag_ptr = np.zeros(N + 1, dtype=INDEX_DTYPE)
    subdiag_chunks = []
    task_ptr = np.zeros(N + 1, dtype=INDEX_DTYPE)

    for k in range(N):
        w = int(widths[k])
        brows = structure.block_rows[k]
        counts = structure.block_counts[k].astype(np.int64)
        m = brows.shape[0]
        bid = np.fromiter(
            (key_lookup[int(i) * N + k] for i in brows),
            count=m,
            dtype=np.int64,
        )
        diag_bid = key_lookup[k * N + k]
        tg.block_words[bid] = counts * w

        # BFAC(K, K)
        kinds.append(np.array([BFAC], dtype=np.int8))
        blocks.append(np.array([diag_bid], dtype=np.int64))
        flops.append(np.array([oracle_chol_flops(w)], dtype=np.int64))
        src1.append(np.array([-1], dtype=np.int64))
        src2.append(np.array([-1], dtype=np.int64))

        subdiag_ptr[k + 1] = subdiag_ptr[k] + m
        subdiag_chunks.append(bid)
        task_ptr[k + 1] = task_ptr[k] + 1 + m + m * (m + 1) // 2
        if m == 0:
            continue
        # BDIV(I, K)
        kinds.append(np.full(m, BDIV, dtype=np.int8))
        blocks.append(bid)
        flops.append(counts * w * w)
        src1.append(np.full(m, -1, dtype=np.int64))
        src2.append(np.full(m, -1, dtype=np.int64))
        # BMOD(I, J, K) for i >= j
        ii, jj = np.tril_indices(m)
        dest = np.fromiter(
            (
                key_lookup[int(brows[a]) * N + int(brows[b])]
                for a, b in zip(ii, jj)
            ),
            count=ii.shape[0],
            dtype=np.int64,
        )
        kinds.append(np.full(ii.shape[0], BMOD, dtype=np.int8))
        blocks.append(dest)
        flops.append(
            np.where(
                ii == jj,
                counts[ii] * (counts[ii] + 1) * w,
                2 * counts[ii] * counts[jj] * w,
            )
        )
        s1 = bid[ii]
        s2 = np.where(ii == jj, -1, bid[jj])
        src1.append(s1)
        src2.append(s2)

    tg.task_kind = np.concatenate(kinds)
    tg.task_block = np.concatenate(blocks)
    tg.task_flops = np.concatenate(flops)
    tg.task_src1 = np.concatenate(src1)
    tg.task_src2 = np.concatenate(src2)
    tg.ntasks = tg.task_kind.shape[0]
    tg.task_ptr = task_ptr
    tg.subdiag_ptr = subdiag_ptr
    tg.subdiag_blocks = (
        np.concatenate(subdiag_chunks)
        if subdiag_chunks
        else np.empty(0, dtype=np.int64)
    )

    # Per-block special task ids.
    tg.bfac_task = np.full(tg.nblocks, -1, dtype=np.int64)
    tg.bdiv_task = np.full(tg.nblocks, -1, dtype=np.int64)
    tids = np.arange(tg.ntasks, dtype=np.int64)
    fac = tg.task_kind == BFAC
    tg.bfac_task[tg.task_block[fac]] = tids[fac]
    div = tg.task_kind == BDIV
    tg.bdiv_task[tg.task_block[div]] = tids[div]

    # Source-block -> dependent-BMOD-task CSR.
    mod = tg.task_kind == BMOD
    mod_ids = tids[mod]
    pairs_src = np.concatenate([tg.task_src1[mod], tg.task_src2[mod]])
    pairs_tid = np.concatenate([mod_ids, mod_ids])
    keep = pairs_src >= 0
    pairs_src, pairs_tid = pairs_src[keep], pairs_tid[keep]
    order = np.argsort(pairs_src, kind="stable")
    pairs_src, pairs_tid = pairs_src[order], pairs_tid[order]
    tg.dep_ptr = np.searchsorted(
        pairs_src, np.arange(tg.nblocks + 1)
    ).astype(INDEX_DTYPE)
    tg.dep_tasks = pairs_tid

    tg.task_missing_init = np.zeros(tg.ntasks, dtype=np.int32)
    tg.task_missing_init[mod] = np.where(tg.task_src2[mod] >= 0, 2, 1)

    tg.block_I = wm["dest_I"]
    tg.block_J = wm["dest_J"]
    tg.nmod = wm["nmod"]
    tg.diag_block = np.full(N, -1, dtype=np.int64)
    tg.diag_block[wm["dest_J"][diag_mask]] = np.flatnonzero(diag_mask)
    return tg


def oracle_critical_path(structure, machine):
    """Longest chain through the task DAG panel by panel, each block op's
    flops recomputed and its block found by ``(I, J)`` lookup. Returns
    ``(length_seconds, t_sequential)``."""
    wm = oracle_work_model(structure)
    tg = oracle_task_graph(structure)
    N = tg.npanels
    key = wm["lookup"]
    widths = structure.partition.widths.astype(np.int64)

    avail = np.zeros(tg.nblocks)  # completion time of each block
    mod_ready = np.zeros(tg.nblocks)  # latest BMOD finish per destination

    def dur(flops):
        return (flops + machine.op_fixed_flops) / machine.flop_rate

    for k in range(N):
        w = int(widths[k])
        diag_b = key[k * N + k]
        avail[diag_b] = mod_ready[diag_b] + dur(oracle_chol_flops(w))
        brows = structure.block_rows[k]
        counts = structure.block_counts[k].astype(np.int64)
        m = brows.shape[0]
        if m == 0:
            continue
        bid = np.fromiter(
            (key[int(i) * N + k] for i in brows), count=m, dtype=np.int64
        )
        avail[bid] = (
            np.maximum(mod_ready[bid], avail[diag_b]) + dur(counts * w * w)
        )
        ii, jj = np.tril_indices(m)
        bmod_flops = np.where(
            ii == jj,
            counts[ii] * (counts[ii] + 1) * w,
            2 * counts[ii] * counts[jj] * w,
        )
        finish = np.maximum(avail[bid[ii]], avail[bid[jj]]) + dur(bmod_flops)
        dest = np.fromiter(
            (
                key[int(brows[a]) * N + int(brows[b])]
                for a, b in zip(ii, jj)
            ),
            count=ii.shape[0],
            dtype=np.int64,
        )
        np.maximum.at(mod_ready, dest, finish)

    t_seq = float(np.sum(tg.task_flops + machine.op_fixed_flops) / machine.flop_rate)
    return float(avail.max()) if avail.size else 0.0, t_seq


def oracle_bottom_level_priorities(tg, machine):
    """Negative bottom level by a reverse sweep over panels, the BMODs
    regrouped by source panel and each BDIV levelled in a Python loop.
    ``tg`` is any object with the ``TaskGraph`` arrays."""
    BFAC, BMOD = ORACLE_BFAC, ORACLE_BMOD
    dur = (tg.task_flops + machine.op_fixed_flops) / machine.flop_rate
    level = np.zeros(tg.ntasks)
    N = tg.npanels

    # Group BMOD tasks by source panel (panel of src1).
    mod_ids = np.flatnonzero(tg.task_kind == BMOD)
    mod_src_panel = tg.block_J[tg.task_src1[mod_ids]]
    order = np.argsort(mod_src_panel, kind="stable")
    mod_ids = mod_ids[order]
    mod_src_panel = mod_src_panel[order]
    panel_start = np.searchsorted(mod_src_panel, np.arange(N + 1))

    # Per-block: its factor task (BFAC for diagonal, BDIV for subdiagonal).
    factor_task = np.where(tg.bfac_task >= 0, tg.bfac_task, tg.bdiv_task)
    # Per-panel BFAC task id.
    fac_ids = np.flatnonzero(tg.task_kind == BFAC)
    bfac_of_panel = np.full(N, -1, dtype=np.int64)
    bfac_of_panel[tg.block_J[tg.task_block[fac_ids]]] = fac_ids

    for k in range(N - 1, -1, -1):
        # 1. BMODs sourced from panel k: successor = dest block's factor task
        #    (in panel > k, already leveled).
        mods = mod_ids[panel_start[k] : panel_start[k + 1]]
        if mods.size:
            succ = factor_task[tg.task_block[mods]]
            level[mods] = dur[mods] + level[succ]
        # 2. BDIVs of panel k: successors = BMODs consuming the block.
        sub = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
        best_bdiv = 0.0
        for b in sub:
            deps = tg.dep_tasks[tg.dep_ptr[b] : tg.dep_ptr[b + 1]]
            t = int(tg.bdiv_task[b])
            succ_level = level[deps].max() if deps.size else 0.0
            level[t] = dur[t] + succ_level
            if level[t] > best_bdiv:
                best_bdiv = float(level[t])
        # 3. BFAC of panel k: successors = the panel's BDIVs.
        t = int(bfac_of_panel[k])
        level[t] = dur[t] + best_bdiv
    return -level
