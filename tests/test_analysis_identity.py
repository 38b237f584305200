"""The array-pass analysis phase returns, bit for bit, what the interpreted
loops in ``tests/analysis_oracle.py`` return: the same permutation, levels,
tree, counts, supernodes, structures, per-block work, task graph, critical
path and bottom-level priorities — plus
deterministic guards against per-nonzero Python and repeated subgraph
extraction coming back (call counts, no wall clock)."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.analysis.critical_path import critical_path
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.fanout import TaskGraph
from repro.fanout.priorities import bottom_level_priorities
from repro.graph import AdjacencyGraph
from repro.graph.separators import level_separator
from repro.graph.traversal import (
    _levels,
    component_ids,
    csgraph_matrix,
    peripheral_levels,
)
from repro.matrices import (
    cube3d_matrix,
    dense_matrix,
    fleet_like_matrix,
    get_problem,
    grid2d_matrix,
)
from repro.machine.params import PARAGON
from repro.ordering import (
    minimum_degree,
    nested_dissection,
    permute_spd,
    resolve_ordering,
)
from repro.symbolic import (
    amalgamate_supernodes,
    column_counts,
    detect_supernodes,
    elimination_tree,
    etree_postorder,
    supernode_parents,
    symbolic_factor,
    tree_depths,
)
from repro.symbolic.colcounts import row_counts
from repro.symbolic.etree import relabel_tree, subtree_sizes
from repro.symbolic.structure import supernode_structures

from tests import analysis_oracle as oracle
from tests.conftest import PARTITIONS

MMD_MODULE = sys.modules["repro.ordering.minimum_degree"]
# A ``_DENSE_FILL`` that forces each quotient graph: no graph stores more
# than the whole n * n adjacency, and every graph stores at least none.
MMD_PATHS = {"sets": 2.0, "bitsets": 0.0}


def forced_minimum_degree(path, graph):
    """``minimum_degree`` on the named quotient-graph representation."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MMD_MODULE, "_DENSE_FILL", MMD_PATHS[path])
        return minimum_degree(graph)


# ---------------------------------------------------------------- inputs
def pattern_from_edges(n: int, edges) -> sparse.csc_matrix:
    """Diagonally dominant SPD matrix with the given off-diagonal pattern."""
    rows = np.array([e[0] for e in edges], dtype=np.int64)
    cols = np.array([e[1] for e in edges], dtype=np.int64)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    A = sparse.coo_matrix(
        (-np.ones(2 * rows.size), (np.r_[rows, cols], np.r_[cols, rows])),
        shape=(n, n),
    ).tocsc()
    A.data[:] = -1.0  # duplicate edges were summed
    return (A + sparse.diags(np.full(n, float(n)))).tocsc()


def path(n):
    return pattern_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return pattern_from_edges(n, [(n // 2, i) for i in range(n)])


def hub_rows(n):
    """A path plus two rows adjacent to everything (LP hub rows)."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(0, i) for i in range(n)] + [(n - 1, i) for i in range(n)]
    return pattern_from_edges(n, edges)


def disconnected():
    """A grid, a path, two isolated vertices and a clique: forest etree."""
    return sparse.block_diag(
        [
            grid2d_matrix(7).A,
            path(40),
            sparse.identity(2),
            dense_matrix(6).A,
        ]
    ).tocsc()


EDGE_CASES = {
    "n1": sparse.identity(1, format="csc"),
    "diagonal": sparse.identity(9, format="csc"),
    "dense": dense_matrix(40).A,  # too shallow for a level cut (max_level < 2)
    "star": star(45),
    "hub_rows": hub_rows(50),
    "disconnected": disconnected(),
    "path": path(120),  # deep tree
    "arrow": pattern_from_edges(36, [(35, i) for i in range(35)]),
}

# The benchmark's three patterns (bench/workloads.py), smoke and full size.
BENCH_PATTERNS = {
    "grid2d-smoke": lambda: grid2d_matrix(16).A,
    "cube3d-smoke": lambda: cube3d_matrix(6).A,
    "lp_normal-smoke": lambda: fleet_like_matrix(120, seed=1).A,
    "grid2d": lambda: grid2d_matrix(64).A,
    "cube3d": lambda: cube3d_matrix(13).A,
    "lp_normal": lambda: fleet_like_matrix(650, seed=1).A,
}
FLEET = {f"fleet-seed{s}": (lambda s=s: fleet_like_matrix(150, seed=s).A)
         for s in range(5)}


def fixed_inputs():
    for name, A in EDGE_CASES.items():
        yield pytest.param(lambda A=A: A, id=name)
    for name, make in {**BENCH_PATTERNS, **FLEET}.items():
        yield pytest.param(make, id=name)


@st.composite
def symmetric_patterns(draw):
    n = draw(st.integers(1, 48))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=4 * n,
        )
    )
    return pattern_from_edges(n, edges)


# ---------------------------------------------------------------- checks
def same_arrays(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.array_equal(a, b)


def check_ordering(A):
    """Both minimum-degree paths, and the traversal and separator cores
    nested dissection calls on each piece, against the oracle on the whole
    graph; nested dissection itself, whose pieces the oracle walks through
    masks, at two leaf sizes."""
    graph = AdjacencyGraph.from_sparse(A)
    expected = oracle.oracle_minimum_degree(graph)
    for path in MMD_PATHS:
        assert np.array_equal(forced_minimum_degree(path, graph), expected), path
    n = graph.n
    csr = csgraph_matrix(graph)
    for root in {0, n // 2, n - 1}:
        assert np.array_equal(
            _levels(csr, root), oracle.oracle_bfs_levels(graph, root)
        )
        node, levels = peripheral_levels(csr, graph.degrees, root)
        onode, olevels = oracle.oracle_pseudo_peripheral_node(graph, root)
        assert node == onode and np.array_equal(levels, olevels)
    components = oracle.oracle_connected_components(graph)
    same_arrays(component_ids(csr), components)
    for comp in components:
        sub, _ = graph.subgraph(comp)
        *parts, _ = level_separator(csgraph_matrix(sub), graph.degrees[comp])
        same_arrays(
            [comp[part] for part in parts],
            oracle.oracle_vertex_separator_from_levels(graph, comp),
        )
    for leaf_size in (32, 4):
        assert np.array_equal(
            nested_dissection(graph, leaf_size=leaf_size),
            oracle.oracle_nested_dissection(graph, leaf_size=leaf_size),
        )


def check_symbolic(A, perm):
    A1 = A.tocsc() if perm is None else permute_spd(A, perm)
    parent = elimination_tree(A1)
    assert np.array_equal(parent, oracle.oracle_elimination_tree(A1))
    post = etree_postorder(parent)
    assert np.array_equal(post, oracle.oracle_etree_postorder(parent))
    # Natural labels: the tree is topological but not postordered.
    assert np.array_equal(
        column_counts(A1, parent), oracle.oracle_column_counts(A1, parent)
    )
    assert np.array_equal(
        row_counts(A1, parent), oracle.oracle_row_counts(A1, parent)
    )
    assert np.array_equal(tree_depths(parent), oracle.oracle_tree_depths(parent))
    # Relabelling through the postorder is the etree of the re-permuted matrix.
    A2 = permute_spd(A1, post)
    parent2 = relabel_tree(parent, post)
    assert np.array_equal(parent2, oracle.oracle_elimination_tree(A2))
    cc = column_counts(A2, parent2)
    assert np.array_equal(cc, oracle.oracle_column_counts(A2, parent2))
    assert np.array_equal(
        row_counts(A2, parent2), oracle.oracle_row_counts(A2, parent2)
    )
    assert np.array_equal(
        tree_depths(parent2), oracle.oracle_tree_depths(parent2)
    )
    assert np.array_equal(
        subtree_sizes(parent2), oracle.oracle_subtree_sizes(parent2)
    )
    snode_ptr = detect_supernodes(parent2, cc)
    sparent = supernode_parents(snode_ptr, parent2)
    assert np.array_equal(
        sparent, oracle.oracle_supernode_parents(snode_ptr, parent2)
    )
    structs = supernode_structures(A2, snode_ptr, sparent)
    ostructs = oracle.oracle_supernode_structures(A2, snode_ptr, sparent)
    same_arrays(structs, ostructs)
    ptr, rows = amalgamate_supernodes(snode_ptr, structs, sparent)
    optr, orows = oracle.oracle_amalgamate_supernodes(snode_ptr, ostructs, sparent)
    assert np.array_equal(ptr, optr)
    same_arrays(rows, orows)

    for amalgamate in (True, False):
        sf = symbolic_factor(A, perm, amalgamate=amalgamate)
        ref = oracle.oracle_symbolic_factor(A, perm, amalgamate=amalgamate)
        assert np.array_equal(sf.ordering.perm, ref["perm"])
        for name in ("parent", "depth", "cc", "snode_ptr"):
            assert np.array_equal(getattr(sf, name), ref[name]), name
        same_arrays(sf.snode_rows, ref["snode_rows"])
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sf.A, name), getattr(ref["A"], name))


# ---------------------------------------------------------------- identity
@pytest.mark.parametrize("make", fixed_inputs())
def test_ordering_matches_oracle(make):
    check_ordering(make())


@pytest.mark.parametrize("make", fixed_inputs())
def test_symbolic_matches_oracle(make):
    A = make()
    check_symbolic(A, None)
    check_symbolic(A, resolve_ordering(A, "auto"))


def test_degree_update_in_runs_matches_oracle(monkeypatch):
    """A round whose reach sets exceed the memory budget is updated in runs
    of rows, on either representation; the degrees, hence the permutation,
    do not depend on the cut."""
    graph = AdjacencyGraph.from_sparse(FLEET["fleet-seed0"]())
    expected = oracle.oracle_minimum_degree(graph)
    for budget in (1, 97, 5_000):
        monkeypatch.setattr(MMD_MODULE, "_REACH_BUDGET", budget)
        for path in MMD_PATHS:
            assert np.array_equal(
                forced_minimum_degree(path, graph), expected
            ), (path, budget)


REPRESENTATION = {
    **{name: "bitsets" for name in ("lp_normal", "lp_normal-smoke", *FLEET)},
    **{name: "bitsets" for name in ("dense", "star", "hub_rows", "arrow")},
    **{name: "sets" for name in ("grid2d", "cube3d", "diagonal")},
    # A bcsstk_like_matrix: average degree 24 < n / 64 = 56.
    "BCSSTK31-medium": "sets",
}


@pytest.mark.parametrize("name", REPRESENTATION)
def test_dense_rule_picks_the_representation(monkeypatch, name):
    """Bitsets exactly when the graph stores >= 1/64 of its n * n
    adjacency (average degree >= n / 64); sets otherwise."""
    inputs = {
        **BENCH_PATTERNS,
        **FLEET,
        **{key: (lambda A=A: A) for key, A in EDGE_CASES.items()},
        "BCSSTK31-medium": lambda: get_problem("BCSSTK31", "medium").A,
    }
    ran = []
    for routine, label in (
        ("_set_minimum_degree", "sets"),
        ("_bitset_minimum_degree", "bitsets"),
    ):
        monkeypatch.setattr(
            MMD_MODULE,
            routine,
            lambda graph, *_, label=label: ran.append(label) or range(graph.n),
        )
    minimum_degree(AdjacencyGraph.from_sparse(inputs[name]()))
    assert ran == [REPRESENTATION[name]]


def test_symbolic_matches_oracle_past_int32_keys():
    """n > 46 340: ``row * n`` no longer fits scipy's int32 indices, so a
    sort key formed without widening wraps (paper-scale registry problems
    — GRID300, CUBE40, COPTER2 — are all past this)."""
    n = 50_000
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, i + 2) for i in range(n - 2)]
    edges += [(n - 1, i) for i in range(0, n, 7)]
    A = pattern_from_edges(n, edges)
    assert A.indices.dtype == np.int32
    check_symbolic(A, None)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(symmetric_patterns())
def test_random_patterns_match_oracle(A):
    check_ordering(A)
    check_symbolic(A, None)
    check_symbolic(A, resolve_ordering(A, "mmd"))


def test_facade_ordering_is_the_oracle_ordering():
    """``"auto"`` picks the same routine and returns the oracle's permutation
    on the benchmark's patterns."""
    for name, reference in (
        ("grid2d-smoke", oracle.oracle_nested_dissection),
        ("cube3d-smoke", oracle.oracle_nested_dissection),
        ("lp_normal", oracle.oracle_minimum_degree),
    ):
        A = BENCH_PATTERNS[name]()
        graph = AdjacencyGraph.from_sparse(A)
        assert np.array_equal(resolve_ordering(A, "auto"), reference(graph))


WORK_MODEL_ARRAYS = (
    "dest_I", "dest_J", "flops", "nops", "nmod", "work", "workI", "workJ",
)


@pytest.mark.parametrize("rule", ["uniform", "supernodal"])
@pytest.mark.parametrize("make", fixed_inputs())
def test_work_model_matches_oracle(make, rule):
    A = make()
    sf = symbolic_factor(A, resolve_ordering(A, "auto"))
    for block_size in (8, 48):
        structure = BlockStructure(PARTITIONS[rule](sf, block_size))
        if rule == "supernodal" and block_size == 8 and sf.n >= 100:
            # Widths that really vary wherever the input is big enough.
            assert np.unique(structure.partition.widths).size >= 3
        for op_fixed_cost in (1000, 0):
            wm = WorkModel(structure, op_fixed_cost=op_fixed_cost)
            ref = oracle.oracle_work_model(structure, op_fixed_cost=op_fixed_cost)
            for name in WORK_MODEL_ARRAYS:
                got = getattr(wm, name)
                assert got.dtype == ref[name].dtype, name
                assert np.array_equal(got, ref[name]), name
            for name in ("total_work", "total_flops", "total_ops"):
                assert type(getattr(wm, name)) is type(ref[name]), name
                assert getattr(wm, name) == ref[name], name


TASK_GRAPH_ARRAYS = (
    "task_kind", "task_block", "task_flops", "task_src1", "task_src2",
    "task_ptr", "subdiag_ptr", "subdiag_blocks", "bfac_task", "bdiv_task",
    "dep_ptr", "dep_tasks", "task_missing_init", "block_words", "diag_block",
    "block_I", "block_J", "nmod",
)


def task_graph_cases(make):
    """``(structure, TaskGraph)`` of every partition rule at B = 8 and 48."""
    A = make()
    sf = symbolic_factor(A, resolve_ordering(A, "auto"))
    for rule in PARTITIONS.values():
        for block_size in (8, 48):
            structure = BlockStructure(rule(sf, block_size))
            yield structure, TaskGraph(WorkModel(structure))


@pytest.mark.parametrize("make", fixed_inputs())
def test_task_graph_matches_oracle(make):
    for structure, tg in task_graph_cases(make):
        ref = oracle.oracle_task_graph(structure)
        for name in TASK_GRAPH_ARRAYS:
            got, want = getattr(tg, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert (tg.ntasks, tg.nblocks) == (ref.ntasks, ref.nblocks)


@pytest.mark.parametrize("make", fixed_inputs())
def test_critical_path_matches_oracle(make):
    for structure, tg in task_graph_cases(make):
        report = critical_path(tg, PARAGON)
        length, t_seq = oracle.oracle_critical_path(structure, PARAGON)
        assert report.length_seconds == length
        assert report.t_sequential == t_seq


@pytest.mark.parametrize("make", fixed_inputs())
def test_bottom_level_matches_oracle(make):
    for structure, tg in task_graph_cases(make):
        ref = oracle.oracle_task_graph(structure)
        assert np.array_equal(
            bottom_level_priorities(tg, PARAGON),
            oracle.oracle_bottom_level_priorities(ref, PARAGON),
        )


def test_nested_dissection_extracts_each_piece_once(monkeypatch):
    """At most two subgraph extractions per separator — its upper side
    once, its lower side (connected, never searched) once — plus one per
    piece of a side that falls apart; extracting each side from the whole
    graph for the separator and again for each component search is three
    per separator."""
    graph = AdjacencyGraph.from_sparse(BENCH_PATTERNS["grid2d"]())
    # What the reference recursion finds: separators, and sides in pieces.
    found = {"separators": 0, "pieces": 0}
    separate = oracle.oracle_vertex_separator_from_levels
    components = oracle.oracle_connected_components

    def counted_separator(g, vertices):
        part_a, sep, part_b = separate(g, vertices)
        found["separators"] += bool(part_a.size and part_b.size)
        return part_a, sep, part_b

    def counted_components(g, mask=None):
        comps = components(g, mask=mask)
        if mask is not None and len(comps) > 1:
            found["pieces"] += len(comps)
        return comps

    monkeypatch.setattr(
        oracle, "oracle_vertex_separator_from_levels", counted_separator
    )
    monkeypatch.setattr(oracle, "oracle_connected_components", counted_components)
    expected = oracle.oracle_nested_dissection(graph)

    extractions = 0
    subgraph = AdjacencyGraph.subgraph

    def counted_subgraph(self, vertices):
        nonlocal extractions
        extractions += 1
        return subgraph(self, vertices)

    monkeypatch.setattr(AdjacencyGraph, "subgraph", counted_subgraph)
    assert np.array_equal(nested_dissection(graph), expected)
    assert found["separators"] > 100
    assert extractions <= 2 * found["separators"] + found["pieces"]


# ---------------------------------------------------------------- call counts
def count_calls(fn) -> int:
    """``call`` + ``c_call`` profile events during one ``fn()`` — what
    ``bench/layers.py`` reports as ``*.py_calls``. Repeats exactly."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


# Each bound is twice the count measured when the array passes landed
# (numpy 2.4, scipy 1.17: 8 173, 1 969 and 68); the loops they replaced
# made 40 291, 4 382 and 1 274 calls on the same inputs, growing with
# nnz(L) (the task graph's with its panels: 38 051 on grid2d).
MMD_CALLS_LP_SMOKE = 2 * 8_180
SYMBOLIC_CALLS_CUBE_SMOKE = 2 * 1_970
TASK_GRAPH_CALLS = 2 * 68


def test_minimum_degree_makes_no_per_nonzero_calls():
    # The smoke pattern is nearly dense, so "auto" sends it to nested
    # dissection; count the routine the full-size workload resolves to.
    graph = AdjacencyGraph.from_sparse(BENCH_PATTERNS["lp_normal-smoke"]())
    minimum_degree(graph)
    assert count_calls(lambda: minimum_degree(graph)) < MMD_CALLS_LP_SMOKE


def test_symbolic_makes_no_per_nonzero_calls():
    A = BENCH_PATTERNS["cube3d-smoke"]()
    perm = resolve_ordering(A, "auto")
    symbolic_factor(A, perm)
    assert (
        count_calls(lambda: symbolic_factor(A, perm)) < SYMBOLIC_CALLS_CUBE_SMOKE
    )


@pytest.mark.parametrize("name", ["cube3d-smoke", "grid2d"])
def test_task_graph_makes_no_per_task_calls(name):
    A = BENCH_PATTERNS[name]()
    sf = symbolic_factor(A, resolve_ordering(A, "auto"))
    wm = WorkModel(BlockStructure(BlockPartition(sf, 48)))
    TaskGraph(wm)
    assert count_calls(lambda: TaskGraph(wm)) < TASK_GRAPH_CALLS
