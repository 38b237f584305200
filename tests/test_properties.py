"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.fanout import TaskGraph, block_owners, run_fanout, simulate_fanout
from repro.machine.params import ZERO_COMM
from repro.mapping import ProcessorGrid, balance_metrics, cyclic_map, heuristic_map
from repro.mapping.balance import overall_balance_from_owners
from repro.mapping.heuristics import greedy_partition, heuristic_vector
from repro.matrices.spd import random_spd_sparse
from repro.numeric import BlockCholesky
from repro.symbolic import symbolic_factor
from repro.util.arrays import invert_permutation, sorted_unique
from tests.blockfact_oracle import oracle_run_schedule
from tests.conftest import validate_task_graph


# ---------------------------------------------------------------------------
# array utilities
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(0, 1000), max_size=80),
       st.lists(st.integers(0, 1000), max_size=80))
def test_union_sorted_equals_set_union(xs, ys):
    a = np.unique(np.asarray(xs, dtype=np.int64))
    b = np.unique(np.asarray(ys, dtype=np.int64))
    out = sorted_unique(np.concatenate([a, b]))
    assert set(out.tolist()) == set(xs) | set(ys)
    assert np.array_equal(out, np.sort(out))


@given(st.permutations(list(range(12))))
def test_invert_permutation_involution(perm):
    p = np.asarray(perm, dtype=np.int64)
    assert np.array_equal(invert_permutation(invert_permutation(p)), p)


# ---------------------------------------------------------------------------
# greedy number partitioning
# ---------------------------------------------------------------------------
@given(
    st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=60),
    st.integers(1, 8),
)
def test_greedy_partition_max_load_bound(work, nbins):
    """Greedy (any order): max load <= mean + max item — the classic bound."""
    w = np.asarray(work)
    assignment = greedy_partition(w, np.argsort(-w), nbins)
    loads = np.bincount(assignment, weights=w, minlength=nbins)
    assert loads.max() <= w.sum() / nbins + w.max() + 1e-6


@given(
    st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=40),
    st.integers(1, 6),
    st.sampled_from(["CY", "DW", "IN", "DN"]),
)
def test_heuristic_vector_total_work_conserved(work, nbins, heur):
    w = np.asarray(work)
    v = heuristic_vector(heur, w, nbins)
    loads = np.bincount(v, weights=w, minlength=nbins)
    assert np.isclose(loads.sum(), w.sum())
    assert v.shape == w.shape


# ---------------------------------------------------------------------------
# symbolic pipeline on random SPD matrices
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=15)
@given(st.integers(5, 45), st.integers(0, 10_000))
def test_symbolic_counts_match_dense(n, seed):
    A = random_spd_sparse(n, density=min(1.0, 4.0 / n), seed=seed)
    sf = symbolic_factor(A, None)
    # Exact structural oracle: dense boolean elimination (the filled graph).
    # Numeric nonzeros alone are not one: a structural entry of L can decay
    # below any fixed threshold (n=41, seed=13 has one at 7e-14).
    pattern = np.tril(sf.A.toarray() != 0)
    for k in range(n):
        below = np.flatnonzero(pattern[k + 1:, k]) + k + 1
        pattern[np.ix_(below, below)] = True
    pattern = np.tril(pattern)
    assert np.array_equal(pattern.sum(axis=0), sf.cc)
    # Every numerically nonzero entry of the dense factor lies in the pattern.
    L = np.linalg.cholesky(sf.A.toarray())
    assert not np.any((np.abs(L) > 1e-13) & ~pattern)


@settings(deadline=None, max_examples=10)
@given(st.integers(8, 40), st.integers(0, 10_000), st.integers(1, 10))
def test_block_factor_reconstructs_random_spd(n, seed, B):
    A = random_spd_sparse(n, density=min(1.0, 5.0 / n), seed=seed)
    sf = symbolic_factor(A, None)
    bs = BlockStructure(BlockPartition(sf, B))
    L = BlockCholesky(bs, sf.A).factor().to_csc()
    assert abs(L @ L.T - sf.A).max() < 1e-8


# ---------------------------------------------------------------------------
# balance invariants
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=10)
@given(st.integers(20, 60), st.integers(0, 1000), st.integers(2, 4))
def test_overall_balance_below_decomposed_balances(n, seed, pr):
    A = random_spd_sparse(n, density=0.15, seed=seed)
    sf = symbolic_factor(A, None)
    wm = WorkModel(BlockStructure(BlockPartition(sf, 4)))
    g = ProcessorGrid(pr, pr)
    bal = balance_metrics(wm, cyclic_map(wm.npanels, g))
    assert bal.overall <= bal.row + 1e-12
    assert bal.overall <= bal.column + 1e-12
    assert bal.overall <= bal.diagonal + 1e-12
    assert 0 < bal.overall <= 1


# ---------------------------------------------------------------------------
# simulator invariants
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=8)
@given(st.integers(20, 50), st.integers(0, 1000), st.integers(1, 3),
       st.integers(1, 4))
def test_simulation_efficiency_bounded(n, seed, pr, pc):
    A = random_spd_sparse(n, density=0.12, seed=seed)
    sf = symbolic_factor(A, None)
    wm = WorkModel(BlockStructure(BlockPartition(sf, 4)))
    tg = TaskGraph(wm)
    validate_task_graph(tg)
    g = ProcessorGrid(pr, pc)
    owners = block_owners(tg, cyclic_map(tg.npanels, g))
    r = simulate_fanout(tg, owners, g.P)
    bound = overall_balance_from_owners(wm, owners, g.P)
    assert r.efficiency <= bound + 1e-9
    assert r.t_parallel >= r.t_sequential / g.P - 1e-12


@settings(deadline=None, max_examples=6)
@given(st.integers(25, 50), st.integers(0, 500))
def test_simulated_schedule_is_numerically_valid(n, seed):
    """Any order the simulator produces must be a legal factorization order."""
    A = random_spd_sparse(n, density=0.12, seed=seed)
    sf = symbolic_factor(A, None)
    bs = BlockStructure(BlockPartition(sf, 5))
    wm = WorkModel(bs)
    tg = TaskGraph(wm)
    g = ProcessorGrid(2, 2)
    owners = block_owners(tg, cyclic_map(tg.npanels, g))
    r = simulate_fanout(tg, owners, 4, machine=ZERO_COMM, record_schedule=True)
    chol = BlockCholesky(bs, sf.A)
    L = oracle_run_schedule(chol, tg, r.schedule).to_csc()
    assert abs(L @ L.T - sf.A).max() < 1e-8
