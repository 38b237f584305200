"""Property-based tests over the extended subsystems: HB format, the
multifrontal driver, memory accounting, and priority policies."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.memory import memory_usage
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.fanout import TaskGraph, block_owners, simulate_fanout
from repro.fanout.priorities import task_priorities
from repro.machine.params import PARAGON, ZERO_COMM
from repro.mapping import ProcessorGrid, cyclic_map
from repro.matrices.hb import read_harwell_boeing, write_harwell_boeing
from repro.matrices.spd import random_spd_sparse
from repro.numeric import BlockCholesky
from repro.symbolic import symbolic_factor
from tests.blockfact_oracle import oracle_run_schedule
from tests.multifrontal_oracle import MultifrontalCholesky


@settings(deadline=None, max_examples=10)
@given(st.integers(5, 40), st.integers(0, 10_000))
def test_hb_roundtrip_random_spd(n, seed):
    import tempfile
    from pathlib import Path

    A = random_spd_sparse(n, density=min(1.0, 5.0 / n), seed=seed)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.rsa"
        write_harwell_boeing(path, A)
        B = read_harwell_boeing(path)
    assert abs(A - B).max() < 1e-12


@settings(deadline=None, max_examples=8)
@given(st.integers(10, 45), st.integers(0, 10_000))
def test_multifrontal_equals_block_fanout(n, seed):
    A = random_spd_sparse(n, density=min(1.0, 5.0 / n), seed=seed)
    sf = symbolic_factor(A, None)
    bs = BlockStructure(BlockPartition(sf, 6))
    L_bf = BlockCholesky(bs, sf.A).factor().to_csc()
    L_mf = MultifrontalCholesky(sf).factor().to_csc()
    assert abs(L_bf - L_mf).max() < 1e-9


@settings(deadline=None, max_examples=8)
@given(st.integers(15, 45), st.integers(0, 1000), st.integers(1, 3),
       st.integers(1, 3))
def test_memory_conservation_any_mapping(n, seed, pr, pc):
    """Owned bytes are conserved across mappings; received is bounded by
    the total factor size times the processor count."""
    A = random_spd_sparse(n, density=0.12, seed=seed)
    sf = symbolic_factor(A, None)
    tg = TaskGraph(WorkModel(BlockStructure(BlockPartition(sf, 5))))
    g = ProcessorGrid(pr, pc)
    owners = block_owners(tg, cyclic_map(tg.npanels, g))
    rep = memory_usage(tg, owners, g.P)
    factor_bytes = int(tg.block_words.sum()) * PARAGON.word_bytes
    assert int(rep.owned_bytes.sum()) == factor_bytes
    assert int(rep.received_bound_bytes.max()) <= factor_bytes * 1


@settings(deadline=None, max_examples=6)
@given(
    st.integers(20, 45),
    st.integers(0, 500),
    st.sampled_from(["fifo", "column", "depth", "bottom_level"]),
)
def test_any_priority_policy_yields_valid_schedule(n, seed, policy):
    A = random_spd_sparse(n, density=0.12, seed=seed)
    sf = symbolic_factor(A, None)
    part = BlockPartition(sf, 5)
    bs = BlockStructure(part)
    tg = TaskGraph(WorkModel(bs))
    g = ProcessorGrid(2, 2)
    owners = block_owners(tg, cyclic_map(tg.npanels, g))
    prio = task_priorities(tg, policy, depth=part.panel_depths())
    r = simulate_fanout(
        tg, owners, 4, machine=ZERO_COMM, priorities=prio,
        record_schedule=True,
    )
    chol = BlockCholesky(bs, sf.A)
    L = oracle_run_schedule(chol, tg, r.schedule).to_csc()
    assert abs(L @ L.T - sf.A).max() < 1e-8
