"""Variable-block (supernodal policy) runtime conformance.

The whole validation story must hold when panel widths are heterogeneous:
factors and solves bitwise-identical to the sequential baseline (at P = 4,
a 2 x 2 grid, to the grouped oracles of the factor and the solve), measured
messages/bytes equal to the static predictors, and strict trace replay —
across inline/shm transports, static/dynamic schedules, and P in
{1, 2, 4}. The fixture problem is chosen so the supernodal partition is
genuinely non-uniform (distinct panel widths), not a relabeled uniform
one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comm_volume import (
    communication_volume,
    solve_communication_volume,
)
from repro.analysis.trace_replay import validate_trace
from repro.blocks import BlockStructure, SupernodalPartition, WorkModel
from repro.fanout import TaskGraph
from repro.matrices import grid2d_matrix
from repro.numeric import BlockCholesky
from repro.numeric.solve import block_solve_permuted
from repro.ordering import order_problem
from repro.runtime.arena import shm_available
from repro.runtime.engine import plan_owners, run_mp_fanout
from repro.runtime.validation import validate_runtime
from repro.service.cache import pattern_digest
from repro.symbolic import symbolic_factor
from tests.blockfact_oracle import (
    oracle_grouped_cholesky,
    oracle_grouped_factor,
    oracle_grouped_solve,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)

P_SWEEP = (1, 2, 4)


@pytest.fixture(scope="module")
def varblock_ref():
    """A 20x20 grid under the supernodal policy, plus sequential
    factor/solve references."""
    problem = grid2d_matrix(20)
    sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
    part = SupernodalPartition(sf, min_width=2, max_width=8)
    # The point of the suite: the partition must be genuinely variable.
    assert np.unique(part.widths).size > 1
    bs = BlockStructure(part)
    wm = WorkModel(bs)
    tg = TaskGraph(wm)
    chol = BlockCholesky(bs, sf.A).factor()
    rng = np.random.default_rng(42)
    rhs = rng.standard_normal((sf.A.shape[0], 3))
    x_ref = block_solve_permuted(chol, rhs)
    return {
        "sf": sf, "part": part, "bs": bs, "wm": wm, "tg": tg,
        "L_ref": chol.to_csc(), "rhs": rhs, "x_ref": x_ref,
    }


def _transports():
    return ("inline", "shm") if shm_available() else ("inline",)


class TestConformanceMatrix:
    """Bitwise + predictor + trace invariants per configuration cell."""

    @pytest.mark.parametrize("nprocs", P_SWEEP)
    @pytest.mark.parametrize("schedule", ["static", "dynamic"])
    def test_cell(self, varblock_ref, nprocs, schedule):
        r = varblock_ref
        owners, name = plan_owners(r["wm"], r["tg"], nprocs, "DW/CY")
        predicted = communication_volume(r["tg"], owners)
        spred = solve_communication_volume(r["tg"], owners, nrhs=3)
        L_ref, x_ref = r["L_ref"], r["x_ref"]
        if nprocs == 4:
            # A 2 x 2 grid: a rank's panel updates and solve updates
            # stack its share of the rows, which rounds as the grouped
            # oracles do.
            diag, below = oracle_grouped_factor(r["bs"], r["sf"].A, owners)
            L_ref = oracle_grouped_cholesky(r["bs"], r["sf"].A,
                                            owners).to_csc()
            x_ref = oracle_grouped_solve(r["bs"], diag, below, owners,
                                         r["rhs"])
            assert abs(L_ref - r["L_ref"]).max() < 1e-12
            assert np.allclose(x_ref, r["x_ref"], rtol=1e-12, atol=1e-12)
        for transport in _transports():
            res = run_mp_fanout(
                r["bs"], r["sf"].A, r["tg"], owners, nprocs,
                mapping=name, trace=True, transport=transport,
                schedule=schedule, rhs=r["rhs"],
            )
            met = res.metrics
            assert res.meta["block_policy"] == "supernodal"
            # Factor and solve land bitwise on the reference.
            L = res.to_csc()
            assert (L != L_ref).nnz == 0
            assert np.array_equal(L.data, L_ref.data)
            assert np.array_equal(res.solution, x_ref)
            # Static schedules must reconcile exactly with the
            # predictors; dynamic runs may replace sends with steal
            # traffic, so validate_runtime (which knows the rules)
            # arbitrates instead of a raw equality.
            if schedule == "static":
                assert met.messages_total == predicted.messages
                assert met.bytes_total == predicted.bytes
                assert met.solve_messages_total == spred.messages
                assert met.solve_bytes_total == spred.bytes
            validate_runtime(
                r["bs"], r["sf"].A, r["tg"], result=res, strict=True
            )
            validate_trace(res.trace, met, strict=True)


@needs_shm
class TestTransportBitwiseEquality:
    def test_inline_and_shm_agree(self, varblock_ref):
        r = varblock_ref
        owners, name = plan_owners(r["wm"], r["tg"], 2, "cyclic")
        data = []
        for transport in ("inline", "shm"):
            res = run_mp_fanout(
                r["bs"], r["sf"].A, r["tg"], owners, 2, mapping=name,
                transport=transport, rhs=r["rhs"],
            )
            data.append((res.to_csc().data, res.solution))
        assert np.array_equal(data[0][0], data[1][0])
        assert np.array_equal(data[0][1], data[1][1])


class TestServiceDigestSeparation:
    """Uniform and supernodal plans for one csc pattern never collide in
    the pattern cache (the same treatment ``schedule`` got in PR 8)."""

    def _knobs(self, **kw):
        from repro.service import FactorService

        svc = FactorService(nprocs=1, **kw)
        try:
            return svc.config.plan_key()
        finally:
            svc.close()

    def test_digests_differ_across_policies(self):
        A = grid2d_matrix(8).A.tocsc()
        k_uni = self._knobs(block_policy="uniform")
        k_sup = self._knobs(block_policy="supernodal")
        assert k_uni != k_sup
        assert pattern_digest(A, k_uni) != pattern_digest(A, k_sup)

    def test_digests_differ_across_clamps(self):
        """The supernodal clamps follow ``block_size`` (max width 48 vs
        96 here), which is a plan field."""
        A = grid2d_matrix(8).A.tocsc()
        a = self._knobs(block_policy="supernodal", block_size=24)
        b = self._knobs(block_policy="supernodal", block_size=48)
        assert pattern_digest(A, a) != pattern_digest(A, b)

    def test_entry_records_policy(self):
        from repro.service import FactorService

        svc = FactorService(nprocs=1, block_policy="supernodal")
        try:
            A = grid2d_matrix(8).A.tocsc()
            entry = svc._build_entry("pid-test", A)
            assert entry.config.block_policy == "supernodal"
            assert (
                entry.structure.partition.policy_name == "supernodal"
            )
        finally:
            svc.close()

    def test_invalid_policy_rejected(self):
        from repro.service import FactorService

        with pytest.raises(ValueError, match="block_policy"):
            FactorService(nprocs=1, block_policy="variable")
