"""Variable-block (a B chosen per supernode, §5) runtime conformance.

The whole validation story must hold when panel widths are heterogeneous:
factors and solves bitwise-identical to the sequential baseline (at P = 4,
a 2 x 2 grid, to the grouped oracles of the factor and the solve), measured
messages/bytes equal to the static predictors, and strict trace replay —
across inline/shm transports, static/dynamic schedules, and P in
{1, 2, 4}. The fixture's policy is chosen so the partition is genuinely
non-uniform (distinct panel widths), not a relabeled uniform one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comm_volume import (
    communication_volume,
    solve_communication_volume,
)
from repro.analysis.trace_replay import validate_trace
from repro.blocks import BlockPartition, BlockStructure, WorkModel
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
from tests.conftest import variable_partition

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)

P_SWEEP = (1, 2, 4)


@pytest.fixture(scope="module")
def varblock_ref():
    """A 20x20 grid under a per-supernode B, plus sequential factor/solve
    references."""
    problem = grid2d_matrix(20)
    sf = symbolic_factor(problem.A, order_problem(problem, "nd"))
    part = variable_partition(sf, 8)
    # The point of the suite: the partition must be genuinely variable.
    assert np.unique(part.widths).size >= 3
    assert not np.array_equal(part.panel_ptr, BlockPartition(sf, 8).panel_ptr)
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
    """Plans at two block sizes for one csc pattern never collide in the
    pattern cache, as no two values of a plan field do."""

    def _knobs(self, **kw):
        from repro.service import FactorService

        svc = FactorService(nprocs=1, **kw)
        try:
            return svc.config.plan_key()
        finally:
            svc.close()

    def test_digests_differ_across_clamps(self):
        """The panel width ``block_size`` is a plan field: the entry's
        partition, so its digest, follows it."""
        A = grid2d_matrix(8).A.tocsc()
        a = self._knobs(block_size=24)
        b = self._knobs(block_size=48)
        assert ("block_size", 24) in a and ("block_size", 48) in b
        assert pattern_digest(A, a) != pattern_digest(A, b)

    def test_invalid_policy_rejected(self):
        """There is one panel rule, so no policy to name: the keyword is
        unknown."""
        from repro.service import FactorService

        with pytest.raises(TypeError, match="block_policy"):
            FactorService(nprocs=1, block_policy="uniform")
