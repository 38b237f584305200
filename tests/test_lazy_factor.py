"""``L`` is assembled on first read. A ``factor()`` — ``sequential``,
``mp`` or a service job — scans the packed factor for NaN/Inf and builds no
CSC; the first read of ``.L`` is ``to_csc()`` bit for bit, and every later
read returns that object until the next factor. (The refusals of a
non-finite factor are pinned where they always were:
``test_runtime_engine.py``, ``test_service.py`` and
``test_numeric_blockfact.py::TestNonFiniteFactor``.)"""

import numpy as np
import pytest

from repro.blocks.plan import NumericPlan
from repro.numeric import BlockCholesky
from repro.service import FactorService
from repro.solver import SparseCholesky

KW = dict(ordering="nd", block_size=8)


@pytest.fixture(scope="module")
def grid_values(grid12_pipeline):
    """The grid12 matrix and a second value set of its pattern."""
    A = grid12_pipeline[0].A.tocsc()
    A2 = A.copy()
    A2.setdiag(A2.diagonal() + 1.5)
    return A, A2


@pytest.fixture
def builds(monkeypatch):
    """The names of the CSC builders called in this process, in order."""
    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(self):
            calls.append(name)
            return fn(self)

        monkeypatch.setattr(owner, name, wrapper)

    counted(BlockCholesky, "to_csc")
    counted(NumericPlan, "csc_pattern")
    return calls


def _bitwise(L, ref):
    return all(np.array_equal(getattr(L, a), getattr(ref, a))
               for a in ("indptr", "indices", "data"))


def _read_twice(owner, factor, builds):
    """The first read builds ``L`` once, as ``to_csc()`` would; the second
    returns the same object and builds nothing."""
    L = owner.L
    assert builds.count("to_csc") == 1
    assert owner.L is L and builds.count("to_csc") == 1
    assert _bitwise(L, factor.to_csc())
    return L


@pytest.mark.parametrize("kw", [{}, dict(backend="mp", nprocs=2)],
                         ids=["sequential", "mp"])
def test_the_facade_builds_L_on_first_read(grid_values, builds, kw):
    with SparseCholesky(grid_values[0], **KW, **kw) as chol:
        assert chol.factor() is chol and builds == []
        L = _read_twice(chol, chol._numeric, builds)
        # A re-factor drops the old L; the new one is built on its read.
        builds.clear()
        chol.factor()
        assert builds == []
        assert _read_twice(chol, chol._numeric, builds) is not L


def test_a_service_job_builds_L_on_first_read(grid_values, builds):
    A, A2 = grid_values
    with FactorService(nprocs=2, timeout_s=120, **KW) as svc:
        cold = svc.factor(A)
        warm = svc.factor(pattern_id=cold.pattern_id, values=A2.data)
        assert builds == []
        for res in (cold, warm):
            builds.clear()
            _read_twice(res, res.factor, builds)
        assert not _bitwise(cold.L, warm.L)
