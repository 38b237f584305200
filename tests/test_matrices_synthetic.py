import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.matrices import (
    bcsstk_like_matrix,
    copter_like_matrix,
    fleet_like_matrix,
)
from repro.matrices.spd import is_symmetric_pattern


class TestBcsstkLike:
    def test_size(self):
        p = bcsstk_like_matrix(300)
        assert p.n == 300

    def test_symmetric_spd_shift(self):
        p = bcsstk_like_matrix(200, seed=5)
        assert is_symmetric_pattern(p.A, tol=1e-12)
        # diagonal dominance by construction
        A = p.A.tocsr()
        diag = A.diagonal()
        rowsum = np.asarray(np.abs(A).sum(axis=1)).ravel()
        off = rowsum - np.abs(diag)
        assert (diag >= off).all()

    def test_deterministic(self):
        a = bcsstk_like_matrix(150, seed=9).A
        b = bcsstk_like_matrix(150, seed=9).A
        assert (a != b).nnz == 0

    def test_dof_block_coupling(self):
        """Equations of one mesh node couple densely (dof x dof blocks)."""
        p = bcsstk_like_matrix(90, dof=3, seed=1)
        A = p.A.tocsr()
        for node in range(5):
            block = A[3 * node : 3 * node + 3, 3 * node : 3 * node + 3].toarray()
            assert (block != 0).all()

    def test_coords_present(self):
        p = bcsstk_like_matrix(120, seed=2)
        assert p.coords.shape == (120, 3)


class TestCopterLike:
    def test_blade_aspect(self):
        p = copter_like_matrix(300, seed=3)
        spans = p.coords.max(axis=0) - p.coords.min(axis=0)
        assert spans[0] > 2 * spans[1] > 0  # elongated along the span
        assert spans[1] > spans[2] > 0  # flattened cross-section

    def test_symmetric(self):
        assert is_symmetric_pattern(copter_like_matrix(200, seed=4).A, tol=1e-12)


class TestFleetLike:
    def test_size_and_symmetry(self):
        p = fleet_like_matrix(250, seed=6)
        assert p.n == 250
        assert is_symmetric_pattern(p.A, tol=1e-12)

    def test_hub_rows_denser(self):
        """Hub constraints accumulate many more couplings than typical rows."""
        p = fleet_like_matrix(2000, seed=8)
        A = p.A.tocsr()
        row_nnz = np.diff(A.indptr)
        nhubs = max(1, int(0.004 * 2000))
        assert row_nnz[:nhubs].mean() > 1.5 * np.median(row_nnz)

    def test_deterministic(self):
        a = fleet_like_matrix(150, seed=11).A
        b = fleet_like_matrix(150, seed=11).A
        assert (a != b).nnz == 0


def test_import_repro_leaves_scipy_spatial_unimported():
    """``cKDTree`` is imported by its one user, ``_knn_graph``, when it
    runs: ``import repro`` does not pay for ``scipy.spatial``."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('scipy.spatial' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"
