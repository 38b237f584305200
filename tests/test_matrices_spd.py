import numpy as np
import pytest
from scipy import sparse

from repro.matrices.spd import (
    is_symmetric_pattern,
    make_spd,
    random_spd_sparse,
    symmetric_csc,
)


class TestIsSymmetricPattern:
    def test_symmetric(self):
        A = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert is_symmetric_pattern(A)

    def test_asymmetric(self):
        A = sparse.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
        assert not is_symmetric_pattern(A)

    def test_tolerance(self):
        A = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0 + 1e-12, 3.0]]))
        assert is_symmetric_pattern(A, tol=1e-10)


class TestSymmetricCsc:
    FULL = np.array([[4.0, 1.0, 0.0], [1.0, 5.0, 2.0], [0.0, 2.0, 6.0]])

    def test_symmetric_passes_through(self):
        A = sparse.csc_matrix(self.FULL)
        assert symmetric_csc(A) is A

    def test_unsorted_indices_still_symmetric(self):
        A = sparse.csc_matrix(self.FULL)
        B = sparse.csc_matrix(
            (A.data[::-1].copy(), A.indices[::-1].copy(), A.indptr),
            shape=A.shape,
        )  # column 1 lists its rows as 2, 1, 0
        assert not B.has_sorted_indices
        assert symmetric_csc(B) is B

    @pytest.mark.parametrize("k", [0, 1])
    def test_triangle_is_mirrored(self, k):
        tri = (sparse.tril, sparse.triu)[k](sparse.csr_matrix(self.FULL))
        out = symmetric_csc(tri)
        assert sparse.isspmatrix_csc(out)
        assert np.array_equal(out.toarray(), self.FULL)

    def test_diagonal_is_symmetric(self):
        D = sparse.identity(4, format="csc")
        assert symmetric_csc(D) is D

    def test_unsymmetric_pattern_raises(self):
        A = self.FULL.copy()
        A[0, 2] = 7.0
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_csc(sparse.csc_matrix(A))

    def test_equal_counts_different_places_raises(self):
        A = np.diag([1.0, 1.0, 1.0, 1.0])
        A[0, 1] = A[3, 2] = 1.0  # one entry in each triangle, not mirrors
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_csc(sparse.csc_matrix(A))

    def test_nonsquare_and_empty_raise(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_csc(sparse.csc_matrix((3, 4)))
        with pytest.raises(ValueError, match="empty"):
            symmetric_csc(sparse.csc_matrix((0, 0)))


class TestMakeSpd:
    def test_diagonally_dominant(self):
        rng = np.random.default_rng(0)
        M = sparse.random(30, 30, density=0.2, random_state=0)
        A = make_spd(M, shift=0.5)
        d = A.diagonal()
        off = np.asarray(np.abs(A).sum(axis=1)).ravel() - np.abs(d)
        assert (d > off).all()

    def test_positive_definite(self):
        M = sparse.random(25, 25, density=0.3, random_state=1)
        A = make_spd(M)
        vals = np.linalg.eigvalsh(A.toarray())
        assert vals.min() > 0

    def test_preserves_offdiag_pattern(self):
        M = sparse.random(20, 20, density=0.2, random_state=2)
        A = make_spd(M)
        S = ((M + M.T) * 0.5).tolil()
        S.setdiag(0)
        expected = (S.tocsr() != 0).astype(int)
        got = A.tolil()
        got.setdiag(0)
        got = (got.tocsr() != 0).astype(int)
        assert (expected != got).nnz == 0


class TestRandomSpdSparse:
    def test_spd(self):
        A = random_spd_sparse(40, density=0.1, seed=3)
        assert np.linalg.eigvalsh(A.toarray()).min() > 0

    def test_symmetric(self):
        A = random_spd_sparse(40, density=0.1, seed=4)
        assert is_symmetric_pattern(A, tol=1e-12)

    def test_density_scales(self):
        lo = random_spd_sparse(60, density=0.01, seed=5).nnz
        hi = random_spd_sparse(60, density=0.2, seed=5).nnz
        assert hi > lo
