import numpy as np
import pytest

from repro.numeric import bdiv_kernel, bfac_kernel, bmod_kernel
from repro.numeric.solve import bsolve_kernel, fsolve_kernel
from tests.blockfact_oracle import (
    oracle_bdiv,
    oracle_bfac,
    oracle_bsolve,
    oracle_fsolve,
)


def spd(n, seed=0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


class TestBfac:
    def test_matches_numpy(self):
        D = spd(8)
        L, flops = bfac_kernel(D)
        assert np.allclose(L, np.linalg.cholesky(D))
        assert flops > 0

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            bfac_kernel(-np.eye(3))


class TestBdiv:
    def test_triangular_solve(self):
        rng = np.random.default_rng(1)
        L = np.linalg.cholesky(spd(6, 1))
        B = rng.standard_normal((4, 6))
        B_orig = B.copy()  # bdiv consumes B (in-place solve)
        X, flops = bdiv_kernel(B, L)
        assert np.allclose(X @ L.T, B_orig)
        assert flops == 4 * 36

    def test_solves_in_place(self):
        rng = np.random.default_rng(4)
        L = np.linalg.cholesky(spd(5, 2))
        B = rng.standard_normal((3, 5))
        X, _ = bdiv_kernel(B, L)
        assert np.shares_memory(X, B)


class TestBmod:
    def test_outer_product(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 5))
        B = rng.standard_normal((2, 5))
        U, flops = bmod_kernel(A, B)
        assert np.allclose(U, A @ B.T)
        assert flops == 2 * 3 * 2 * 5

    def test_bmod_into_accumulates_in_place(self):
        from repro.numeric.dense_kernels import bmod_kernel_into

        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 6))
        B = rng.standard_normal((3, 6))
        dest = rng.standard_normal((4, 3))
        expect = dest - A @ B.T
        buf = dest  # fused dgemm writes straight into the destination
        flops = bmod_kernel_into(A, B, dest)
        assert np.allclose(dest, expect)
        assert dest is buf
        assert flops == 2 * 4 * 3 * 6


class TestComposition:
    def test_one_step_block_elimination(self):
        """BFAC+BDIV+BMOD on a 2x2 block matrix reproduce dense Cholesky."""
        n, w = 10, 4
        A = spd(n, 3)
        L_ref = np.linalg.cholesky(A)
        D = A[:w, :w].copy()
        B = A[w:, :w].copy()
        C = A[w:, w:].copy()
        Lkk, _ = bfac_kernel(D)
        Lik, _ = bdiv_kernel(B, Lkk)
        U, _ = bmod_kernel(Lik, Lik)
        L22 = np.linalg.cholesky(C - U)
        assert np.allclose(Lkk, L_ref[:w, :w])
        assert np.allclose(Lik, L_ref[w:, :w])
        assert np.allclose(L22, L_ref[w:, w:])


# ----------------------------------------------------------------------
# The direct dpotrf / dtrtrs calls against the scipy wrappers they
# replaced (tests/blockfact_oracle.py): the same bits, whatever layout
# the operands arrive in
# ----------------------------------------------------------------------
WIDTHS = (1, 2, 7, 16, 48)
ROWS = (1, 5, 40)


def factored(w):
    return np.linalg.cholesky(spd(w, 10 + w))


def arena_view(L):
    """``L`` as a read-only C-ordered view into a larger buffer, the way
    a block is read out of an arena slot."""
    buf = np.concatenate([[0.0], L.ravel(), [0.0]])
    view = buf[1:-1].reshape(L.shape)
    view.flags.writeable = False
    return view


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "arena": arena_view,
}


class TestBitEqualToTheWrappers:
    @pytest.mark.parametrize("w", WIDTHS)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bfac(self, w, order):
        D = np.array(spd(w, w), order=order)
        L, flops = bfac_kernel(D.copy(order="K"))
        assert np.array_equal(L, oracle_bfac(D.copy(order="K")))
        assert L.flags.c_contiguous
        assert not np.triu(L, 1).any()
        assert flops > 0

    @pytest.mark.parametrize("w", WIDTHS)
    @pytest.mark.parametrize("r", ROWS)
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_bdiv(self, w, r, layout):
        L_KK = LAYOUTS[layout](factored(w))
        B = np.random.default_rng(w * r).standard_normal((r, w))
        want = oracle_bdiv(B.copy(), L_KK)
        # Writable and C-contiguous: solved in place.
        mine = B.copy()
        X, flops = bdiv_kernel(mine, L_KK)
        assert np.array_equal(X, want) and np.shares_memory(X, mine)
        assert X.flags.c_contiguous and flops == r * w * w
        # Read-only: copied, the caller's block untouched.
        frozen = B.copy()
        frozen.flags.writeable = False
        X, _ = bdiv_kernel(frozen, L_KK)
        assert np.array_equal(X, want) and np.array_equal(frozen, B)
        assert X.flags.c_contiguous and X.flags.writeable
        # Strided (a 1 x 1 view is contiguous whatever its strides):
        # copied too.
        wide = np.zeros((r, 2 * w))
        wide[:, ::2] = B
        if not wide[:, ::2].flags.c_contiguous:
            X, _ = bdiv_kernel(wide[:, ::2], L_KK)
            assert np.array_equal(X, want) and X.flags.c_contiguous
            assert np.array_equal(wide[:, ::2], B)

    @pytest.mark.parametrize("w", WIDTHS)
    @pytest.mark.parametrize("nrhs", [1, 4])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_solve_kernels(self, w, nrhs, layout):
        L_KK = LAYOUTS[layout](factored(w))
        B = np.random.default_rng(w + nrhs).standard_normal((w, nrhs))
        for kernel, oracle in (
            (fsolve_kernel, oracle_fsolve), (bsolve_kernel, oracle_bsolve)
        ):
            keep = B.copy()
            X = kernel(L_KK, keep)
            assert np.array_equal(X, oracle(L_KK, B))
            assert X.flags.c_contiguous and np.array_equal(keep, B)
            # A row slice of a wider panel stack, as the sweeps pass it.
            stack = np.random.default_rng(1).standard_normal((w + 3, nrhs))
            assert np.array_equal(
                kernel(L_KK, stack[2 : 2 + w]), oracle(L_KK, stack[2 : 2 + w])
            )


class TestKernelFailures:
    def test_not_positive_definite(self):
        with pytest.raises(np.linalg.LinAlgError, match="not positive"):
            bfac_kernel(-np.eye(3))
        with pytest.raises(
            np.linalg.LinAlgError, match="2-th leading minor"
        ):
            bfac_kernel(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("w", [1, 5])
    def test_zero_on_the_diagonal_is_singular(self, w):
        L = factored(w)
        L[w - 1, w - 1] = 0.0
        want = f"singular matrix: resolution failed at diagonal {w - 1}"
        B = np.ones((3, w))
        with pytest.raises(np.linalg.LinAlgError, match=want):
            bdiv_kernel(B, L)
        for kernel in (fsolve_kernel, bsolve_kernel):
            with pytest.raises(np.linalg.LinAlgError, match=want):
                kernel(L, np.ones((w, 2)))

    def test_empty_operands_are_no_ops(self):
        L, flops = bfac_kernel(np.zeros((0, 0)))
        assert L.shape == (0, 0) and flops == 0
        X, flops = bdiv_kernel(np.zeros((0, 4)), factored(4))
        assert X.shape == (0, 4) and flops == 0
        assert fsolve_kernel(factored(4), np.zeros((4, 0))).shape == (4, 0)
