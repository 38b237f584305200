import copy
import pickle
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.matrices import (
    bcsstk_like_matrix,
    cube3d_matrix,
    dense_matrix,
    fleet_like_matrix,
    grid2d_matrix,
)
from repro.matrices.hb import read_harwell_boeing, write_harwell_boeing
from repro.matrices.problem import ProblemMatrix
from repro.numeric import BlockCholesky, NotPositiveDefiniteError
from repro.ordering import order_problem
from repro.symbolic import symbolic_factor
from tests.blockfact_oracle import (
    assert_blocks_equal,
    oracle_blocks,
    oracle_bmod_factor,
    oracle_factor,
    oracle_grouped_factor,
    oracle_scatter,
    oracle_to_csc,
)
from tests.conftest import PARTITIONS, variable_partition


def factor_and_check(A, sf, B):
    part = BlockPartition(sf, B)
    bs = BlockStructure(part)
    bc = BlockCholesky(bs, sf.A).factor()
    L = bc.to_csc()
    resid = abs(L @ L.T - sf.A).max()
    return bc, L, resid


class TestBlockCholesky:
    def test_grid_nd(self, grid12_pipeline):
        problem, sf, part, bs, *_ = grid12_pipeline
        bc = BlockCholesky(bs, sf.A).factor()
        L = bc.to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10

    def test_dense(self):
        p = dense_matrix(40)
        sf = symbolic_factor(p.A, None)
        _, L, resid = factor_and_check(p.A, sf, 12)
        assert resid < 1e-8 * abs(sf.A).max()

    def test_random_mmd(self, random_spd_pipeline):
        problem, sf, part, bs, *_ = random_spd_pipeline
        bc = BlockCholesky(bs, sf.A).factor()
        L = bc.to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10

    def test_matches_dense_cholesky_values(self, grid12_pipeline):
        _, sf, _, bs, *_ = grid12_pipeline
        L = BlockCholesky(bs, sf.A).factor().to_csc().toarray()
        L_ref = np.linalg.cholesky(sf.A.toarray())
        assert np.allclose(np.tril(L), L_ref, atol=1e-10)

    def test_various_block_sizes(self):
        p = grid2d_matrix(9)
        sf = symbolic_factor(p.A, order_problem(p, "nd"))
        for B in (1, 3, 5, 100):
            _, _, resid = factor_and_check(p.A, sf, B)
            assert resid < 1e-10, f"B={B}"

    def test_bdiv_before_bfac_rejected(self, grid12_pipeline):
        _, sf, _, bs, *_ = grid12_pipeline
        bc = BlockCholesky(bs, sf.A)
        k = 0
        brows = bs.block_rows[k]
        if brows.size:
            with pytest.raises(RuntimeError):
                bc.pfac(k, diag=False)

    @pytest.mark.parametrize("B", [1, 2])
    def test_not_positive_definite_names_the_global_column(self, B):
        """The pivot that fails is column 1 of the matrix, whichever panel
        holds it: not the 1-th minor of a one-column panel."""
        A = sparse.csc_matrix(np.array([[4.0, 2.0], [2.0, 1.0]]))
        sf = symbolic_factor(A, None)
        chol = BlockCholesky(BlockStructure(BlockPartition(sf, B)), sf.A)
        with pytest.raises(NotPositiveDefiniteError,
                           match="pivot of column 1 ") as info:
            chol.factor()
        assert (info.value.panel, info.value.column) == (2 - B, 1)
        assert isinstance(info.value, np.linalg.LinAlgError)
        again = pickle.loads(pickle.dumps(info.value))
        assert (again.panel, again.column, str(again)) == (
            2 - B, 1, str(info.value))

    def test_flop_counter_increases(self, grid12_pipeline):
        _, sf, _, bs, *_ = grid12_pipeline
        bc = BlockCholesky(bs, sf.A)
        assert bc.flops == 0
        bc.factor()
        assert bc.flops > 0


# ----------------------------------------------------------------------
# The numeric plan against the interpreted scatter / COO assembly it
# replaced (tests/blockfact_oracle.py)
# ----------------------------------------------------------------------
def _hb_matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("hb") / "bcsstk_like.rsa"
    write_harwell_boeing(
        path, bcsstk_like_matrix(150, seed=4).A, title="oracle", key="ORC1"
    )
    return read_harwell_boeing(path)


PROBLEMS = {
    "grid2d": lambda _: (grid2d_matrix(11).A, "nd"),
    "cube3d": lambda _: (cube3d_matrix(5).A, "nd"),
    "fleet_like": lambda _: (fleet_like_matrix(120, seed=1).A, "mmd"),
    "hb": lambda tmp: (_hb_matrix(tmp), "mmd"),
}


@pytest.fixture(scope="module", params=sorted(PROBLEMS))
def analysed(request, tmp_path_factory):
    A, method = PROBLEMS[request.param](tmp_path_factory)
    problem = ProblemMatrix(request.param, sparse.csc_matrix(A))
    return symbolic_factor(problem.A, order_problem(problem, method))


def assert_plan_matches_the_oracle(bs, A):
    """Blocks and ``L`` (values, index arrays and their dtypes) against the
    interpreted scatter and COO assembly."""
    chol = BlockCholesky(bs, A)
    assert_blocks_equal(chol, *oracle_blocks(bs, A))
    L = chol.factor().to_csc()
    ref = oracle_to_csc(chol)
    assert L.indptr.dtype == ref.indptr.dtype
    assert L.indices.dtype == ref.indices.dtype
    # The plan builds its index arrays in scipy's width (csc_matrix would
    # cast any other away, so L alone cannot tell), the gather in the
    # store's.
    indptr, indices, gather = bs.numeric_plan().csc_pattern()
    assert indptr.dtype == indices.dtype == ref.indptr.dtype
    assert gather.dtype == np.int32
    assert np.array_equal(L.indptr, ref.indptr)
    assert np.array_equal(L.indices, ref.indices)
    assert np.array_equal(L.data, ref.data)
    # A second extraction shares no index array with the first.
    L.indptr[:] = 0
    L.indices[:] = 0
    again = chol.to_csc()
    assert np.array_equal(again.indptr, ref.indptr)
    assert np.array_equal(again.indices, ref.indices)


@pytest.mark.parametrize("policy", ["uniform", "supernodal"])
@pytest.mark.parametrize("triangles", ["both", "lower"])
def test_plan_matches_the_interpreted_oracle(analysed, policy, triangles):
    sf = analysed
    bs = BlockStructure(PARTITIONS[policy](sf, 8))
    A = sf.A if triangles == "both" else sparse.tril(sf.A).tocsc()
    assert_plan_matches_the_oracle(bs, A)


EDGE_CASES = {
    "n=1": lambda: sparse.csc_matrix(np.array([[4.0]])),
    # One width-1 panel per column and no row below any of them.
    "diagonal": lambda: sparse.diags(np.arange(1.0, 13.0)).tocsc(),
    # One panel, no row below it.
    "one dense panel": lambda: dense_matrix(8).A,
}


@pytest.mark.parametrize("policy", ["uniform", "supernodal"])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_plan_matches_the_oracle_on_edge_patterns(case, policy):
    sf = symbolic_factor(EDGE_CASES[case](), None)
    bs = BlockStructure(PARTITIONS[policy](sf, 8))
    assert bs.numeric_plan()._rows.size == 0
    assert_plan_matches_the_oracle(bs, sf.A)


@pytest.mark.parametrize("policy", ["uniform", "supernodal"])
def test_factor_is_bit_equal_to_the_wrapper_kernels(analysed, policy):
    """``factor()`` — direct LAPACK handles, one panel factor per K and
    one panel update per (K, J) through the flat slab offsets — against
    the loop over the scipy wrappers with the same grouping and the open
    mesh; so are the public operations, called in the order ``factor()``
    calls them. The per-block factor, bit-equal to the wrapper loop,
    agrees to rounding."""
    sf = analysed
    bs = BlockStructure(PARTITIONS[policy](sf, 8))
    nblocks = WorkModel(bs).dest_I.shape[0]
    want = oracle_grouped_factor(bs, sf.A, np.zeros(nblocks, np.int64))
    chol = BlockCholesky(bs, sf.A).factor()
    assert_blocks_equal(chol, *want)
    step = BlockCholesky(bs, sf.A)
    spans = bs.numeric_plan().spans
    for k in range(bs.npanels):
        step.pfac(k)
        end = step.diag[k].shape[0] + bs.rows_below[k].shape[0]
        for j in step.below[k]:
            step.pmod(k, j, slice(spans[k][j][0], end))
    assert_blocks_equal(step, *want)
    per_block = oracle_bmod_factor(bs, sf.A)
    assert_blocks_equal(per_block, *oracle_factor(bs, sf.A))
    assert step.flops == chol.flops == per_block.flops
    L, ref = chol.to_csc(), per_block.to_csc()
    assert abs(L - ref).max() <= 1e-14 * abs(ref).max()


class TestBmodScatter:
    """``pmod`` on hand-made windows: the flat slab-offset scatter against
    the open mesh, and a read-only destination."""

    @staticmethod
    def _chol(source, L_JK, dest_rows, cols, dest, lo=0):
        """A bare ``BlockCholesky`` whose plan is one (K, J) window: panel
        0's slab is ``source``, whose rows ``lo..`` update rows
        ``dest_rows`` x columns ``cols`` of panel 1's slab ``dest``."""
        W = dest.shape[1]
        at = np.asarray(dest_rows, np.intp) * W
        contiguous = cols[-1] - cols[0] + 1 == len(cols)
        window = (
            -lo, np.asarray(cols, np.int32)[None, :],
            (cols[0], cols[-1] + 1) if contiguous else None,
        )
        chol = BlockCholesky.__new__(BlockCholesky)
        chol._plan = SimpleNamespace(rel_of=[{1: window}], slab_flat=at)
        chol._slabs = [source, dest]
        chol.below = [{1: L_JK}]
        chol.flops = 0
        return chol

    @pytest.mark.parametrize("seed", range(12))
    def test_flat_scatter_equals_the_open_mesh(self, seed):
        rng = np.random.default_rng(seed)
        R, W, w = int(rng.integers(2, 30)), int(rng.integers(1, 20)), 5
        m, c = int(rng.integers(1, R + 1)), int(rng.integers(1, W + 1))
        rows = np.sort(rng.choice(R, m, replace=False))
        cols = np.sort(rng.choice(W, c, replace=False))
        if seed % 3 == 0:  # contiguous columns, scattered rows
            cols = np.arange(c) + int(rng.integers(0, W - c + 1))
        lo = int(rng.integers(0, 4))
        source = rng.standard_normal((lo + m, w))
        L_JK = rng.standard_normal((c, w))
        start = rng.standard_normal((R, W))
        want = start.copy()
        oracle_scatter(want, rows, cols, source[lo:] @ L_JK.T)
        dest = start.copy()
        chol = self._chol(source, L_JK, rows, cols.tolist(), dest, lo)
        chol.pmod(0, 1, slice(lo, lo + m))
        assert np.array_equal(dest, want)
        assert chol.flops == 2 * m * c * w
        # The same rows named one by one: a gathered operand, same bits.
        dest[...] = start
        chol.pmod(0, 1, np.arange(lo, lo + m))
        assert np.array_equal(dest, want)

    def test_a_read_only_destination_is_refused_not_bypassed(self):
        """Flattening a read-only slab gives a read-only view: the update
        fails as loudly as it would through the open mesh."""
        dest = np.zeros((3, 3))
        dest.flags.writeable = False
        chol = self._chol(np.ones((2, 2)), np.ones((2, 2)), [0, 2], [0, 2],
                          dest)
        with pytest.raises(ValueError, match="read-only"):
            chol.pmod(0, 1, slice(0, 2))
        assert not dest.any()


class TestNonFiniteFactor:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_to_csc_refuses_a_non_finite_factor(self, grid12_pipeline, bad):
        """The kernels scan nothing; a NaN/Inf on the diagonal of ``A``
        factors without an ``info`` and is stopped at the assembly."""
        _, sf, _, bs, *_ = grid12_pipeline
        A = sf.A.tocsc(copy=True)
        A[A.shape[0] // 2, A.shape[0] // 2] = bad
        chol = BlockCholesky(bs, A).factor()
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            chol.to_csc()
        # ... whichever way the packed values are read.
        chol.install(0, 0, chol.diag[0])
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            chol.to_csc()


class TestNonCanonicalInput:
    """Whatever form the CSC input takes, the blocks are those of the
    canonical full matrix."""

    @staticmethod
    def _raw(A, order):
        """CSC arrays of ``A`` with each column's entries reordered by
        ``order`` and no canonical-format promise."""
        A = A.tocsc(copy=True)
        A.sort_indices()
        parts = [
            order(np.arange(A.indptr[j], A.indptr[j + 1]))
            for j in range(A.shape[1])
        ]
        take = np.concatenate(parts)
        return sparse.csc_matrix(
            (A.data[take], A.indices[take], A.indptr.copy()), shape=A.shape
        )

    def test_unsorted_indices(self, grid12_pipeline):
        _, sf, _, bs, *_ = grid12_pipeline
        A = self._raw(sf.A, lambda idx: idx[::-1])
        assert not A.has_sorted_indices
        assert_blocks_equal(BlockCholesky(bs, A), *oracle_blocks(bs, sf.A))

    @pytest.mark.parametrize("triangles", ["both", "lower"])
    def test_duplicates_are_summed(self, grid12_pipeline, triangles):
        _, sf, _, bs, *_ = grid12_pipeline
        full = sf.A.tocsc(copy=True)
        full.sort_indices()
        A = full if triangles == "both" else sparse.tril(full).tocsc()
        # Every entry twice, as halves: the sum is exact.
        indptr = 2 * A.indptr
        counts = np.diff(A.indptr)
        take = np.concatenate([
            np.tile(np.arange(A.indptr[j], A.indptr[j + 1]), 2)
            for j in range(A.shape[1])
        ])
        dup = sparse.csc_matrix(
            (0.5 * A.data[take], A.indices[take], indptr), shape=A.shape
        )
        assert dup.nnz == 2 * A.nnz and counts.sum() == A.nnz
        assert not dup.has_canonical_format
        chol = BlockCholesky(bs, dup)
        assert_blocks_equal(chol, *oracle_blocks(bs, full))
        assert dup.nnz == 2 * A.nnz  # the caller's matrix is untouched

    def test_new_pattern_of_the_same_shape_rebuilds_the_map(
        self, grid12_pipeline
    ):
        """Two patterns with equal nnz and equal-shaped index arrays: the
        scatter map is keyed on their content."""
        _, sf, _, bs, *_ = grid12_pipeline
        full = sf.A.tocoo()
        upper = np.flatnonzero(full.row < full.col)

        def without(e):
            keep = np.ones(full.nnz, dtype=bool)
            keep[upper[e]] = False
            return sparse.csc_matrix(
                (full.data[keep], (full.row[keep], full.col[keep])),
                shape=full.shape,
            )

        A1, A2 = without(0), without(upper.size - 1)
        assert A1.indices.shape == A2.indices.shape
        assert not np.array_equal(A1.indices, A2.indices)
        want = oracle_blocks(bs, sf.A)
        for A in (A1, A2, A1):
            assert_blocks_equal(BlockCholesky(bs, A), *want)
        # The same arrays, mutated in place, are a new pattern too.
        A3 = sparse.tril(sf.A).tocsc()
        scale = sparse.diags(np.linspace(1.0, 2.0, A3.shape[0]))
        BlockCholesky(bs, A3)
        moved = (scale @ sf.A @ scale).tocsc()
        lower = sparse.tril(moved).tocsc()
        A3.indices[:] = lower.indices
        A3.data[:] = lower.data
        assert_blocks_equal(BlockCholesky(bs, A3), *oracle_blocks(bs, moved))


class TestTypedFailures:
    def test_size_mismatch(self, grid12_pipeline):
        _, sf, _, bs, *_ = grid12_pipeline
        with pytest.raises(ValueError, match="size disagrees"):
            BlockCholesky(bs, sparse.identity(sf.A.shape[0] + 1, format="csc"))

    def test_entry_outside_the_structure(self):
        # Tridiagonal plus a dense last row, natural order: no fill, so
        # (5, 0) is outside L — between structural rows of its column, and
        # (n-2, 0) past the last one but the arrow row.
        n = 12
        T = sparse.diags(
            [np.full(n - 1, -1.0), np.full(n, 40.0), np.full(n - 1, -1.0)],
            [-1, 0, 1], format="lil",
        )
        T[n - 1, :] = T[:, n - 1] = -1.0
        T[n - 1, n - 1] = 40.0
        bs = BlockStructure(
            BlockPartition(symbolic_factor(T.tocsc(), None, amalgamate=False), 3)
        )
        BlockCholesky(bs, T).factor()
        for row in (5, n - 2):
            bad = T.copy()
            bad[row, 0] = bad[0, row] = 0.5
            for build in (BlockCholesky, oracle_blocks):
                with pytest.raises(
                    ValueError, match="outside the symbolic structure"
                ):
                    build(bs, bad.tocsc())

    def test_entry_past_the_last_structural_row(self):
        """The interpreted loop indexed past ``rows_below`` here and leaked
        an ``IndexError``; the map says what is wrong."""
        n = 12
        T = sparse.diags(
            [np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)],
            [-1, 0, 1], format="lil",
        )
        bs = BlockStructure(
            BlockPartition(symbolic_factor(T.tocsc(), None, amalgamate=False), 3)
        )
        T[n - 1, 0] = T[0, n - 1] = 0.5
        with pytest.raises(ValueError, match="outside the symbolic structure"):
            BlockCholesky(bs, T.tocsc())

    def test_bdiv_before_bfac(self, grid12_pipeline):
        _, sf, _, bs, *_ = grid12_pipeline
        k = next(k for k in range(bs.npanels) if bs.block_rows[k].size)
        with pytest.raises(RuntimeError, match=r"BDIV of panel \d+ before BFAC"):
            BlockCholesky(bs, sf.A).pfac(k, diag=False)

    def test_bmod_rows_missing_from_destination(self, grid12_pipeline):
        """A structure whose destination panel lacks a row an update
        needs is refused when the plan is compiled."""
        _, sf, _, bs, *_ = grid12_pipeline
        p_of = bs.partition.panel_of_col
        # A row r some panel k updates in panel j, and a neighbour of r in
        # the same block row that panel j does not hold: swap them.
        found = None
        for k in range(bs.npanels):
            if bs.block_rows[k].shape[0] < 2:
                continue
            j = int(bs.block_rows[k][0])
            dest = bs.rows_below[j]
            for r in bs.rows_below[k][int(bs.row_splits[k][1]):].tolist():
                for spare in (r - 1, r + 1):
                    if (
                        spare < p_of.shape[0] and p_of[spare] == p_of[r]
                        and spare not in dest
                    ):
                        found = (j, int(np.searchsorted(dest, r)), spare)
        assert found is not None
        j, at, spare = found
        broken = copy.deepcopy(bs)
        broken.rows_below[j][at] = spare
        with pytest.raises(RuntimeError, match="BMOD rows missing"):
            BlockCholesky.shell(broken)


class TestPlanCost:
    def test_warm_construction_is_per_panel_not_per_entry(self):
        """Function-call events of a warm ``BlockCholesky(structure, A)``
        scale with the panel count: a per-column or per-entry loop, however
        fast today's box, fails here."""
        p = grid2d_matrix(16)
        sf = symbolic_factor(p.A, order_problem(p, "nd"))
        bs = BlockStructure(BlockPartition(sf, 8))
        BlockCholesky(bs, sf.A)  # compiles the plan and the scatter map
        events = [0]

        def count(frame, event, arg):
            if event in ("call", "c_call"):
                events[0] += 1

        sys.setprofile(count)
        try:
            BlockCholesky(bs, sf.A)
        finally:
            sys.setprofile(None)
        assert events[0] <= 8 * bs.npanels + 64, events[0]
        assert events[0] < sf.A.shape[0] < sf.A.nnz

    def test_flat_offsets_are_compiled_and_stay_home(self):
        """``slab_flat`` is, per row of K at or below block J, the row of
        panel J's slab it lands in (found from the global row numbers)
        scaled by the slab's width, platform-index typed; like the rest of
        the plan it never enters the structure's pickle."""
        p = grid2d_matrix(9)
        sf = symbolic_factor(p.A, order_problem(p, "nd"))
        bs = BlockStructure(variable_partition(sf, 6))
        before = pickle.dumps(bs)
        plan = bs.numeric_plan()
        assert pickle.dumps(bs) == before
        assert plan.slab_flat.dtype == np.intp
        assert plan.slab_flat.shape == plan.rel.shape
        ptr, widths = bs.partition.panel_ptr, bs.partition.widths
        for k, windows in enumerate(plan.rel_of):
            end = plan.slabs[k][0] + bs.rows_below[k].shape[0]
            for j, (base, _cols, _span) in windows.items():
                lo = plan.spans[k][j][0]
                rows = bs.rows_below[k][lo - plan.slabs[k][0] :]
                slab_row = np.where(
                    rows < ptr[j + 1], rows - ptr[j],
                    int(widths[j]) + np.searchsorted(bs.rows_below[j], rows),
                )
                assert np.array_equal(
                    plan.slab_flat[base + lo : base + end],
                    slab_row * int(widths[j]),
                )

    def test_plan_is_compiled_once_per_structure(self, grid12_pipeline):
        _, sf, _, bs, *_ = grid12_pipeline
        first = BlockCholesky(bs, sf.A)
        assert BlockCholesky(bs, sf.A)._plan is first._plan
        assert BlockCholesky.shell(bs)._plan is bs.numeric_plan()

    def test_shell_is_allocated_and_empty(self, grid12_pipeline):
        _, sf, _, bs, *_ = grid12_pipeline
        shell = BlockCholesky.shell(bs)
        ref = BlockCholesky(bs, sf.A)
        for k in range(bs.npanels):
            assert shell.diag[k].shape == ref.diag[k].shape
            assert not shell.diag[k].any()
            for i, B in ref.below[k].items():
                assert shell.below[k][i].shape == B.shape
                assert not shell.below[k][i].any()

    def test_shell_over_a_filled_store_is_the_finished_factor(
        self, grid12_pipeline
    ):
        """A packed store holding a factor is adopted as one: factored,
        ``to_csc`` bitwise the reference, read off the store, into which
        an installed block is copied."""
        _, sf, _, bs, *_ = grid12_pipeline
        ref = BlockCholesky(bs, sf.A).factor()
        plan = bs.numeric_plan()
        store = np.empty(plan.size)
        for k, ((w, start, stop), span) in enumerate(
            zip(plan.slabs, plan.spans)
        ):
            store[start:stop] = np.concatenate(
                [ref.diag[k], *(ref.below[k][i] for i in span)]
            ).ravel()
        got = BlockCholesky.shell(bs, store)
        assert got._factored.all() and got.store is store
        L, R = got.to_csc(), ref.to_csc()
        assert np.array_equal(L.data, R.data)
        assert np.array_equal(L.indices, R.indices)
        assert not np.shares_memory(L.data, store)
        i = next(iter(got.below[0]))
        got.install(i, 0, 2.0 * ref.below[0][i])
        changed = got.to_csc().data != R.data
        assert changed.sum() == np.count_nonzero(ref.below[0][i])
        with pytest.raises(ValueError, match="store size"):
            BlockCholesky.shell(bs, store[:-1])

    def test_to_csc_follows_in_place_updates_and_replacements(
        self, grid12_pipeline
    ):
        """``to_csc`` before, halfway through and after a factorization
        equals the block-by-block oracle each time."""
        _, sf, _, bs, *_ = grid12_pipeline
        chol = BlockCholesky(bs, sf.A)
        assert np.array_equal(chol.to_csc().data, oracle_to_csc(chol).data)
        chol.pfac(0)
        brows = list(chol.below[0])
        chol.pmod(0, brows[0], slice(*chol._plan.spans[0][brows[0]]))
        assert np.array_equal(chol.to_csc().data, oracle_to_csc(chol).data)
