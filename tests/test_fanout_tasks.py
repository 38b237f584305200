import numpy as np

from repro.fanout import TaskGraph
from repro.fanout.tasks import BDIV, BFAC, BMOD
from tests.conftest import validate_task_graph


class TestTaskGraph:
    def test_validate_passes(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        validate_task_graph(tg)

    def test_task_counts(self, grid12_pipeline):
        wm, tg = grid12_pipeline[4], grid12_pipeline[5]
        n_bfac = int((tg.task_kind == BFAC).sum())
        n_bdiv = int((tg.task_kind == BDIV).sum())
        n_bmod = int((tg.task_kind == BMOD).sum())
        assert n_bfac == tg.npanels
        assert n_bdiv == tg.nblocks - tg.npanels
        assert n_bmod == int(wm.nmod.sum())
        assert tg.ntasks == wm.total_ops

    def test_flops_match_workmodel(self, grid12_pipeline):
        wm, tg = grid12_pipeline[4], grid12_pipeline[5]
        per_block = np.bincount(
            tg.task_block, weights=tg.task_flops, minlength=tg.nblocks
        )
        assert np.array_equal(per_block.astype(np.int64), wm.flops)

    def test_bmod_sources_same_panel(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        mod = tg.task_kind == BMOD
        s1, s2 = tg.task_src1[mod], tg.task_src2[mod]
        both = s2 >= 0
        assert np.array_equal(
            tg.block_J[s1[both]], tg.block_J[s2[both]]
        )  # both sources live in panel K

    def test_bmod_dest_coordinates(self, grid12_pipeline):
        """BMOD(I,J,K): destination row = src1 row, dest col = src2 row."""
        tg = grid12_pipeline[5]
        mod = tg.task_kind == BMOD
        dest = tg.task_block[mod]
        s1 = tg.task_src1[mod]
        s2 = np.where(tg.task_src2[mod] >= 0, tg.task_src2[mod], s1)
        assert np.array_equal(tg.block_I[dest], tg.block_I[s1])
        assert np.array_equal(tg.block_J[dest], tg.block_I[s2])

    def test_dependents_csr_consistent(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        # every BMOD appears once per distinct source in the CSR
        refs = np.zeros(tg.ntasks, dtype=int)
        for b in range(tg.nblocks):
            for t in tg.dep_tasks[tg.dep_ptr[b] : tg.dep_ptr[b + 1]]:
                refs[t] += 1
        mod = tg.task_kind == BMOD
        expected = np.where(tg.task_src2 >= 0, 2, 1)
        assert np.array_equal(refs[mod], expected[mod])
        assert (refs[~mod] == 0).all()

    def test_missing_init(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        mod = tg.task_kind == BMOD
        assert (tg.task_missing_init[~mod] == 0).all()
        assert set(tg.task_missing_init[mod].tolist()) <= {1, 2}

    def test_subdiag_csr(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        for k in range(tg.npanels):
            blocks = tg.subdiag_blocks[tg.subdiag_ptr[k] : tg.subdiag_ptr[k + 1]]
            assert (tg.block_J[blocks] == k).all()
            assert (tg.block_I[blocks] > k).all()

    def test_block_words_positive(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        assert (tg.block_words > 0).all()
