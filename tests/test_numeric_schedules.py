from repro.numeric import BlockCholesky
from tests.blockfact_oracle import (
    leftlooking_schedule,
    oracle_run_schedule,
    rightlooking_schedule,
)


def _replay(pipeline, schedule):
    """``BlockCholesky`` driven one task-graph task at a time."""
    _, sf, _, bs, _, tg = pipeline
    return oracle_run_schedule(
        BlockCholesky(bs, sf.A), tg, schedule(tg).tolist()
    )


class TestSchedules:
    def test_both_are_permutations_of_tasks(self, grid12_pipeline):
        tg = grid12_pipeline[5]
        for sched in (rightlooking_schedule(tg), leftlooking_schedule(tg)):
            assert sorted(sched.tolist()) == list(range(tg.ntasks))

    def test_rightlooking_factorizes(self, grid12_pipeline):
        sf = grid12_pipeline[1]
        L = _replay(grid12_pipeline, rightlooking_schedule).to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10

    def test_leftlooking_factorizes(self, grid12_pipeline):
        sf = grid12_pipeline[1]
        L = _replay(grid12_pipeline, leftlooking_schedule).to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10

    def test_same_arithmetic_both_directions(self, grid12_pipeline):
        """Left- and right-looking execute the identical operation set."""
        right = _replay(grid12_pipeline, rightlooking_schedule)
        left = _replay(grid12_pipeline, leftlooking_schedule)
        assert right.flops == left.flops
        assert abs(right.to_csc() - left.to_csc()).max() < 1e-12

    def test_random_matrix(self, random_spd_pipeline):
        sf = random_spd_pipeline[1]
        L = _replay(random_spd_pipeline, leftlooking_schedule).to_csc()
        assert abs(L @ L.T - sf.A).max() < 1e-10
