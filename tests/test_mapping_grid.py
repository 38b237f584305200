import math

import pytest

from repro.mapping import ProcessorGrid, best_grid, square_grid


class TestProcessorGrid:
    def test_rank_coords_roundtrip(self):
        g = ProcessorGrid(3, 5)
        for r in range(3):
            for c in range(5):
                assert g.coords(g.rank(r, c)) == (r, c)

    def test_P(self):
        assert ProcessorGrid(4, 7).P == 28

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ProcessorGrid(0, 3)

    def test_is_square(self):
        assert ProcessorGrid(4, 4).is_square
        assert not ProcessorGrid(4, 5).is_square


class TestSquareGrid:
    def test_64(self):
        g = square_grid(64)
        assert (g.Pr, g.Pc) == (8, 8)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            square_grid(63)


class TestBestGrid:
    def test_63_is_7x9(self):
        g = best_grid(63)
        assert {g.Pr, g.Pc} == {7, 9}
        assert math.gcd(g.Pr, g.Pc) == 1  # relatively prime (paper §4.2)

    def test_99_is_9x11(self):
        g = best_grid(99)
        assert {g.Pr, g.Pc} == {9, 11}

    def test_perfect_square(self):
        g = best_grid(100)
        assert (g.Pr, g.Pc) == (10, 10)

    def test_prime(self):
        g = best_grid(13)
        assert (g.Pr, g.Pc) == (1, 13)

    @pytest.mark.parametrize("P", [0, -3])
    def test_rejects_fewer_than_one_processor(self, P):
        """A ``ValueError`` naming ``P``, not the arithmetic error of a
        division by zero or of ``isqrt`` on a negative number."""
        with pytest.raises(ValueError, match="P must be"):
            best_grid(P)
