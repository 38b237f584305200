"""Processor grid geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ProcessorGrid:
    """A ``Pr x Pc`` logical grid of processors.

    Processor (r, c) has linear rank ``r * Pc + c``. The physical
    interconnect topology is irrelevant to the mapping question (§1), so the
    grid is purely logical.
    """

    Pr: int
    Pc: int

    def __post_init__(self) -> None:
        if self.Pr < 1 or self.Pc < 1:
            raise ValueError("grid dimensions must be positive")

    @property
    def P(self) -> int:
        return self.Pr * self.Pc

    @property
    def is_square(self) -> bool:
        return self.Pr == self.Pc

    def rank(self, r: int, c: int) -> int:
        return r * self.Pc + c

    def coords(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.Pc)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.Pr}x{self.Pc}"


def square_grid(P: int) -> ProcessorGrid:
    """The ``sqrt(P) x sqrt(P)`` grid; raises unless P is a perfect square.

    The paper always chooses ``Pr = Pc = sqrt(P)`` in its experiments.
    """
    s = math.isqrt(P)
    if s * s != P:
        raise ValueError(f"P={P} is not a perfect square; use best_grid")
    return ProcessorGrid(s, s)


def best_grid(P: int) -> ProcessorGrid:
    """Most-square factorization ``Pr x Pc = P`` with ``Pr <= Pc``.

    For P = 63 this yields 7 x 9 — the relatively-prime grid of §4.2, whose
    cyclic mapping scatters block diagonals over all processors.
    """
    if P < 1:
        raise ValueError(f"P must be a positive processor count, got {P!r}")
    r = math.isqrt(P)
    while P % r:
        r -= 1
    return ProcessorGrid(r, P // r)
