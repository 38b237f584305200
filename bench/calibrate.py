"""Calibration probe and "calibrated seconds".

Wall clock on a shared 2-CPU box drifts by tens of percent over a minute,
so every timed sample is bracketed by a frozen ~30 ms probe that exercises
what the solver's hot paths exercise (interpreter loop, small ``@``,
``searchsorted``, ``np.ix_`` scatter). A sample's value is
``raw * CAL_REF_S / mean(adjacent probes)``.

The probe and ``CAL_REF_S`` are frozen: changing either invalidates every
recorded baseline. This module imports nothing from ``repro``.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from bench.stats import median

#: Probe duration on the reference box when it is quiet (seconds).
CAL_REF_S = 0.030

#: Re-take a sample whose adjacent probes disagree by more than this ...
PROBE_DISAGREE = 0.25
#: ... or when either exceeds this multiple of ``CAL_REF_S``.
PROBE_SLOW = 1.5
#: A leading probe older than this is not "adjacent" any more.
PROBE_FRESH_S = 0.05

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((48, 48))
_B = _RNG.standard_normal((48, 48))
_SORTED = np.sort(_RNG.integers(0, 100_000, size=4096))
_NEEDLES = _RNG.integers(0, 100_000, size=512)
_DEST = np.zeros((96, 96))
_RIDX = np.sort(_RNG.choice(96, size=48, replace=False))
_CIDX = np.sort(_RNG.choice(96, size=48, replace=False))


def probe() -> float:
    """Run the frozen probe once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i & 7
    for _ in range(400):
        U = _A @ _B.T
        np.searchsorted(_SORTED, _NEEDLES)
        _DEST[np.ix_(_RIDX, _CIDX)] -= U
    _DEST[:] = 0.0
    return time.perf_counter() - t0


def calibrated(raw_s: float, probes: list[float]) -> float:
    """``raw_s`` in calibrated seconds given its adjacent probe times."""
    return raw_s * CAL_REF_S / (sum(probes) / len(probes))


def probes_bad(lead: float, trail: float) -> bool:
    """True when the bracketing probes say the sample ran in a noisy stretch."""
    lo, hi = min(lead, trail), max(lead, trail)
    return hi > lo * (1.0 + PROBE_DISAGREE) or hi > PROBE_SLOW * CAL_REF_S


class Sample(NamedTuple):
    """One timed call: calibrated and raw seconds plus the call's result."""

    cal_s: float
    raw_s: float
    result: object


class Calibrator:
    """Takes probe-bracketed samples and keeps the probe series.

    ``retake_budget`` bounds how many samples may be re-taken because their
    probes disagreed; the count lands in ``calib.samples_retaken``.
    """

    def __init__(self, retake_budget: int = 0):
        self.retake_budget = retake_budget
        self.samples_retaken = 0
        self.probes: list[float] = []
        self._last: float | None = None
        self._last_at = 0.0

    def probe(self) -> float:
        p = probe()
        self.probes.append(p)
        self._last = p
        self._last_at = time.perf_counter()
        return p

    def _lead(self) -> float:
        if (
            self._last is not None
            and time.perf_counter() - self._last_at < PROBE_FRESH_S
        ):
            return self._last
        return self.probe()

    def sample(self, fn, retake: bool = True) -> Sample:
        """Time ``fn()`` between two probes; re-take it (budget permitting)
        when the probes say the stretch was noisy. ``fn`` must be
        repeatable when ``retake`` is true."""
        while True:
            lead = self._lead()
            t0 = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - t0
            trail = self.probe()
            if (
                retake
                and self.samples_retaken < self.retake_budget
                and probes_bad(lead, trail)
            ):
                self.samples_retaken += 1
                continue
            return Sample(calibrated(raw, [lead, trail]), raw, result)

    # -- how much to trust this run ------------------------------------
    @property
    def slowdown(self) -> float:
        """Median probe time over ``CAL_REF_S`` (1.0 = reference speed)."""
        return median(self.probes) / CAL_REF_S

    @property
    def cv(self) -> float:
        """Coefficient of variation of the probe series."""
        arr = np.asarray(self.probes)
        return float(arr.std() / arr.mean())
