"""Correctness gate: every timed op is checked, every failure is counted.

Each check returns a list of problems (empty = pass); :class:`Ledger`
counts one attempted op per call to :meth:`Ledger.op` and one failed op
when the call raised or any check found a problem. A service job that
silently degraded to the sequential path fails :func:`record_problems`, so
it can never be recorded as a fast service job.
"""

from __future__ import annotations

import sys

import numpy as np

#: Largest acceptable scaled residual.
RESIDUAL_TOL = 1e-10


def inf_norm(A) -> float:
    """Induced infinity norm of a sparse matrix (max absolute row sum)."""
    return float(abs(A).sum(axis=1).max())


def scaled_residual(A, x, b, norm_a: float | None = None) -> float:
    """``max_j ||A x_j - b_j||_inf / (||A||_inf ||x_j||_inf + ||b_j||_inf)``."""
    x = np.asarray(x).reshape(A.shape[0], -1)
    b = np.asarray(b).reshape(A.shape[0], -1)
    if norm_a is None:
        norm_a = inf_norm(A)
    r = np.abs(A @ x - b).max(axis=0)
    scale = norm_a * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
    return float((r / scale).max())


def residual_problems(A, x, b, norm_a: float | None = None) -> list:
    if x is None or not np.all(np.isfinite(x)):
        return ["solution missing or not finite"]
    res = scaled_residual(A, x, b, norm_a)
    if not res <= RESIDUAL_TOL:
        return [f"scaled residual {res:.3e} > {RESIDUAL_TOL:.0e}"]
    return []


def bitwise_problems(L, L_ref) -> list:
    """``L`` must equal the sequential factor bit for bit."""
    same = (
        L.shape == L_ref.shape
        and np.array_equal(L.indptr, L_ref.indptr)
        and np.array_equal(L.indices, L_ref.indices)
        and np.array_equal(L.data, L_ref.data)
    )
    return [] if same else ["factor differs bitwise from the sequential L"]


def record_problems(record) -> list:
    """A service job counts only if it ran clean on the first attempt."""
    if record is None:
        return ["service returned no job record"]
    get = record.get if isinstance(record, dict) else (
        lambda key: getattr(record, key, None)
    )
    problems = []
    if get("status") != "ok":
        problems.append(f"status == {get('status')!r}")
    if get("outcome") != "clean":
        problems.append(f"outcome == {get('outcome')!r}")
    if get("attempts") != 1:
        problems.append(f"attempts == {get('attempts')!r}")
    return problems


def traffic_problems(messages, nbytes, predicted) -> list:
    """Measured messages/bytes must equal the static predictor's."""
    problems = []
    if messages != predicted.messages:
        problems.append(
            f"{messages} messages measured, {predicted.messages} predicted"
        )
    if nbytes != predicted.bytes:
        problems.append(f"{nbytes} bytes measured, {predicted.bytes} predicted")
    return problems


class Ledger:
    """Counts of ops attempted and failed, with each failure's op name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def op(self, name: str, fn):
        """Run ``fn()`` as one op. ``fn`` returns ``(value, problems)``;
        an exception is a failure too. Returns ``value`` (None on raise)."""
        self.attempted += 1
        try:
            value, problems = fn()
        except Exception as exc:  # noqa: BLE001 - the gate keeps counting
            value, problems = None, [f"raised {exc!r}"]
        if problems:
            self.failed += 1
            for why in problems:
                self.failures.append(f"{name}: {why}")
                print(f"FAILED {name}: {why}", file=sys.stderr)
        return value

    def to_dict(self) -> dict:
        return {
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "failures": list(self.failures),
        }
