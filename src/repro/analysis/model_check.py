"""A run's metrics against the static models, exactly.

Both validators — :func:`repro.runtime.validation.validate_runtime` on a
run's measured :class:`~repro.runtime.metrics.RuntimeMetrics` and
:func:`repro.analysis.trace_replay.validate_trace` on the metrics a trace
replays to — make these checks through :func:`check_models`:

* each rank's migration-adjusted work
  (:attr:`~repro.runtime.metrics.RuntimeMetrics.owner_work`) equals its
  :class:`~repro.blocks.workmodel.WorkModel` owner share, integer for
  integer, and so their overall balance matches
  :func:`~repro.mapping.balance.overall_balance_from_owners`;
* the data messages and bytes equal
  :func:`~repro.analysis.comm_volume.communication_volume`;
* on a run with a solve phase, its messages and bytes, sent and received,
  equal :func:`~repro.analysis.comm_volume.solve_communication_volume`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.comm_volume import (
    communication_volume,
    solve_communication_volume,
)
from repro.mapping.balance import overall_balance, overall_balance_from_owners


@dataclass
class ModelCheck:
    """What the models predicted, and how the run's metrics fared."""

    messages_predicted: int
    bytes_predicted: int
    work_predicted: np.ndarray
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def check_models(metrics, tg, owners, nrhs: int = 1,
                 tolerance: float = 1e-9) -> ModelCheck:
    """Check ``metrics`` of a run of ``tg`` under ``owners`` against the
    static models (``nrhs`` right-hand sides in its solve phase, if any).
    The work and message checks are exact; ``tolerance`` bounds the
    balance comparison."""
    owners = np.asarray(owners)
    wm = tg.workmodel
    pred = communication_volume(tg, owners)
    work = metrics.owner_work
    out = ModelCheck(
        pred.messages, pred.bytes,
        np.bincount(owners, weights=wm.work,
                    minlength=metrics.nprocs).astype(np.int64),
    )
    checks, failures = out.checks, out.failures

    # Under work stealing a rank's *executed* work differs from its owner
    # share; executed - stolen in + shipped away must still equal it.
    if not np.array_equal(work, out.work_predicted):
        failures.append(
            "per-worker work (migration-adjusted) differs from the "
            f"WorkModel share by up to "
            f"{np.abs(work - out.work_predicted).max()}"
        )
    else:
        checks.append("per-worker work (migration-adjusted) equals the "
                      "WorkModel share")
    bal = overall_balance(work)
    bal_pred = overall_balance_from_owners(wm, owners, metrics.nprocs)
    if abs(bal - bal_pred) > tolerance:
        failures.append(f"owner-share balance {bal:.12f} != WorkModel "
                        f"prediction {bal_pred:.12f}")
    else:
        checks.append(f"owner-share balance matches the WorkModel to "
                      f"{tolerance:g}")

    msgs, nbytes = metrics.messages_total, metrics.bytes_total
    if msgs != pred.messages:
        failures.append(f"{msgs} messages sent, comm_volume predicted "
                        f"{pred.messages}")
    if nbytes != pred.bytes:
        failures.append(f"{nbytes} bytes sent, comm_volume predicted "
                        f"{pred.bytes}")
    if (msgs, nbytes) == (pred.messages, pred.bytes):
        checks.append("message counts/bytes equal comm_volume")

    if metrics.solve_tasks_total:
        # Solve frames always ship inline: logical == wire bytes.
        sv = solve_communication_volume(tg, owners, nrhs=nrhs)
        ws = metrics.workers
        sent = (metrics.solve_messages_total, metrics.solve_bytes_total)
        recv = (sum(w.solve_messages_received for w in ws),
                sum(w.solve_bytes_received for w in ws))
        if sent == recv == (sv.messages, sv.bytes):
            checks.append(
                "solve messages/bytes equal solve_communication_volume"
            )
        else:
            failures.append(
                f"solve messages/bytes {sent[0]}/{sent[1]} sent, "
                f"{recv[0]}/{recv[1]} received; "
                f"solve_communication_volume predicted "
                f"{sv.messages}/{sv.bytes}"
            )
    return out
