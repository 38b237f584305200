"""Real message-passing block fan-out runtime.

Where :mod:`repro.fanout.simulator` *predicts* how the block fan-out method
behaves on a message-passing machine, this package *executes* it: N worker
processes each own the blocks a :class:`~repro.mapping.base.BlockMap`
assigns to them, run BFAC/BDIV/BMOD locally per §2.3's protocol, and fan
completed blocks out as serialized messages over per-link channels. The
metrics layer records per-worker busy/idle/comm seconds and per-link
traffic, so the paper's remapping heuristics can be judged on measured
wall-clock load distribution, and the validation harness pins the runtime
against the sequential factorization, the static communication-volume
predictor, and the work model.

Layers: :mod:`~repro.runtime.wire` (block serialization, CRC32 integrity),
:mod:`~repro.runtime.arena` (the shared-memory factor store every rank
factors in place),
:mod:`~repro.runtime.links` (the interconnect stand-in, frame coalescing),
:mod:`~repro.runtime.scheduler` (per-worker ready queues),
:mod:`~repro.runtime.worker` (the event loop),
:mod:`~repro.runtime.pool` (the one process lifecycle: spawn, dispatch,
collect, reap — for one call, a façade instance or :mod:`repro.service`),
:mod:`~repro.runtime.engine` (the pattern plan every job is built from,
the one-call driver and the outcome-to-result step),
:mod:`~repro.runtime.faults` (deterministic chaos injection),
:mod:`~repro.runtime.recovery` (abort, re-run + sequential fallback),
:mod:`~repro.runtime.trace` (always-available structured event tracing),
:mod:`~repro.runtime.metrics` and :mod:`~repro.runtime.validation`.
"""

from repro.runtime.arena import (
    TRANSPORTS,
    BlockArena,
    resolve_transport,
    shm_available,
)
from repro.runtime.engine import (
    DeadWorkerError,
    FanoutError,
    MPRuntimeResult,
    RuntimeTimeoutError,
    WorkerError,
    plan_owners,
    run_mp_fanout,
)
from repro.runtime.faults import (
    FAULT_CLASSES,
    CrashSpec,
    FaultInjector,
    FaultPlan,
    FaultyLink,
)
from repro.runtime.links import Link, LinkFabric
from repro.runtime.metrics import RuntimeMetrics, WorkerMetrics
from repro.runtime.pool import (
    JobOutcome,
    PatternContext,
    PoolJob,
    WorkerPool,
)
from repro.runtime.recovery import (
    FailedAttempt,
    FailureReport,
)
from repro.runtime.scheduler import ReadyScheduler
from repro.runtime.trace import (
    RunTrace,
    TraceEvent,
    TraceRecorder,
    WorkerTrace,
)
from repro.runtime.validation import (
    ValidationError,
    ValidationReport,
    validate_runtime,
)
from repro.runtime.wire import CorruptFrameError, WireError
from repro.runtime.worker import Worker, WorkerResult

__all__ = [
    "TRANSPORTS",
    "BlockArena",
    "resolve_transport",
    "shm_available",
    "DeadWorkerError",
    "FanoutError",
    "MPRuntimeResult",
    "RuntimeTimeoutError",
    "WorkerError",
    "plan_owners",
    "run_mp_fanout",
    "FAULT_CLASSES",
    "CrashSpec",
    "FaultInjector",
    "FaultPlan",
    "FaultyLink",
    "Link",
    "LinkFabric",
    "RuntimeMetrics",
    "WorkerMetrics",
    "FailedAttempt",
    "FailureReport",
    "ReadyScheduler",
    "RunTrace",
    "TraceEvent",
    "TraceRecorder",
    "WorkerTrace",
    "ValidationError",
    "ValidationReport",
    "validate_runtime",
    "CorruptFrameError",
    "WireError",
    "Worker",
    "WorkerResult",
    "JobOutcome",
    "PatternContext",
    "PoolJob",
    "WorkerPool",
]
