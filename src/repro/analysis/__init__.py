"""Analysis tools: critical paths and communication volumes.

These implement the diagnostics of §5: the critical-path bound that shows
there is concurrency left after the remapping heuristics are applied, and
the static communication-volume accounting used to evaluate
subtree-to-subcube mappings.
"""

from repro.analysis.blocking import (
    arena_padding_stats,
    blocking_report,
    dgemm_tile_stats,
)
from repro.analysis.critical_path import critical_path
from repro.analysis.comm_volume import (
    communication_volume,
    solve_communication_volume,
)
from repro.analysis.memory import memory_usage
from repro.analysis.model_check import ModelCheck, check_models
from repro.analysis.trace_replay import (
    REPLAYED,
    TraceValidationError,
    TraceValidationReport,
    replay_trace,
    validate_trace,
)
from repro.analysis.tree_stats import tree_statistics, work_by_depth

__all__ = [
    "arena_padding_stats",
    "blocking_report",
    "dgemm_tile_stats",
    "critical_path",
    "communication_volume",
    "solve_communication_volume",
    "memory_usage",
    "ModelCheck",
    "check_models",
    "REPLAYED",
    "TraceValidationError",
    "TraceValidationReport",
    "replay_trace",
    "validate_trace",
    "tree_statistics",
    "work_by_depth",
]
