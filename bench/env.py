"""Environment and noise guard. Import (and call :func:`pin_blas_threads`)
before numpy is imported anywhere in the process.

With default BLAS threading two workers x two OpenBLAS threads fight for two
cores, so every benchmark process runs one BLAS thread; worker processes
inherit the setting through the environment.
"""

from __future__ import annotations

import os
import signal
import sys
import time

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)
MIN_CPUS = 2
SHM_DIR = "/dev/shm"


def pin_blas_threads() -> dict:
    """Set one BLAS thread per process; returns the recorded settings.

    Raises when numpy was imported before the variables were pinned, since
    the BLAS thread pool is sized at import time.
    """
    pinned = all(os.environ.get(v) == "1" for v in BLAS_THREAD_VARS)
    if not pinned and "numpy" in sys.modules:
        raise RuntimeError(
            "bench.env.pin_blas_threads() must run before numpy is imported"
        )
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def affinity_cpus() -> int:
    """CPUs this process may run on (what the workers will share)."""
    return len(os.sched_getaffinity(0))


def require_cpus(minimum: int = MIN_CPUS) -> int:
    """Abort with a clear message on an oversubscribed box."""
    ncpu = affinity_cpus()
    if ncpu < minimum:
        raise SystemExit(
            f"bench: {ncpu} affinity-visible CPU(s), need {minimum}: the "
            "P=2 paths would be oversubscribed and their wall clocks would "
            "carry no information. Widen the affinity mask (taskset) or "
            "use a larger box."
        )
    return ncpu


def shm_segments() -> set:
    """Names currently present under /dev/shm (empty set when absent)."""
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def leaked_segments(before: set) -> list:
    """Segments that appeared since ``before`` and are still there."""
    return sorted(shm_segments() - before)


def group_members(pgid: int) -> list:
    """``(pid, command line)`` of every live process in group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # Fields after the parenthesised command: state ppid pgrp.
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[2]) != pgid or fields[0] == "Z":
                continue
            with open(f"/proc/{entry}/cmdline") as fh:
                cmdline = fh.read().replace("\0", " ").strip()
        except (OSError, IndexError, ValueError):
            continue  # the process went away while we looked
        members.append((int(entry), cmdline))
    return members


def reap_process_group(pgid: int, grace_s: float = 3.0) -> list:
    """Processes of a finished child's group that are still alive after
    ``grace_s`` (multiprocessing's resource tracker needs a moment to see
    its pipe close). Survivors are orphan workers: they are killed so the
    next workload starts clean, and returned so the caller can fail."""
    deadline = time.monotonic() + grace_s
    members = group_members(pgid)
    while members and time.monotonic() < deadline:
        time.sleep(0.05)
        members = group_members(pgid)
    if members:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return members


def peak_rss_mb() -> float:
    """Max of this process's and its reaped children's peak RSS, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0
