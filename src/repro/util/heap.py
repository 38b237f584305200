"""Pin glibc's malloc thresholds in a process that drives a worker crew.

glibc moves its mmap and trim thresholds with the blocks a process frees:
a freed mmap'd block raises the mmap threshold to its size and the trim
threshold to twice that, and whenever the free space at the top of the
heap passes the trim threshold it goes back to the kernel. A crew's driver
allocates and frees the same few multi-megabyte arrays every job (the
factor store it copies out of the shared segment, ``L``'s data and
indices, a sequential factor's store beside them), so where the thresholds
settle, and whether the next job finds its arrays' pages still mapped or
faults them in again one by one, depends on the order those frees took.
On a 2-CPU box, a ``cube3d`` sequential factor run in such a process
took ≈ 2 000–3 400 minor page faults, ≈ 15 % of its time, in the rounds
after the heap top had been trimmed, and none before: a bimodal time
whose median moved from run to run (docs/PERFORMANCE.md, "The driver's
heap").

:func:`pin_malloc_thresholds` fixes both thresholds at the ceiling glibc's
own policy moves toward (32 MB mmap, 64 MB trim), so every job reuses the
heap the previous one freed. It is a no-op off glibc.
"""

from __future__ import annotations

import ctypes

__all__ = ["pin_malloc_thresholds"]

#: ``mallopt`` parameters (``<malloc.h>``) and the values pinned: glibc's
#: ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit and the trim threshold its
#: dynamic policy pairs with it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def pin_malloc_thresholds() -> bool:
    """Pin this process's malloc thresholds (see the module doc). True
    when they are pinned, False where there is no glibc ``mallopt``.
    Setting either one turns glibc's adaptation off, so both are set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))
