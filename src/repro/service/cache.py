"""Pattern cache: symbolic analysis, owner plans, and arenas, keyed on
sparsity structure.

Two matrices with the same csc pattern (``shape``, ``indptr``,
``indices``) factor through identical symbolic machinery — ordering,
supernode partition, block structure, task graph, owner plan, arena
layout. None of it reads values: the ordering's graph is built from the
stored pattern alone (``AdjacencyGraph.from_sparse``), so a stored 0.0 is
an edge there as it is a slot of the factor. The cache stores one
:class:`PatternEntry` per distinct pattern (LRU-bounded) so
repeated-pattern traffic pays none of that setup again: a warm job ships
a values array and runs.

The digest also covers the service's plan-shaping knobs —
:meth:`repro.config.RunConfig.plan_key`, i.e. every field whose metadata
says it shapes an entry — so a service restarted with different knobs
never aliases stale entries, and plans at two block sizes for the same
pattern never collide.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.config import check_number
from repro.runtime.engine import PatternPlan


def pattern_digest(A: sparse.csc_matrix, knobs: tuple) -> str:
    """Stable id of a csc sparsity pattern under the given knobs (the
    service passes its config's ``plan_key()``)."""
    h = hashlib.sha256()
    h.update(repr(knobs).encode())
    h.update(np.asarray(A.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(A.indices, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


@dataclass
class PatternEntry(PatternPlan):
    """Everything the service keeps warm for one sparsity pattern: the
    pattern's :class:`~repro.runtime.engine.PatternPlan` (owners, arena,
    config, the context it ships, the jobs it builds) and, on top, what
    only the service needs."""

    #: :class:`~repro.symbolic.SymbolicFactor` — ordering + supernodes.
    symbolic: object = None
    #: Composed fill-reducing permutation (scipy "take" convention).
    perm: np.ndarray = None
    #: Original-pattern csc arrays — interpret values-only submissions.
    orig_indptr: np.ndarray = None
    orig_indices: np.ndarray = None
    #: Seconds of cold setup this entry cost (symbolic + plan + arena).
    setup_s: float = 0.0
    uses: int = 0
    #: Assembled :class:`~repro.numeric.BlockCholesky` of the pattern's
    #: last successful factor job — the sequential fallback (and bitwise
    #: reference) for solve requests.
    last_factor: object | None = field(default=None, repr=False)
    #: Pool generation whose resident workers still hold this pattern's
    #: factor blocks (-1 = none). Any pool restart bumps the
    #: generation, so stale residency can never be mistaken for warm.
    resident_generation: int = -1

    @property
    def shape(self) -> tuple:
        return self.symbolic.A.shape

    @property
    def nnz(self) -> int:
        """Nonzeros a values-only submission must provide."""
        return int(self.orig_indptr[-1])


class PatternCache:
    """LRU cache of :class:`PatternEntry`, with observable counters: a
    hit is a :meth:`lookup` that found its entry, a miss an entry built
    and :meth:`put`. Not thread-safe: the service's dispatcher is its only
    writer (other threads :meth:`peek`)."""

    def __init__(self, capacity: int = 8):
        self.capacity = check_number("cache_capacity", capacity, int, 1)
        self._entries: OrderedDict[str, PatternEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, pattern_id: str) -> PatternEntry | None:
        """Hit-counting lookup; refreshes LRU recency."""
        entry = self._entries.get(pattern_id)
        if entry is None:
            return None
        self.hits += 1
        entry.uses += 1
        self._entries.move_to_end(pattern_id)
        return entry

    def peek(self, pattern_id: str) -> PatternEntry | None:
        """Counter-neutral lookup (does not touch recency)."""
        return self._entries.get(pattern_id)

    def put(self, entry: PatternEntry) -> list[PatternEntry]:
        """Insert ``entry`` (a miss); evict LRU entries beyond capacity
        and return them — the caller drops worker attachments and destroys
        their arenas."""
        self.misses += 1
        self._entries[entry.pattern_id] = entry
        self._entries.move_to_end(entry.pattern_id)
        evicted = []
        while len(self._entries) > self.capacity:
            evicted.append(self._entries.popitem(last=False)[1])
            self.evictions += 1
        return evicted

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def close(self) -> None:
        """Destroy every cached arena. Idempotent."""
        for entry in self._entries.values():
            entry.destroy()
        self._entries.clear()
