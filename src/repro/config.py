"""One configuration object for every knob that crosses a layer boundary.

:class:`RunConfig` declares each knob once — default, validation, CLI
spelling, and whether it shapes a cached
:class:`~repro.service.cache.PatternEntry` — and every layer
(``SparseCholesky``, ``run_mp_fanout``, the pool's ``PatternContext``,
``FactorService``, the CLI) holds and passes the object whole. A façade
takes ``config=None, **overrides``: the overrides are applied with
:func:`dataclasses.replace`, so an unknown keyword is a ``TypeError`` and a
bad value a ``ValueError`` — at construction, before any analysis or process
spawn. Adding a knob is one field here plus the one place that reads it;
``docs/ARCHITECTURE.md`` carries the table. What no caller varies is a
constant where it is read: owners follow §2.3 (domains whole to one rank),
panels are §3.2's (every supernode cut by ``block_size``), a thief's victim
hashes ``(round, rank)``, the stall watchdog is ``worker.STALL_S``, a trace
ring its size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.mapping.heuristics import mapping_heuristics
from repro.ordering.base import ORDERINGS

#: Block payload transports (``"auto"`` resolves per run, see
#: :func:`repro.runtime.arena.resolve_transport`).
TRANSPORTS = ("auto", "shm", "inline")
#: Execution disciplines (see ``docs/SCHEDULING.md``).
SCHEDULES = ("static", "dynamic")


def check_number(name: str, value, kind, low=None):
    """``value`` as ``kind`` (bool, int or float), at least ``low``, or a
    ``ValueError`` naming ``name``: ``2.5`` is no int, ``16`` no bool, NaN
    no float. The number rule of :class:`RunConfig` and the service."""
    try:
        number = kind(value)
        ok = number == value and (low is None or number >= low)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(
            f"{name} must be {kind.__name__}"
            + ("" if low is None else f" >= {low}") + f", got {value!r}"
        )
    return number


def _knob(default, help: str, *, plan: bool = False, flags: str = "",
          kind=None, low=None, among=None, **cli):
    """One :class:`RunConfig` field. ``plan`` says whether the knob shapes
    a cached ``PatternEntry`` (and so enters :meth:`RunConfig.plan_key`);
    ``kind`` (at least ``low``, see :func:`check_number`) and ``among`` are
    checked at construction; ``flags`` + ``cli`` are its ``argparse``
    spelling (no flags: not on any command line)."""
    if kind is not None:
        cli["type"] = kind
    if among is not None:
        cli["choices"] = among
    meta = {"plan": plan, "help": help, "flags": tuple(flags.split()),
            "kind": kind, "low": low, "among": among, "cli": cli}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """Every runtime knob, validated once (``ValueError``) and immutable.

    An explicit-permutation ``ordering`` is normalised to a tuple of ints,
    so ``==`` and ``hash`` stay by value.
    """

    # -- analysis ------------------------------------------------------
    ordering: str | tuple = _knob(
        "auto", "fill-reducing ordering (auto: nested dissection on "
        "mesh-like graphs, else minimum degree); from Python also an "
        "explicit permutation",
        plan=True, flags="--ordering", choices=ORDERINGS,
    )
    block_size: int = _knob(
        48, "panel width B: every supernode is cut into near-even panels "
        "at most B wide (docs/BLOCKING.md)",
        plan=True, flags="--block-size", kind=int, low=1,
    )
    # -- placement -----------------------------------------------------
    nprocs: int = _knob(
        4, "worker process count", plan=True, flags="-p --nprocs",
        kind=int, low=1,
    )
    mapping: str = _knob(
        "DW/CY", 'block mapping: "cyclic" or a "<row>/<col>" heuristic '
        "pair over CY, DW, IN, DN, ID (column defaults to CY)",
        plan=True, flags="--mapping",
    )
    # -- execution -----------------------------------------------------
    transport: str = _knob(
        "auto", "block payload transport: shared-memory arena with "
        "64-byte descriptors, inline frame bytes, or auto-detect",
        plan=True, flags="--transport", among=TRANSPORTS,
    )
    schedule: str = _knob(
        "static", "execution schedule: the static owner-computes map or "
        "dynamic work stealing (docs/SCHEDULING.md)",
        plan=True, flags="--schedule", among=SCHEDULES,
    )
    trace: bool = _knob(
        False, "structured event tracing, trace.DEFAULT_CAPACITY events "
        "per worker", kind=bool,
    )
    timeout_s: float = _knob(
        300.0, "wall-clock bound in seconds on one pool job (one "
        "parallel attempt), whoever owns the pool", kind=float, low=0,
    )
    # -- recovery ------------------------------------------------------
    max_restarts: int = _knob(
        2, "restart budget before the sequential fallback, for every "
        "pool owner (max_restarts + 1 parallel attempts a job)",
        flags="--max-restarts", kind=int, low=0,
    )

    def __post_init__(self):
        put = lambda name, value: object.__setattr__(self, name, value)
        for f in fields(self):
            meta, value = f.metadata, getattr(self, f.name)
            if meta["kind"]:
                put(f.name, check_number(f.name, value, meta["kind"],
                                         meta["low"]))
            elif meta["among"] and value not in meta["among"]:
                raise ValueError(
                    f"{f.name} must be one of {meta['among']}, got {value!r}"
                )
        if not isinstance(self.ordering, (str, tuple)):
            perm = np.asarray(self.ordering)
            if perm.ndim != 1 or perm.dtype.kind not in "iu":
                raise ValueError("ordering must be a method name or a 1-D "
                                 "integer permutation")
            put("ordering", tuple(perm.tolist()))
        elif isinstance(self.ordering, str) and self.ordering not in ORDERINGS:
            raise ValueError(f"ordering must be one of {ORDERINGS} or a "
                             f"permutation, got {self.ordering!r}")
        mapping_heuristics(self.mapping)

    # ------------------------------------------------------------------
    @classmethod
    def of(cls, config: "RunConfig | None" = None, overrides=None,
           **defaults) -> "RunConfig":
        """What a façade called with ``config=None, **overrides`` runs
        under: ``config`` with the overrides applied, or — with no
        ``config`` — a fresh one over the façade's own ``defaults``."""
        if config is None:
            return cls(**{**defaults, **(overrides or {})})
        return replace(config, **overrides) if overrides else config

    @property
    def trace_capacity(self) -> int:
        """Events per worker ``trace`` asks for (0 = tracing off)."""
        from repro.runtime.trace import DEFAULT_CAPACITY

        return DEFAULT_CAPACITY if self.trace else 0

    def plan_key(self) -> tuple:
        """``(name, value)`` of every plan-shaping field — *the* knob input
        of :func:`repro.service.cache.pattern_digest`. An explicit
        permutation enters as a hash of its bytes."""
        key = {f.name: getattr(self, f.name) for f in fields(self)
               if f.metadata["plan"]}
        if isinstance(self.ordering, tuple):
            perm = np.asarray(self.ordering, dtype=np.int64)
            key["ordering"] = hashlib.sha256(perm.tobytes()).hexdigest()
        return tuple(key.items())

    # -- command line --------------------------------------------------
    @classmethod
    def add_arguments(cls, parser, *names: str, **defaults) -> None:
        """Declare the flags of the fields ``names`` on ``parser`` —
        spelling, type, choices and help come from the field metadata,
        ``defaults`` override a field's default for this parser — and
        record them for :meth:`from_args`."""
        by_name = {f.name: f for f in fields(cls)}
        for name in names:
            f = by_name[name]
            parser.add_argument(
                *f.metadata["flags"], dest=name,
                default=defaults.pop(name, f.default),
                help=f.metadata["help"], **f.metadata["cli"],
            )
        if defaults:
            raise TypeError(f"defaults for undeclared fields: {sorted(defaults)}")
        declared = parser.get_default("config_fields") or ()
        parser.set_defaults(config_fields=declared + names)

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        """The config a parsed command line asks for (the fields its
        parser declared through :meth:`add_arguments`)."""
        return cls(**{name: getattr(args, name) for name in args.config_fields})
