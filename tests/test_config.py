"""`RunConfig`: every knob declared, defaulted, validated and digested in
one module, and held whole by every layer. Spawns no process."""

import dataclasses
import importlib
import inspect
import multiprocessing as mp
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import repro.runtime
import repro.service
from repro.cli import build_parser, main
from repro.config import RunConfig
from repro.matrices import grid2d_matrix
from repro.service import FactorService, ServiceClient
from repro.service.cache import pattern_digest
from repro.solver import SparseCholesky

FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

#: The defaults every façade had before there was a RunConfig.
PARENT_DEFAULTS = dict(
    ordering="auto", block_size=48, block_policy="uniform", min_width=None,
    max_width=None, nprocs=4, mapping="DW/CY", use_domains=False,
    transport="auto", schedule="static", steal_seed=0, trace=None,
    timeout_s=300.0, stall_timeout_s=30.0, max_restarts=2,
    renegotiate_base_s=0.2, renegotiate_cap_s=2.0, max_renegotiations=8,
)

#: One valid non-default value per field. A new field without an entry
#: fails `test_every_field_is_classified`.
OTHER = dict(
    ordering="nd", block_size=16, block_policy="supernodal", min_width=8,
    max_width=64, nprocs=3, mapping="ID/CY", use_domains=True,
    transport="inline", schedule="dynamic", steal_seed=7, trace=True,
    timeout_s=60.0, stall_timeout_s=5.0, max_restarts=1,
    renegotiate_base_s=0.05, renegotiate_cap_s=0.5, max_renegotiations=6,
)

#: Values `__post_init__` must refuse, per field.
INVALID = dict(
    ordering=[np.eye(2), [0.5, 1.5]],
    block_size=[0, -1, 2.5, "48"],
    block_policy=["variable", None],
    min_width=[1.5, "8"],
    max_width=[2.5],
    nprocs=[0, -2, 1.5, None],
    mapping=["XX/YY", "DW/ZZ", "CYCLIC", ""],
    use_domains=["False", 1],
    transport=["bogus", None],
    schedule=["both", "Static"],
    steal_seed=[1.5, "x"],
    trace=[-5],
    timeout_s=[-1.0, None, "300"],
    stall_timeout_s=[-0.1, None],
    max_restarts=[-1, 0.5],
    renegotiate_base_s=[-0.2, None],
    renegotiate_cap_s=[-2.0],
    max_renegotiations=[-1, 1.5],
)

#: The misconfigurations ISSUE 17 names: accepted by a constructor at the
#: parent commit, failing later (`factor()` / every submitted job).
NAMED = [
    dict(nprocs=0),
    dict(transport="bogus"),
    dict(mapping="XX/YY"),
    dict(trace=-5),
    dict(block_policy="supernodal", min_width=64, max_width=32),
]


@pytest.fixture(scope="module")
def A():
    return grid2d_matrix(6).A.tocsc()


def _no_children():
    return mp.active_children() == []


# ----------------------------------------------------------------------
# (a) validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_every_field_is_classified(self):
        for name, f in FIELDS.items():
            assert isinstance(f.metadata.get("plan"), bool), name
            assert f.metadata.get("help"), name
        assert set(OTHER) == set(INVALID) == set(PARENT_DEFAULTS) == set(FIELDS)

    @pytest.mark.parametrize(
        "name,value",
        [(n, v) for n, values in INVALID.items() for v in values],
    )
    def test_invalid_value_is_a_value_error(self, name, value):
        with pytest.raises(ValueError):
            RunConfig(**{name: value})
        assert _no_children()

    def test_supernodal_clamps_use_the_partition_rule(self):
        with pytest.raises(ValueError, match="max_width must be >= 2"):
            RunConfig(block_policy="supernodal", min_width=64, max_width=32)
        # ignored under uniform, as make_partition ignores them
        RunConfig(block_policy="uniform", min_width=64, max_width=32)

    def test_mapping_spellings_named_map_accepts(self):
        for ok in ("cyclic", "DW/CY", "dw/cy", "ID", "in/dn", "CY/CY"):
            RunConfig(mapping=ok)

    @pytest.mark.parametrize("knobs", NAMED, ids=lambda k: ",".join(k))
    def test_solver_rejects_before_analysis(self, A, knobs, monkeypatch):
        def analysis_ran(*a, **k):
            raise AssertionError("resolve_ordering ran")

        monkeypatch.setattr("repro.solver.resolve_ordering", analysis_ran)
        with pytest.raises(ValueError):
            SparseCholesky(A, backend="mp", **knobs)
        assert _no_children()

    @pytest.mark.parametrize("knobs", NAMED, ids=lambda k: ",".join(k))
    def test_service_rejects_before_a_pool_exists(self, knobs, monkeypatch):
        def pool_built(*a, **k):
            raise AssertionError("WorkerPool created")

        monkeypatch.setattr("repro.service.service.WorkerPool", pool_built)
        with pytest.raises(ValueError):
            FactorService(**knobs)
        assert _no_children()

    @pytest.mark.parametrize("knob", [
        dict(breaker_cooldown_s=-1.0),
    ], ids=lambda k: next(iter(k)))
    def test_service_only_knobs_reject_before_a_pool_exists(
        self, knob, monkeypatch
    ):
        """No clamping: each is named in a ``ValueError`` from the
        constructor, as the config values are."""
        def pool_built(*a, **k):
            raise AssertionError("WorkerPool created")

        monkeypatch.setattr("repro.service.service.WorkerPool", pool_built)
        with pytest.raises(ValueError, match=next(iter(knob))):
            FactorService(**knob)
        assert mp.active_children() == []

    @pytest.mark.parametrize("argv", [
        ["bench-real", "GRID150", "-p", "0"],
        ["bench-real", "GRID150", "--transport", "bogus"],
        ["bench-real", "GRID150", "--mappings", "cyclic,XX/YY"],
        ["serve", "-p", "0"],
        ["serve", "--transport", "bogus"],
        ["serve", "--mapping", "XX/YY"],
        ["chaos-service", "--stall-timeout", "-1"],
    ])
    def test_cli_rejects_with_exit_code_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert _no_children()

    def test_overrides_replace_and_unknown_keyword_is_a_type_error(self, A):
        base = RunConfig(nprocs=3, schedule="dynamic")
        chol = SparseCholesky(A, base, block_size=8)
        assert chol.config == dataclasses.replace(base, block_size=8)
        assert RunConfig.of(base) is base
        with pytest.raises(TypeError):
            SparseCholesky(A, blocksize=8)
        with pytest.raises(TypeError):
            FactorService(nproc=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.nprocs = 2


# ----------------------------------------------------------------------
# (b) the digest
# ----------------------------------------------------------------------
class TestPlanKey:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_plan_fields_and_only_they_move_the_digest(self, A, name):
        base = RunConfig()
        other = dataclasses.replace(base, **{name: OTHER[name]})
        assert other != base
        moved = pattern_digest(A, other.plan_key()) != pattern_digest(
            A, base.plan_key()
        )
        assert moved == FIELDS[name].metadata["plan"]

    def test_explicit_permutation_enters_by_its_bytes(self, A):
        """`repr` of a long ndarray elides its middle; two permutations
        that differ only there must not share a pattern id."""
        p = np.arange(5000)
        q = p.copy()
        q[2500], q[2501] = q[2501], q[2500]
        assert repr(p) == repr(q)
        a, b = RunConfig(ordering=p), RunConfig(ordering=q)
        assert pattern_digest(A, a.plan_key()) != pattern_digest(
            A, b.plan_key()
        )
        assert a != b and a == RunConfig(ordering=p.tolist())
        assert hash(a) == hash(RunConfig(ordering=p))
        assert len(repr(a.plan_key())) < 1000

    def test_the_service_digests_its_plan_key(self, A):
        svc = FactorService(block_size=8)
        try:
            assert svc.config.plan_key() == RunConfig(
                nprocs=2, block_size=8
            ).plan_key()
        finally:
            svc.close()


# ----------------------------------------------------------------------
# (c) defaults
# ----------------------------------------------------------------------
class TestDefaults:
    def test_runconfig_defaults_are_the_parents(self):
        assert dataclasses.asdict(RunConfig()) == PARENT_DEFAULTS

    def test_facade_defaults(self, A):
        assert SparseCholesky(A).config == RunConfig()
        svc = FactorService()
        try:
            assert svc.config == RunConfig(nprocs=2)
            assert svc.nprocs == 2 and svc.config.timeout_s == 300.0
            assert svc.policy.attempts == svc.config.max_restarts + 1 == 3
        finally:
            svc.close()
        assert _no_children()


# ----------------------------------------------------------------------
# (d) command line
# ----------------------------------------------------------------------
SUBCOMMANDS = {
    "bench-real": ["bench-real", "GRID150"],
    "chaos": ["chaos", "GRID150"],
    "chaos-service": ["chaos-service"],
    "serve": ["serve"],
}

#: Per-subcommand defaults that differ from the field's own.
CLI_DEFAULTS = {
    "bench-real": dict(nprocs=4, timeout_s=300.0, stall_timeout_s=30.0),
    "chaos": dict(timeout_s=120.0, stall_timeout_s=15.0, max_restarts=2),
    "chaos-service": dict(
        nprocs=2, block_size=16, timeout_s=120.0, stall_timeout_s=10.0
    ),
    "serve": dict(nprocs=2, block_size=48, max_restarts=2),
}


class TestCommandLine:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_flags_round_trip_every_declared_field(self, command):
        parser = build_parser()
        base = SUBCOMMANDS[command]
        args = parser.parse_args(base)
        declared = args.config_fields
        assert len(declared) >= 6 and len(set(declared)) == len(declared)
        cfg = RunConfig.from_args(args)
        for name, value in CLI_DEFAULTS[command].items():
            assert getattr(cfg, name) == value, name
        for name in declared:
            flag = FIELDS[name].metadata["flags"][-1]
            value = OTHER[name]
            extra = [flag] if value is True else [flag, str(value)]
            got = RunConfig.from_args(parser.parse_args(base + extra))
            assert getattr(got, name) == value, (command, name)
            assert got == dataclasses.replace(cfg, **{name: value})

    def test_help_lists_every_flag_the_cli_tests_use(self, capsys):
        source = pathlib.Path(__file__).with_name("test_cli.py").read_text()
        used: dict[str, set] = {}
        for call in re.findall(r"main\(\[(.*?)\]\)", source, re.S):
            tokens = re.findall(r'"([^"]+)"', call)
            used.setdefault(tokens[0], set()).update(
                t for t in tokens[1:] if t.startswith("-")
            )
        assert used
        for command, flags in used.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, (command, flag)


# ----------------------------------------------------------------------
# (e) locality: nobody else declares these knobs
# ----------------------------------------------------------------------
LOCAL = {
    "steal_seed", "renegotiate_base_s", "renegotiate_cap_s",
    "max_renegotiations", "min_width", "max_width", "stall_timeout_s",
    "schedule",
}

#: (module, qualified name, parameter/field) -> why it may stay.
EXEMPT = {
    ("repro.runtime.metrics", "RuntimeMetrics", "schedule"):
        "a label on the result, not a knob",
    ("repro.runtime.metrics", "RuntimeMetrics.__init__", "schedule"):
        "the same dataclass field, seen through its generated __init__",
}


def _modules():
    yield importlib.import_module("repro.solver")
    for pkg in (repro.runtime, repro.service):
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__, pkg.__name__ + "."):
            yield importlib.import_module(info.name)


def _declared(module):
    """(qualified name, parameter or field name) for everything `module`
    itself defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            callables = [(name, obj)]
        elif inspect.isclass(obj):
            if obj is RunConfig:
                continue
            callables = [
                (f"{name}.{m}", fn)
                for m, fn in inspect.getmembers(obj, inspect.isfunction)
            ]
            if dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield name, f.name
        else:
            continue
        for qual, fn in callables:
            for param in inspect.signature(fn).parameters:
                yield qual, param


def test_only_runconfig_declares_the_threaded_knobs():
    offenders = []
    for module in _modules():
        for qual, param in _declared(module):
            key = (module.__name__, qual, param)
            if param in LOCAL and key not in EXEMPT:
                offenders.append(key)
    assert offenders == []


def test_the_deleted_threading_is_gone():
    from repro.runtime.pool import PatternContext, PoolJob
    from repro.runtime.recovery import run_with_recovery
    from repro.service.cache import PatternEntry

    assert not hasattr(FactorService, "_knobs")
    assert not hasattr(repro.cli, "_service_from_args")
    names = lambda cls: {f.name for f in dataclasses.fields(cls)}
    assert not names(PatternEntry) & {"schedule", "steal_seed", "block_policy"}
    assert not names(PatternContext) & {"schedule", "steal_seed"}
    assert not names(PoolJob) & LOCAL
    assert "plan_cache" not in inspect.signature(run_with_recovery).parameters
    for cls in (PatternEntry, PatternContext):
        assert names(cls) >= {"config"}


#: The runtime's whole per-call surface and the service's own keywords,
#: spelled out: a deleted option (ready-queue priorities,
#: ``inject_failure``, ``record_timeline``, ``unpack(verify=)``, the
#: arena barrier's ``wait_for`` / ``announce``, the batching window's
#: ``max_batch`` / ``batch_wait_s``) cannot come back without this table
#: changing.
SURFACE = {
    "run_mp_fanout": {
        "structure", "A", "tg", "owners", "nprocs", "config", "mapping",
        "rhs", "fault_plan", "recovery", "checkpoint", "overrides",
    },
    "PoolJob": {
        "seq", "pattern_id", "values", "context", "trace_capacity",
        "deadline", "fault_plan", "kind", "rhs", "recovery", "checkpoint",
    },
    "PatternContext": {
        "pattern_id", "structure", "tg", "owners", "indptr", "indices",
        "shape", "arena_name", "config",
    },
    "WorkerPool": {"nprocs"},
    "Worker": {
        "rank", "context", "job", "arena", "fabric", "result_queue", "epoch",
    },
    "ReadyScheduler": set(),
    "unpack": {"frame", "copy"},
    "FactorService": {
        "config", "overrides", "queue_capacity",
        "cache_capacity", "validate",
        "default_deadline_s", "breaker_threshold",
        "breaker_cooldown_s", "fault_plan", "fault_jobs",
    },
    "SparseCholesky": {"A", "config", "backend", "fault_plan", "overrides"},
    "ServiceClient": {"address", "timeout", "retry"},
}


def test_the_runtime_surface_is_exactly_this():
    from repro.runtime import wire
    from repro.runtime.engine import run_mp_fanout
    from repro.runtime.pool import PatternContext, PoolJob, WorkerPool
    from repro.runtime.scheduler import ReadyScheduler
    from repro.runtime.worker import Worker

    def keywords(obj):
        if dataclasses.is_dataclass(obj):
            return {f.name for f in dataclasses.fields(obj)}
        if inspect.isclass(obj):
            return set(inspect.signature(obj.__init__).parameters) - {"self"}
        return set(inspect.signature(obj).parameters)

    found = {
        obj.__name__: keywords(obj)
        for obj in (run_mp_fanout, PoolJob, PatternContext, WorkerPool,
                    Worker, ReadyScheduler, wire.unpack, FactorService,
                    SparseCholesky, ServiceClient)
    }
    assert found == SURFACE
    assert SparseCholesky.BACKENDS == ("sequential", "mp")


def test_retired_entry_points_stay_gone():
    """An in-process service is called directly, a fault plan is built in
    Python, and a trace is read through ``events`` / ``per_worker``."""
    from repro.runtime.faults import FaultPlan
    from repro.runtime.trace import RunTrace

    for name in ("to_dict", "from_dict", "to_json", "from_json"):
        assert not hasattr(FaultPlan, name), name
    assert not hasattr(RunTrace, "select")


def test_worker_metrics_load_a_dump_with_a_legacy_timeline():
    from repro.runtime.metrics import WorkerMetrics

    dump = WorkerMetrics(rank=1, busy_s=2.0).to_dict()
    assert "timeline" not in dump
    dump["timeline"] = [["busy", 0.0, 2.0]]
    back = WorkerMetrics.from_dict(dump)
    assert back == WorkerMetrics(rank=1, busy_s=2.0)
    assert not hasattr(back, "timeline")


# ----------------------------------------------------------------------
# docs: the knob table is the field metadata
# ----------------------------------------------------------------------
def test_architecture_knob_table_matches_the_fields():
    doc = (
        pathlib.Path(__file__).parents[1] / "docs" / "ARCHITECTURE.md"
    ).read_text()
    rows = dict(
        re.findall(r"^\| `(\w+)` \| (.*) \|$", doc, re.M)
    )
    for name, f in FIELDS.items():
        assert name in rows, f"no row for {name}"
        default, plan, flag, help = (c.strip() for c in rows[name].split("|"))
        assert help == f.metadata["help"], name
        assert default == f"`{f.default!r}`", name
        assert plan == ("yes" if f.metadata["plan"] else "no"), name
        flags = f.metadata["flags"]
        assert flag == (f"`{flags[-1]}`" if flags else "—"), name
