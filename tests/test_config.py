"""`RunConfig`: every knob declared, defaulted, validated and digested in
one module, and held whole by every layer. Spawns no process."""

import argparse
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
from repro.ordering import ORDERINGS
from repro.service import FactorService, ServiceClient
from repro.service.cache import pattern_digest
from repro.solver import SparseCholesky

FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

#: The defaults every façade had before there was a RunConfig.
PARENT_DEFAULTS = dict(
    ordering="auto", block_size=48, nprocs=4,
    mapping="DW/CY", transport="auto", schedule="static", trace=False,
    timeout_s=300.0, max_restarts=2,
)

#: Fields no caller set, now the constants every run used: owners without
#: domains, clamps from ``block_size``, the ``(round, rank)`` victim hash,
#: ``worker.STALL_S``, and §3.2's one panel rule.
RETIRED = ("use_domains", "steal_seed", "min_width", "max_width",
           "stall_timeout_s", "block_policy")

#: Values each retired field once had to refuse: now refused by name.
RETIRED_VALUES = dict(
    min_width=[1.5, "8"],
    max_width=[2.5],
    use_domains=["False", 1],
    steal_seed=[1.5, "x"],
    stall_timeout_s=[-0.1, None],
    block_policy=["uniform", "supernodal"],
)

#: One valid non-default value per field. A new field without an entry
#: fails `test_every_field_is_classified`.
OTHER = dict(
    ordering="nd", block_size=16, nprocs=3,
    mapping="ID/CY", transport="inline", schedule="dynamic", trace=True,
    timeout_s=60.0, max_restarts=1,
)

#: Values `__post_init__` must refuse, per field.
INVALID = dict(
    ordering=[np.eye(2), [0.5, 1.5]],
    block_size=[0, -1, 2.5, "48"],
    nprocs=[0, -2, 1.5, None],
    mapping=["XX/YY", "DW/ZZ", "CYCLIC", ""],
    transport=["bogus", None],
    schedule=["both", "Static"],
    trace=[-5, 16, None, "True"],
    timeout_s=[-1.0, None, "300", float("nan")],
    max_restarts=[-1, 0.5],
)

#: The misconfigurations ISSUE 17 names: accepted by a constructor at the
#: parent commit, failing later (`factor()` / every submitted job).
NAMED = [
    dict(nprocs=0),
    dict(transport="bogus"),
    dict(mapping="XX/YY"),
    dict(trace=-5),
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
        assert set(RETIRED_VALUES) == set(RETIRED)

    @pytest.mark.parametrize(
        "name,value",
        [(n, v) for n, values in INVALID.items() for v in values],
    )
    def test_invalid_value_is_a_value_error(self, name, value):
        with pytest.raises(ValueError):
            RunConfig(**{name: value})
        assert _no_children()

    @pytest.mark.parametrize(
        "name,value",
        [(n, v) for n, values in RETIRED_VALUES.items() for v in values],
    )
    def test_retired_field_is_a_type_error(self, A, name, value):
        """Every façade refuses a retired name as an unknown keyword,
        whatever its value, before any analysis, pool or process."""
        from repro.runtime import run_mp_fanout

        with pytest.raises(TypeError):
            RunConfig(**{name: value})
        with pytest.raises(TypeError):
            SparseCholesky(A, backend="mp", **{name: value})
        with pytest.raises(TypeError):
            FactorService(**{name: value})
        with pytest.raises(TypeError):
            run_mp_fanout(None, A, None, nprocs=2, **{name: value})
        assert name not in FIELDS
        assert _no_children()

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

    @pytest.mark.parametrize("name", ["rcm", "bogus"])
    def test_unknown_ordering_rejects_before_analysis(
        self, A, name, monkeypatch
    ):
        """An ordering name outside ``ORDERINGS`` — the one tuple
        ``resolve_ordering`` dispatches on and ``--ordering`` offers — is a
        ``ValueError`` from ``RunConfig``, the façade and the service
        constructor, before any analysis or pool."""
        def ran(*a, **k):
            raise AssertionError("analysis or pool ran")

        monkeypatch.setattr("repro.solver.resolve_ordering", ran)
        monkeypatch.setattr("repro.service.service.WorkerPool", ran)
        assert FIELDS["ordering"].metadata["cli"]["choices"] is ORDERINGS
        assert name not in ORDERINGS
        for build in (RunConfig, FactorService,
                      lambda **k: SparseCholesky(A, backend="mp", **k)):
            with pytest.raises(ValueError, match=name):
                build(ordering=name)
        assert _no_children()

    @pytest.mark.parametrize("knob", [
        dict(cache_capacity=0),
        dict(cache_capacity=-3),
        *(pytest.param({k: v}, id=f"{k}={v}") for k, v in (
            ("queue_capacity", 2.5), ("cache_capacity", 2.5),
        )),
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

    def test_nan_budget_is_refused_before_anything_is_queued(
        self, A, monkeypatch
    ):
        """A NaN admission ``timeout`` would spin on a full queue, never
        running out: ``submit`` refuses it on the calling thread, before
        the job is counted."""
        from repro.runtime.pool import JobOutcome

        svc = FactorService(max_restarts=0)
        monkeypatch.setattr(svc.pool, "start", lambda: svc.pool)
        monkeypatch.setattr(svc.pool, "run", lambda job, timeout_s: (
            JobOutcome(job.seq, error="refused", aborted=True)
        ))
        try:  # no crew: the factor is the sequential last resort
            svc.factor(A)
            queued = svc.metrics.submitted
            for bad in (float("nan"), -1.0):
                with pytest.raises(ValueError, match="timeout"):
                    svc.submit(A, timeout=bad)
            assert svc.metrics.submitted == queued
        finally:
            svc.close()
        assert _no_children()

    @pytest.mark.parametrize("argv", [
        ["serve", "-p", "0"],
        ["serve", "--transport", "bogus"],
        ["serve", "--mapping", "XX/YY"],
        ["serve", "--block-size", "0"],
        ["serve", "--max-restarts", "-1"],
        ["serve", "--schedule", "both"],
        ["info", "GRID150", "--block-size", "0"],
        ["serve", "--steal-seed", "3"],
        ["simulate", "GRID150", "--scale", "small", "-P", "0"],
        ["analyze", "GRID150", "--scale", "small", "-P", "-3"],
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

    def test_facade_defaults(self, A, monkeypatch):
        from repro.runtime.pool import JobOutcome

        assert SparseCholesky(A).config == RunConfig()
        svc = FactorService()
        # No crew: every attempt fails at once, so a job spends its whole
        # budget of parallel attempts before the sequential last resort.
        runs = []
        monkeypatch.setattr(svc.pool, "start", lambda: svc.pool)
        monkeypatch.setattr(svc.pool, "run", lambda job, timeout_s: (
            runs.append(job.seq)
            or JobOutcome(job.seq, error="refused", aborted=True)
        ))
        try:
            assert svc.config == RunConfig(nprocs=2)
            assert svc.nprocs == 2 and svc.config.timeout_s == 300.0
            record = svc.factor(A).record
            assert (record.outcome, record.attempts) == (
                "degraded_sequential", svc.config.max_restarts + 1
            )
            assert len(runs) == 3
        finally:
            svc.close()
        assert _no_children()


# ----------------------------------------------------------------------
# (d) command line
# ----------------------------------------------------------------------
SUBCOMMANDS = {
    "serve": ["serve"],
}

#: Per-subcommand defaults that differ from the field's own.
CLI_DEFAULTS = {
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

    def test_every_cli_spelling_is_declared_by_a_command(self):
        """A field's ``flags`` are dead metadata unless some subcommand
        declares the field: a retired command takes its spellings along."""
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        declared = {
            name for p in sub.choices.values()
            for name in p.get_default("config_fields") or ()
        }
        spelled = {n for n, f in FIELDS.items() if f.metadata["flags"]}
        assert spelled == declared

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
LOCAL = {"schedule", *RETIRED}

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
    from repro.service.cache import PatternEntry

    assert not hasattr(FactorService, "_knobs")
    assert not hasattr(repro.cli, "_service_from_args")
    names = lambda cls: {f.name for f in dataclasses.fields(cls)}
    assert not names(PatternEntry) & {"schedule", "steal_seed", "block_policy"}
    assert not names(PatternContext) & {"schedule", "steal_seed"}
    assert not names(PoolJob) & LOCAL
    for cls in (PatternEntry, PatternContext):
        assert names(cls) >= {"config"}


#: The runtime's whole per-call surface and the service's own keywords,
#: spelled out: a deleted option (ready-queue priorities,
#: ``inject_failure``, ``record_timeline``, ``unpack(verify=)``, the
#: arena barrier's ``wait_for`` / ``announce``, the batching window's
#: ``max_batch`` / ``batch_wait_s``, the service's dispatch-index
#: ``fault_plan`` / ``fault_jobs``, the ``recovery`` knob, resuming
#: from a ``checkpoint``, the client's ``retry`` policy, caller-chosen
#: ``job_id``s and per-job deadlines) cannot come back without this
#: table changing.
SURFACE = {
    "run_mp_fanout": {
        "structure", "A", "tg", "owners", "nprocs", "config", "mapping",
        "rhs", "fault_plan", "overrides",
    },
    "PoolJob": {
        "seq", "pattern_id", "values", "context", "trace_capacity",
        "fault_plan", "kind", "rhs",
    },
    "PatternContext": {
        "pattern_id", "structure", "tg", "owners", "indptr", "indices",
        "arena_name", "config",
    },
    "WorkerPool": {"nprocs"},
    "Worker": {
        "rank", "context", "job", "arena", "fabric", "result_queue", "epoch",
    },
    "ReadyScheduler": set(),
    "unpack": {"frame", "copy"},
    "FactorService": {
        "config", "overrides", "queue_capacity", "cache_capacity", "validate",
    },
    "SparseCholesky": {"A", "config", "backend", "fault_plan", "overrides"},
    "ServiceClient": {"address", "timeout"},
    # The service names every job: no caller-chosen job id.
    "FactorService.submit": {
        "A", "pattern_id", "values", "timeout", "fault_plan",
    },
    "FactorService.solve": {"b", "pattern_id", "fault_plan"},
    "ServiceClient.factor": {"A", "pattern_id", "values", "timeout"},
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
            obj = obj.__init__
        return set(inspect.signature(obj).parameters) - {"self"}

    found = {
        obj.__qualname__.removesuffix(".__init__"): keywords(obj)
        for obj in (run_mp_fanout, PoolJob, PatternContext, WorkerPool,
                    Worker, ReadyScheduler, wire.unpack, FactorService,
                    SparseCholesky, ServiceClient, FactorService.submit,
                    FactorService.solve, ServiceClient.factor)
    }
    assert found == SURFACE
    assert SparseCholesky.BACKENDS == ("sequential", "mp")


def test_retired_entry_points_stay_gone():
    """An in-process service is called directly, a fault plan is built in
    Python, and a trace is read through ``events`` / ``per_worker``. A
    fault-tolerant factor is ``SparseCholesky(backend="mp")``, whose
    unfactored ``solve`` factors and then solves on the driver; the
    measurement path is ``run_mp_fanout``; the recovery loop has one
    crew-shrink rule; the renegotiation backoff is the worker's; and
    ``validate_runtime`` checks a run it is given."""
    import repro.runtime.recovery as recovery
    from repro.runtime.faults import FaultPlan
    from repro.runtime.trace import RunTrace

    for name in ("to_dict", "from_dict", "to_json", "from_json"):
        assert not hasattr(FaultPlan, name), name
    assert not hasattr(RunTrace, "select")
    for name in ("run_with_recovery", "mp_block_cholesky"):
        assert not hasattr(repro.runtime, name), name
        assert name not in repro.runtime.__all__, name
    for name in ("RecoveryPolicy", "run_on_temporary_pool",
                 "run_with_recovery"):
        assert not hasattr(recovery, name), name
    assert not hasattr(SparseCholesky, "_solve_distributed")
    assert "rhs" not in inspect.signature(SparseCholesky._run_mp).parameters
    for name in ("renegotiate_base_s", "renegotiate_cap_s",
                 "max_renegotiations"):
        assert name not in FIELDS, name
    # One recovery rule: no in-run repair, no checkpoint, no knob.
    from repro.runtime import pool, wire, worker

    params = inspect.signature(recovery.run_job).parameters
    assert not {"recovery", "checkpoint"} & set(params)
    assert not hasattr(pool, "DEAD_GRACE_S")
    assert not hasattr(wire, "NACK") and not hasattr(wire, "pack_nack")
    for name in ("RETRANSMIT_LIMIT", "RENEGOTIATE_BASE_S",
                 "RENEGOTIATE_CAP_S", "MAX_RENEGOTIATIONS"):
        assert not hasattr(worker, name), name
    result = inspect.signature(repro.runtime.validate_runtime).parameters[
        "result"
    ]
    assert result.default is inspect.Parameter.empty
    # One submit, one run: no retry policy, no job-id dedup table, and the
    # service's one admission ledger is its metrics.
    from repro.service import admission, service

    assert not hasattr(repro.service, "RetryPolicy")
    assert "RetryPolicy" not in repro.service.__all__
    assert not hasattr(service, "DEDUP_CAPACITY")
    assert not hasattr(admission.JobQueue(), "stats")
    # A caller's timeout is the one bound on its wait: no per-job deadline.
    assert not hasattr(repro.service, "DeadlineExceeded")
    assert "DeadlineExceeded" not in repro.service.__all__
    assert "deadline" not in params
    # One failure policy per job: the recovery loop's, with no breaker.
    assert not hasattr(repro.service, "CircuitBreaker")
    assert "CircuitBreaker" not in repro.service.__all__
    assert "settled" not in params
    # One panel rule, §3.2's: no block policy, no supernodal partition.
    from repro import blocks
    from repro.symbolic import symbolic_factor

    with pytest.raises(TypeError):
        RunConfig(block_policy="uniform")
    with pytest.raises(SystemExit) as info:
        main(["serve", "--block-policy", "uniform"])
    assert info.value.code == 2
    for name in ("SupernodalPartition", "BLOCK_POLICIES"):
        assert not hasattr(blocks, name), name
    sf = symbolic_factor(grid2d_matrix(4).A, None)
    with pytest.raises(ValueError, match="block_policy"):
        blocks.make_partition(sf, "supernodal")


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
