import io

from bench.compare import compare, is_exact, side_estimate, verdict

SPEC = {
    "end_to_end": [
        {"name": "seq_factor_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ]
}


def _run(value, failed=0, noisy=False, rss=100.0):
    return {
        "commit": "abc", "seed": 1,
        "untraced": {"grid2d": {
            "metrics": {
                "seq_factor_s": {"value": value, "unit": "s", "samples": 10,
                                 "iqr": 0.02 * value},
                "peak_rss_mb": {"value": rss, "unit": "MB", "samples": 1},
            },
            "ops_attempted": 100, "ops_failed": failed, "noisy": noisy,
        }},
    }


def _side(*values):
    return [_run(v) for v in values]


def test_verdicts_follow_the_bound():
    exact = lambda v: (v, 0.0)  # noqa: E731
    assert verdict(exact(1.0), exact(1.05), 0.10, "lower", False)[0] == "unchanged"
    assert verdict(exact(1.0), exact(1.11), 0.10, "lower", False)[0] == "regressed"
    assert verdict(exact(1.0), exact(0.85), 0.10, "lower", False)[0] == "improved"
    assert verdict(exact(1.0), exact(0.85), 0.10, "higher", False)[0] == "regressed"
    assert verdict(exact(1.0), exact(1.3), 0.10, "lower", True)[0] == "unresolved"
    assert verdict((1.0, 0.04), (1.3, 0.04), 0.10, "lower", False)[0] == "unresolved"


def test_one_pair_of_runs_cannot_resolve_a_tenth():
    out = io.StringIO()
    assert compare(_side(1.0), _side(1.12), SPEC, out) == 0
    assert "seq_factor_s           unresolved" in out.getvalue()
    # A single reading carries no spread: memory is judged on its bound.
    assert compare(_side(1.0), [_run(1.0, rss=120.0)], SPEC, io.StringIO()) == 1


def test_several_runs_a_side_resolve_it():
    base = _side(1.00, 1.01, 0.99, 1.00, 1.02)
    out = io.StringIO()
    assert compare(base, _side(1.01, 1.00, 1.02, 0.99, 1.01), SPEC, out) == 0
    assert "unchanged" in out.getvalue() and "= 1.010" in out.getvalue()
    assert compare(base, _side(1.20, 1.21, 1.19, 1.22, 1.20), SPEC,
                   io.StringIO()) == 1
    value, err = side_estimate(
        [r["untraced"]["grid2d"]["metrics"]["seq_factor_s"] for r in base]
    )
    assert value == 1.0 and 0 < err < 0.02


def test_more_failed_ops_fail_the_comparison():
    assert compare(_side(1.0), [_run(1.0, failed=1)], SPEC, io.StringIO()) == 1
    assert compare([_run(1.0, failed=1)], [_run(1.0, failed=1)], SPEC,
                   io.StringIO()) == 0


def test_exact_counts_are_recognised():
    for name in ("ordering.py_calls", "runtime.messages", "symbolic.nnz_l",
                 "fanout.ntasks", "sim.efficiency_p64_heur"):
        assert is_exact(name), name
    for name in ("symbolic.factor_s", "runtime.shm_outer_s", "calib.cv"):
        assert not is_exact(name), name
