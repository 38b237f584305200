import pytest

from bench import calibrate
from bench.calibrate import CAL_REF_S, Calibrator, calibrated, probes_bad


def test_calibrated_seconds_arithmetic():
    # A box running at half speed doubles both the sample and the probes.
    assert calibrated(2.0, [2 * CAL_REF_S, 2 * CAL_REF_S]) == pytest.approx(1.0)
    assert calibrated(1.0, [CAL_REF_S, CAL_REF_S]) == pytest.approx(1.0)
    # The mean of the adjacent probes is the divisor.
    assert calibrated(1.0, [0.5 * CAL_REF_S, 1.5 * CAL_REF_S]) == pytest.approx(1.0)


def test_probes_bad_on_disagreement_or_slow_stretch():
    assert not probes_bad(CAL_REF_S, 1.2 * CAL_REF_S)
    assert probes_bad(CAL_REF_S, 1.3 * CAL_REF_S)
    assert probes_bad(1.3 * CAL_REF_S, CAL_REF_S)
    assert probes_bad(1.6 * CAL_REF_S, 1.6 * CAL_REF_S)


def _scripted(monkeypatch, series):
    it = iter(series)
    monkeypatch.setattr(calibrate, "probe", lambda: next(it))


def test_sample_retakes_within_budget_and_counts(monkeypatch):
    # lead ok, trail bad -> retake; the bad trail is stale by then only if
    # time passed, so it is reused as the next lead: bad again -> second
    # retake is refused by the budget of one.
    _scripted(monkeypatch, [CAL_REF_S, 2 * CAL_REF_S, 2 * CAL_REF_S])
    cal = Calibrator(retake_budget=1)
    calls = []
    s = cal.sample(lambda: calls.append(1) or "done")
    assert s.result == "done"
    assert len(calls) == 2
    assert cal.samples_retaken == 1


def test_sample_without_budget_never_retakes(monkeypatch):
    _scripted(monkeypatch, [CAL_REF_S, 3 * CAL_REF_S])
    cal = Calibrator(retake_budget=0)
    calls = []
    cal.sample(lambda: calls.append(1))
    assert len(calls) == 1 and cal.samples_retaken == 0


def test_slowdown_and_cv_describe_the_probe_series(monkeypatch):
    _scripted(monkeypatch, [2 * CAL_REF_S] * 3)
    cal = Calibrator()
    for _ in range(3):
        cal.probe()
    assert cal.slowdown == pytest.approx(2.0)
    assert cal.cv == pytest.approx(0.0)


def test_probe_runs_and_takes_time():
    assert calibrate.probe() > 0.0
