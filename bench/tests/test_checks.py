import numpy as np
from scipy import sparse

from bench import checks


def test_residual_check_accepts_a_solution_and_rejects_a_wrong_one():
    A = sparse.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    b = np.array([[1.0], [2.0]])
    x = np.linalg.solve(A.toarray(), b)
    assert checks.residual_problems(A, x, b) == []
    assert checks.residual_problems(A, x * (1 + 1e-6), b)
    assert checks.residual_problems(A, np.full_like(x, np.nan), b)
    assert checks.residual_problems(A, None, b)


def test_bitwise_check_sees_one_ulp():
    L = sparse.csc_matrix(np.array([[2.0, 0.0], [1.0, 3.0]]))
    same = L.copy()
    assert checks.bitwise_problems(same, L) == []
    same.data[0] = np.nextafter(same.data[0], 10.0)
    assert checks.bitwise_problems(same, L)


def test_degraded_or_retried_service_jobs_are_failures():
    ok = {"status": "ok", "outcome": "clean", "attempts": 1}
    assert checks.record_problems(ok) == []
    assert checks.record_problems({**ok, "outcome": "degraded_sequential"})
    assert checks.record_problems({**ok, "outcome": "recovered", "attempts": 2})
    assert checks.record_problems({**ok, "status": "failed"})
    assert checks.record_problems(None)


def test_traffic_must_match_the_predictor():
    class Predicted:
        messages, bytes = 10, 640

    assert checks.traffic_problems(10, 640, Predicted) == []
    assert len(checks.traffic_problems(11, 641, Predicted)) == 2


def test_ledger_counts_raises_and_problems(capsys):
    ledger = checks.Ledger()
    assert ledger.op("fine", lambda: (1, [])) == 1
    assert ledger.op("wrong", lambda: (2, ["off by one"])) == 2
    assert ledger.op("boom", lambda: 1 / 0) is None
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert any(f.startswith("wrong: off by one") for f in ledger.failures)
    assert any(f.startswith("boom: raised") for f in ledger.failures)
    err = capsys.readouterr().err
    assert "FAILED wrong" in err and "FAILED boom" in err
