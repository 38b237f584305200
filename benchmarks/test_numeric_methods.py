"""Host-machine numeric factorization benchmarks.

Times the sequential block fan-out (right-looking) factor against dense
LAPACK on the same permuted matrix. Each result is verified against A before
timing counts.
"""

import numpy as np
import pytest

from repro.experiments.pipeline import prepare_problem
from repro.numeric import BlockCholesky


@pytest.fixture(scope="module")
def prepared(scale):
    # medium-scale BCSSTK15 stand-in: ~1.5k equations at the default scale.
    prep = prepare_problem("BCSSTK15", scale if scale != "paper" else "medium")
    return prep


def test_block_fanout_numeric(benchmark, prepared):
    sf, bs = prepared.symbolic, prepared.structure

    def run():
        return BlockCholesky(bs, sf.A).factor().to_csc()

    L = benchmark(run)
    assert abs(L @ L.T - sf.A).max() < 1e-7


def test_scipy_dense_reference(benchmark, prepared):
    """Dense LAPACK on the same (permuted) matrix — an upper-bound
    comparator for the small benchmark sizes."""
    sf = prepared.symbolic
    if sf.n > 4000:
        pytest.skip("dense reference too large at this scale")
    Ad = sf.A.toarray()
    L = benchmark(np.linalg.cholesky, Ad)
    assert L.shape == Ad.shape
