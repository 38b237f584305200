"""Numeric sparse Cholesky factorization.

The block kernels (BFAC/BDIV/BMOD) operate on the dense blocks of the
supernodal structure; :class:`BlockCholesky` performs the full sequential
block factorization, its BFAC and BDIVs grouped into one panel factor per
column and its BMODs into one panel update per (source panel, destination
panel), and the thread pool runs the same operations in parallel.
Triangular solves complete the layer; everything is verified against scipy
in the test suite.
"""

from repro.numeric.dense_kernels import (
    NotPositiveDefiniteError, bdiv_kernel, bfac_kernel, bmod_kernel,
)
from repro.numeric.blockfact import BlockCholesky
from repro.numeric.parallel import parallel_block_cholesky
from repro.numeric.solve import solve_with_factor

__all__ = [
    "bfac_kernel",
    "bdiv_kernel",
    "bmod_kernel",
    "NotPositiveDefiniteError",
    "BlockCholesky",
    "parallel_block_cholesky",
    "solve_with_factor",
]
