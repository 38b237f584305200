"""Supernodal multifrontal Cholesky factorization: an independent
reference for the block fan-out factor.

The third classical organization of sparse Cholesky (after left-looking and
right-looking/fan-out), which the paper's lineage compares against the other
two (Rothberg & Gupta [13]; Ashcraft-Grimes amalgamation [1] was developed
for the multifrontal method). Each supernode assembles a dense *frontal
matrix* from the original entries plus its children's *update matrices*,
factors its pivot block, and passes the Schur complement up the supernode
tree.

It shares no numeric code with :class:`~repro.numeric.blockfact.BlockCholesky`
— only the symbolic structure — so the tests that find the two factors equal
to rounding check the block fan-out factor against a second driver.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy import sparse

from repro.symbolic.structure import SymbolicFactor
from repro.symbolic.supernodes import supernode_parents


class MultifrontalCholesky:
    """Multifrontal factorization over a :class:`SymbolicFactor`.

    After :meth:`factor`, supernode s's columns are stored as ``diag[s]``
    (dense lower-triangular w x w) and ``below[s]`` (dense |R_s| x w with
    rows ``sf.snode_rows[s]``).
    """

    def __init__(self, sf: SymbolicFactor):
        self.symbolic = sf
        self.diag: list[np.ndarray | None] = [None] * sf.nsupernodes
        self.below: list[np.ndarray | None] = [None] * sf.nsupernodes
        self.flops = 0
        self.peak_front = 0
        self._factored = False

    def factor(self) -> "MultifrontalCholesky":
        sf = self.symbolic
        A = sf.A.tocsc()
        ptr = sf.snode_ptr
        sparent = supernode_parents(ptr, sf.parent)
        # Pending update matrices per parent supernode: (index_set, U).
        pending: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(sf.nsupernodes)
        ]

        for s in range(sf.nsupernodes):
            a, b = int(ptr[s]), int(ptr[s + 1])
            w = b - a
            rows = sf.snode_rows[s]
            index_set = np.concatenate(
                [np.arange(a, b, dtype=rows.dtype), rows]
            )
            m = index_set.shape[0]
            self.peak_front = max(self.peak_front, m)
            F = np.zeros((m, m))

            # Original entries of columns a..b (lower part only).
            for j in range(a, b):
                col_rows = A.indices[A.indptr[j] : A.indptr[j + 1]]
                col_vals = A.data[A.indptr[j] : A.indptr[j + 1]]
                sel = col_rows >= j
                pos = np.searchsorted(index_set, col_rows[sel])
                F[pos, j - a] = col_vals[sel]

            # Extend-add the children's update matrices.
            for child_idx, U in pending[s]:
                pos = np.searchsorted(index_set, child_idx)
                F[np.ix_(pos, pos)] += U
            pending[s] = []

            # Partial dense factorization of the w x w pivot block.
            F11 = F[:w, :w]
            F11 = np.tril(F11) + np.tril(F11, -1).T
            L11 = np.linalg.cholesky(F11)
            self.flops += w**3 // 3
            self.diag[s] = L11
            if m > w:
                L21 = sla.solve_triangular(
                    L11, F[w:, :w].T, lower=True
                ).T
                self.below[s] = np.ascontiguousarray(L21)
                self.flops += (m - w) * w * w
                # Schur complement: only the lower triangle matters; keep it
                # full-symmetric so the parent's extend-add stays simple.
                U = np.tril(F[w:, w:]) + np.tril(F[w:, w:], -1).T
                U -= L21 @ L21.T
                self.flops += (m - w) * (m - w + 1) * w
                p = int(sparent[s])
                if p != -1:
                    pending[p].append((rows, U))
            else:
                self.below[s] = np.zeros((0, w))
        self._factored = True
        return self

    def to_csc(self) -> sparse.csc_matrix:
        """Assemble L as a sparse matrix (explicit supernodal zeros kept)."""
        if not self._factored:
            raise RuntimeError("call factor() first")
        sf = self.symbolic
        ptr = sf.snode_ptr
        rows_l, cols_l, vals_l = [], [], []
        for s in range(sf.nsupernodes):
            a, b = int(ptr[s]), int(ptr[s + 1])
            w = b - a
            tri = np.tril_indices(w)
            rows_l.append(tri[0] + a)
            cols_l.append(tri[1] + a)
            vals_l.append(self.diag[s][tri])
            rows = sf.snode_rows[s]
            if rows.size:
                rr, cc = np.meshgrid(rows, np.arange(a, b), indexing="ij")
                rows_l.append(rr.ravel())
                cols_l.append(cc.ravel())
                vals_l.append(self.below[s].ravel())
        n = sf.n
        return sparse.coo_matrix(
            (
                np.concatenate(vals_l),
                (np.concatenate(rows_l), np.concatenate(cols_l)),
            ),
            shape=(n, n),
        ).tocsc()
