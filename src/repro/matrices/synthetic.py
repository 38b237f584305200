"""Synthetic stand-ins for the paper's proprietary/irregular matrices.

The Harwell-Boeing BCSSTK* matrices are structural-engineering stiffness
matrices (3-D frames/shells, several degrees of freedom per mesh node);
COPTER2 is an unstructured helicopter-rotor-blade mesh; 10FLEET is the normal
equation pattern of an airline fleet-assignment LP. None of these files ship
with this repository, so we generate synthetic matrices from the same problem
families. The mapping heuristics under study only see the block structure of
the factor, which these generators reproduce qualitatively: many small-to-
medium supernodes from the mesh interior plus large separator supernodes
(BCSSTK/COPTER), and the broad, irregular supernode distribution of an
interior-point normal-equations pattern (10FLEET). See DESIGN.md.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.matrices.problem import ProblemMatrix
from repro.matrices.spd import make_spd


def _knn_graph(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric k-nearest-neighbour edge list over ``points``."""
    # Imported by its one user, so ``import repro`` skips scipy.spatial.
    from scipy.spatial import cKDTree
    _, nbrs = cKDTree(points).query(points, k=k + 1)
    src = np.repeat(np.arange(points.shape[0]), k)
    dst = nbrs[:, 1:].ravel()
    mask = src != dst
    return src[mask], dst[mask]


def _expand_dof(
    src: np.ndarray, dst: np.ndarray, nnodes: int, dof: int, n: int
) -> sparse.csr_matrix:
    """Expand a node graph into a multi-dof equation pattern.

    Each mesh node owns ``dof`` consecutive equations; connected nodes couple
    through dense ``dof x dof`` blocks (as element stiffness assembly does).
    The result is truncated to ``n`` equations.
    """
    # All (a, b) node pairs, plus self-couplings for the diagonal blocks.
    all_src = np.concatenate([src, np.arange(nnodes)])
    all_dst = np.concatenate([dst, np.arange(nnodes)])
    d = np.arange(dof)
    di, dj = np.meshgrid(d, d, indexing="ij")
    rows = (all_src[:, None] * dof + di.ravel()[None, :]).ravel()
    cols = (all_dst[:, None] * dof + dj.ravel()[None, :]).ravel()
    keep = (rows < n) & (cols < n) & (rows != cols)
    rows, cols = rows[keep], cols[keep]
    vals = -np.ones(rows.shape[0])
    M = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    M.sum_duplicates()
    return M


def bcsstk_like_matrix(
    n: int,
    dof: int = 3,
    neighbors: int = 8,
    aspect: tuple[float, float, float] = (4.0, 2.0, 1.0),
    seed: int = 0,
    name: str | None = None,
) -> ProblemMatrix:
    """Synthetic structural-stiffness-like SPD matrix with ``n`` equations.

    Mesh nodes are sampled in an anisotropic 3-D box (structures are rarely
    cubes) and joined to their nearest neighbours; each node carries ``dof``
    displacement unknowns coupled by dense blocks.
    """
    rng = np.random.default_rng(seed)
    nnodes = (n + dof - 1) // dof
    points = rng.random((nnodes, 3)) * np.asarray(aspect)
    src, dst = _knn_graph(points, neighbors)
    M = _expand_dof(src, dst, nnodes, dof, n)
    A = make_spd(M, shift=1.0)
    coords = np.repeat(points, dof, axis=0)[:n]
    return ProblemMatrix(
        name=name or f"BCSSTK-like(n={n})",
        A=A,
        coords=coords,
        recommended_ordering="mmd",
    )


def copter_like_matrix(
    n: int,
    dof: int = 3,
    neighbors: int = 12,
    seed: int = 0,
    name: str | None = None,
) -> ProblemMatrix:
    """Synthetic rotor-blade-like mesh matrix: elongated, tapered,
    unstructured.

    A rotor blade is an elongated tapered solid; calibrated (span 3:1 with
    taper, 12 neighbours, 3 dof) so that at the published n = 55,476 the
    factor statistics land near the paper's Table 6 entry for COPTER2
    (13.5M nonzeros, 11.4 Gflops).
    """
    rng = np.random.default_rng(seed)
    nnodes = (n + dof - 1) // dof
    # Blade: long in x, tapering cross-section along the span.
    x = rng.random(nnodes)
    taper = 1.0 - 0.5 * x
    y = (rng.random(nnodes) - 0.5) * 1.0 * taper
    z = (rng.random(nnodes) - 0.5) * 0.5 * taper
    points = np.column_stack([x * 3.0, y, z])
    src, dst = _knn_graph(points, neighbors)
    M = _expand_dof(src, dst, nnodes, dof, n)
    A = make_spd(M, shift=1.0)
    coords = np.repeat(points, dof, axis=0)[:n]
    return ProblemMatrix(
        name=name or f"COPTER-like(n={n})",
        A=A,
        coords=coords,
        recommended_ordering="mmd",
    )


def fleet_like_matrix(
    n: int,
    vars_per_constraint: float = 5.0,
    nonzeros_per_var: int = 6,
    window: int = 200,
    hub_fraction: float = 0.004,
    hub_probability: float = 0.3,
    seed: int = 0,
    name: str | None = None,
) -> ProblemMatrix:
    """Synthetic fleet-assignment LP normal-equations pattern (``A A^T``).

    Fleet assignment LPs have a time-space network structure: each variable
    (a flight/fleet assignment) touches several constraints — the flight
    coverage row plus flow-balance rows within a time window at its endpoint
    stations — and a small set of hub stations appears in a disproportionate
    share of variables. The SPD system interior-point methods factor is
    ``A D A^T``, whose pattern is ``A A^T``; we generate ``A`` with that
    structure and form the pattern. The defaults are calibrated so the
    published n = 11,222 lands near the paper's Table 6 entry for 10FLEET
    (4.8M factor nonzeros, 7.5 Gflops).
    """
    rng = np.random.default_rng(seed)
    m = n  # constraints == equations of the normal system
    nvars = int(vars_per_constraint * m)
    nhubs = max(1, int(hub_fraction * m))
    window = max(2, min(window, m))

    # Every variable hits `nonzeros_per_var` constraints: mostly local (a
    # contiguous time window at one station), occasionally a hub row.
    base = rng.integers(0, m, size=nvars)
    offsets = rng.integers(1, window, size=(nvars, nonzeros_per_var - 1))
    rows = [base]
    for j in range(nonzeros_per_var - 1):
        rows.append((base + offsets[:, j]) % m)
    row_idx = np.concatenate(rows)
    col_idx = np.tile(np.arange(nvars), nonzeros_per_var)

    # Hub rows: a subset of variables additionally touches a random hub.
    hub_vars = rng.random(nvars) < hub_probability
    hub_rows = rng.integers(0, nhubs, size=int(hub_vars.sum()))
    row_idx = np.concatenate([row_idx, hub_rows])
    col_idx = np.concatenate([col_idx, np.arange(nvars)[hub_vars]])

    data = np.ones(row_idx.shape[0])
    Amat = sparse.coo_matrix((data, (row_idx, col_idx)), shape=(m, nvars)).tocsr()
    AAT = (Amat @ Amat.T).tocsr()
    AAT.sum_duplicates()
    A = make_spd(AAT, shift=1.0)
    return ProblemMatrix(
        name=name or f"FLEET-like(n={n})",
        A=A,
        coords=None,
        recommended_ordering="mmd",
    )
