"""The paper's greedy remapping heuristics (§4).

All four heuristics run the same greedy number-partitioning loop — assign the
next block row to the least-loaded processor row — and differ only in the
order in which block rows are considered:

==  =================  =============================================
DW  Decreasing Work    heaviest rows first (classic LPT partitioning)
IN  Increasing Number  block-row index ascending (a control)
DN  Decreasing Number  block-row index descending (work grows with I)
ID  Increasing Depth   elimination-tree depth ascending (sparse-aware)
==  =================  =============================================

``CY`` (cyclic) is the identity baseline. The same machinery applies to
block columns with ``workJ``.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.workmodel import WorkModel
from repro.mapping.base import CartesianMap
from repro.mapping.cyclic import cyclic_map
from repro.mapping.grid import ProcessorGrid, best_grid
from repro.util.arrays import INDEX_DTYPE

#: Heuristic codes accepted by :func:`heuristic_vector` / :func:`heuristic_map`.
HEURISTICS = ("CY", "DW", "IN", "DN", "ID")


def partition_lower_bound(work: np.ndarray, nbins: int) -> float:
    """Lower bound on the max-bin-load of any partition.

    ``max(sum/nbins, max item)`` — no assignment can beat either term, so
    ``bound / achieved_max`` measures how close a greedy heuristic is to
    the (NP-hard) optimum. The paper's 0.99 row balances say greedy is
    essentially optimal at these item-count-to-bin ratios.
    """
    w = np.asarray(work, dtype=np.float64)
    if w.size == 0:
        return 0.0
    return float(max(w.sum() / nbins, w.max()))


def greedy_partition(
    work: np.ndarray, order: np.ndarray, nbins: int
) -> np.ndarray:
    """Assign items to bins: next item (in ``order``) to the least-loaded bin.

    Returns the bin index per item. Ties broken by lowest bin index, which
    makes the result deterministic.
    """
    assignment = np.empty(work.shape[0], dtype=INDEX_DTYPE)
    loads = np.zeros(nbins, dtype=np.float64)
    for item in order:
        b = int(np.argmin(loads))
        assignment[item] = b
        loads[b] += work[item]
    return assignment


def _consider_order(
    heuristic: str, work: np.ndarray, depth: np.ndarray | None
) -> np.ndarray:
    n = work.shape[0]
    if heuristic == "DW":
        return np.argsort(-work, kind="stable")
    if heuristic == "IN":
        return np.arange(n)
    if heuristic == "DN":
        return np.arange(n - 1, -1, -1)
    if heuristic == "ID":
        if depth is None:
            raise ValueError("ID heuristic requires panel depths")
        return np.argsort(depth, kind="stable")
    raise KeyError(f"unknown heuristic {heuristic!r}; expected one of {HEURISTICS}")


def heuristic_vector(
    heuristic: str,
    work: np.ndarray,
    nbins: int,
    depth: np.ndarray | None = None,
) -> np.ndarray:
    """Row (or column) map under one heuristic: panel index -> bin.

    ``heuristic == "CY"`` returns the cyclic map; the others run greedy
    number partitioning in the heuristic's consideration order.
    """
    n = work.shape[0]
    if heuristic == "CY":
        return (np.arange(n) % nbins).astype(INDEX_DTYPE)
    order = _consider_order(heuristic, np.asarray(work, dtype=np.float64), depth)
    return greedy_partition(np.asarray(work, dtype=np.float64), order, nbins)


def heuristic_map(
    wm: WorkModel,
    grid: ProcessorGrid,
    row_heuristic: str = "ID",
    col_heuristic: str = "CY",
    depth: np.ndarray | None = None,
) -> CartesianMap:
    """Build the nonsymmetric CP map of §4.

    The row map minimizes the maximum aggregate ``workI`` per processor row;
    the column map does the same with ``workJ``. The paper's headline
    configuration (Table 7) is ID rows with cyclic columns.
    """
    if depth is None and "ID" in (row_heuristic, col_heuristic):
        depth = wm.structure.partition.panel_depths()
    mapI = heuristic_vector(row_heuristic, wm.workI, grid.Pr, depth)
    mapJ = heuristic_vector(col_heuristic, wm.workJ, grid.Pc, depth)
    return CartesianMap(
        grid, mapI, mapJ, label=f"{row_heuristic}/{col_heuristic}"
    )


def mapping_heuristics(mapping: str) -> tuple[str, str] | None:
    """The ``(row, column)`` heuristics a mapping *name* spells, ``None``
    for ``"cyclic"`` — the spelling :func:`named_map` accepts, checkable
    without a work model. Anything else is a ``ValueError``."""
    if mapping == "cyclic":
        return None
    rh, _, ch = str(mapping).partition("/")
    pair = rh.upper(), (ch or "CY").upper()
    if not set(pair) <= set(HEURISTICS):
        raise ValueError(
            f"unknown mapping {mapping!r}; expected 'cyclic' or "
            f"'<row>/<col>' over {HEURISTICS}"
        )
    return pair


def named_map(wm: WorkModel, nprocs: int, mapping: str) -> CartesianMap:
    """The CP map a mapping *name* denotes on ``nprocs`` processors.

    ``mapping`` is ``"cyclic"`` or a ``"<row>/<col>"`` heuristic pair
    (``DW``, ``IN``, ``DN``, ``ID`` x ``CY``, ...; the column defaults to
    ``CY``), case-insensitive — the one spelling the CLI, the solver
    façade, the simulator and the runtime all accept. The grid is the
    most-square ``Pr x Pc = nprocs``, i.e. the paper's ``sqrt(P)`` square
    whenever ``nprocs`` is a perfect square.
    """
    grid = best_grid(nprocs)
    pair = mapping_heuristics(mapping)
    if pair is None:
        return cyclic_map(wm.npanels, grid)
    return heuristic_map(wm, grid, *pair)
