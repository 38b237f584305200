"""Ordering containers, permutation application, and method dispatch."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.graph.adjacency import AdjacencyGraph
from repro.util.arrays import as_index_array, invert_permutation, is_permutation

#: The ordering methods by name: what :func:`resolve_ordering` dispatches
#: on, ``RunConfig`` accepts and ``--ordering`` offers.
ORDERINGS = ("auto", "nd", "mmd", "natural")


@dataclass
class Ordering:
    """A fill-reducing ordering.

    ``perm[k]`` is the original index of the k-th column in the new order
    (scipy "take" convention); ``iperm`` is its inverse (``iperm[old] = new``).
    """

    perm: np.ndarray
    method: str = "natural"

    def __post_init__(self) -> None:
        self.perm = as_index_array(self.perm)
        if not is_permutation(self.perm):
            raise ValueError("perm is not a permutation")
        self.iperm = invert_permutation(self.perm)

    @property
    def n(self) -> int:
        return self.perm.shape[0]


def permute_spd(A: sparse.spmatrix, ordering: Ordering | np.ndarray) -> sparse.csc_matrix:
    """Return the symmetrically permuted matrix ``P A P^T``.

    Row/column ``k`` of the result is row/column ``perm[k]`` of ``A``.
    """
    perm = ordering.perm if isinstance(ordering, Ordering) else as_index_array(ordering)
    A = A.tocsc()
    return A[perm][:, perm].tocsc()


def resolve_ordering(
    A: sparse.spmatrix, method, coords: np.ndarray | None = None
) -> np.ndarray | None:
    """The permutation ``method`` gives for SPD matrix ``A`` (None = identity).

    ``method`` is an explicit permutation (array, list or tuple, passed
    through) or one of :data:`ORDERINGS`: ``"natural"``, ``"nd"`` (nested
    dissection, geometric when ``coords`` are given), ``"mmd"`` (multiple
    minimum degree), or ``"auto"``: nested dissection when the graph is
    mesh-like — bounded degree — else minimum degree, mirroring the
    paper's per-family choices. Any other name is a ``ValueError``.
    """
    # Imported here to avoid an import cycle at package-init time.
    from repro.ordering.minimum_degree import minimum_degree
    from repro.ordering.nested_dissection import nested_dissection

    if isinstance(method, (np.ndarray, list, tuple)):
        return np.asarray(method)
    if method not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {method!r}")
    if method == "natural":
        return None
    graph = AdjacencyGraph.from_sparse(A)
    if method == "auto":
        deg = graph.degrees
        mesh_like = deg.size and deg.max() <= max(32, 3 * int(np.median(deg)))
        method = "nd" if mesh_like else "mmd"
    if method == "nd":
        return nested_dissection(graph, coords=coords)
    return minimum_degree(graph)


def order_problem(problem, method: str | None = None) -> Ordering:
    """Compute an ordering for a :class:`ProblemMatrix`.

    ``method`` defaults to the problem's ``recommended_ordering``; see
    :func:`resolve_ordering` for the choices.
    """
    method = method or problem.recommended_ordering
    perm = resolve_ordering(problem.A, method, coords=problem.coords)
    if perm is None:
        perm = np.arange(problem.n)
    return Ordering(perm, method=method)
