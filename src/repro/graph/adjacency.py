"""Compressed adjacency structure for matrix graphs."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.util.arrays import INDEX_DTYPE


class AdjacencyGraph:
    """Undirected graph of a symmetric sparse pattern, CSR-compressed.

    The diagonal is removed; the structure is symmetrized defensively so
    that callers may pass either triangle or the full pattern. Only the
    stored pattern is read, never the values: a stored 0.0 is an edge.
    """

    __slots__ = ("indptr", "indices", "n")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.n = self.indptr.shape[0] - 1

    @classmethod
    def from_sparse(cls, A: sparse.spmatrix) -> "AdjacencyGraph":
        A = A.tocsr()
        if A.shape[0] != A.shape[1]:
            raise ValueError("adjacency requires a square matrix")
        n = A.shape[0]
        nnz = A.indptr[-1]
        ones = sparse.csr_matrix(
            (np.ones(nnz, dtype=np.int32), A.indices[:nnz], A.indptr),
            shape=(n, n),
        )
        pattern = (ones + ones.T).tocsr()  # symmetrize structure
        pattern.sort_indices()
        rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
        off = pattern.indices != rows
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(rows[off], minlength=n), out=indptr[1:])
        return cls(indptr, pattern.indices[off])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour indices of vertex ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.shape[0] // 2)

    def neighbors_of(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency lists of ``vertices`` laid end to end, one gather.

        Returns ``(nbrs, owner)``: ``nbrs[p]`` is a neighbour of
        ``vertices[owner[p]]``; owners ascend and lists keep their order.
        """
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        owner = np.repeat(np.arange(counts.shape[0], dtype=INDEX_DTYPE), counts)
        # Entry p is the (p - first entry of its owner)-th of its owner's list.
        shift = (starts - (np.cumsum(counts) - counts))[owner]
        at = np.arange(owner.shape[0], dtype=INDEX_DTYPE) + shift
        return self.indices[at], owner

    def subgraph(self, vertices: np.ndarray) -> tuple["AdjacencyGraph", np.ndarray]:
        """Induced subgraph; returns (graph, original-vertex-ids).

        ``vertices`` need not be sorted; local vertex ``i`` corresponds to
        ``vertices[i]`` in the parent graph.
        """
        vertices = np.asarray(vertices, dtype=INDEX_DTYPE)
        m = vertices.shape[0]
        local = np.full(self.n, -1, dtype=INDEX_DTYPE)
        local[vertices] = np.arange(m, dtype=INDEX_DTYPE)
        nbrs, owner = self.neighbors_of(vertices)
        nbrs = local[nbrs]
        inside = nbrs >= 0
        indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(owner[inside], minlength=m), out=indptr[1:])
        return AdjacencyGraph(indptr, nbrs[inside]), vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AdjacencyGraph(n={self.n}, edges={self.num_edges})"
