"""Graph substrate: adjacency structures, traversals, separators.

The ordering layer (nested dissection, minimum degree) works on the
undirected adjacency graph of the matrix pattern; this package provides that
graph, and :mod:`repro.graph.traversal` / :mod:`repro.graph.separators` the
breadth-first and separator cores nested dissection calls on each piece.
"""

from repro.graph.adjacency import AdjacencyGraph

__all__ = ["AdjacencyGraph"]
