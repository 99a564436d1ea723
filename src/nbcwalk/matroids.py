"""Graphic matroids on the edge ids of a multigraph, optionally truncated.

A set of edges is independent when it holds at most ``rank`` edges and forms
a forest; ``rank`` defaults to the graph's own rank, read off the one
union-find in graphs, and a smaller value truncates the matroid.  A
fundamental circuit reduces to independence calls.  The matroid lists
nothing itself: its bases come from nbc's forest walk, the one that lists
NBC bases, run with no cycle rule.
"""

from __future__ import annotations

from .errors import PreconditionError
from .graphs import MultiGraph, _ids_in_range, _integer, _joins


class GraphicMatroid:
    """Elements are the edge ids of a multigraph; independent means a forest
    of at most rank edges."""

    def __init__(self, graph: MultiGraph, rank=None):
        if not isinstance(graph, MultiGraph):
            raise PreconditionError("GraphicMatroid needs a MultiGraph")
        full = sum(_joins(graph.vertex_count, graph.edges))
        rank = full if rank is None else _integer(rank, "rank")
        if not 0 <= rank <= full:
            raise PreconditionError(f"rank {rank} outside 0..{full} (the graph's rank)")
        self.graph = graph
        self.ground_size = graph.edge_count
        self.rank = rank

    def check_subset(self, subset) -> frozenset:
        return _ids_in_range(subset, self.ground_size, "element")

    def is_independent(self, subset) -> bool:
        s = self.check_subset(subset)
        edges = self.graph.edges
        return len(s) <= self.rank and all(_joins(self.graph.vertex_count, (edges[e] for e in s)))

    def fundamental_circuit(self, indep, e: int):
        """The unique circuit inside indep + e, or None if adding e keeps the
        set independent.  Checks that indep is an independent subset and e an
        element outside it; the circuit is e together with the f whose
        removal restores independence."""
        s = self.check_subset(indep)
        (e,) = self.check_subset((e,))
        if e in s:
            raise PreconditionError("e already belongs to the set")
        if not self.is_independent(s):
            raise PreconditionError("the given set is not independent")
        grown = s | {e}
        if self.is_independent(grown):
            return None
        return frozenset({e} | {f for f in s if self.is_independent(grown - {f})})
