"""Graphic matroids on the edge ids of a multigraph, optionally truncated.

A set of edges is independent when it holds at most ``rank`` edges and forms
a forest; ``rank`` defaults to the graph's own rank, read off the one
union-find in graphs, and a smaller value truncates the matroid.  Circuits and
fundamental circuits reduce to independence calls.  Brute-force circuit
enumeration is kept for desk-scale cross-checks and guarded accordingly.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError, SizeGuardError
from .graphs import MultiGraph, _ids_in_range, _integer, _joins

BRUTE_MAX_GROUND = 14
ENUM_MAX_SETS = 1_000_000


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
        self._circuit_cache = None

    def check_subset(self, subset) -> frozenset:
        return _ids_in_range(subset, self.ground_size, "element")

    def is_independent(self, subset) -> bool:
        s = self.check_subset(subset)
        edges = self.graph.edges
        return len(s) <= self.rank and all(_joins(self.graph.vertex_count, (edges[e] for e in s)))

    def circuits(self, force: bool = False):
        """All circuits by brute force over subsets in increasing size; cached."""
        if self._circuit_cache is not None:
            return self._circuit_cache
        m = self.ground_size
        if m > BRUTE_MAX_GROUND and not force:
            raise SizeGuardError(f"ground size {m} exceeds BRUTE_MAX_GROUND={BRUTE_MAX_GROUND}")
        found = []
        for size in range(1, m + 1):
            for combo in itertools.combinations(range(m), size):
                s = frozenset(combo)
                if any(c <= s for c in found):
                    continue
                if not self.is_independent(s):
                    found.append(s)
        self._circuit_cache = tuple(found)
        return self._circuit_cache

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

    def iter_independent_sets(self, force: bool = False):
        """Yield every independent set exactly once."""
        budget = [ENUM_MAX_SETS]

        def rec(cur, start):
            if budget[0] <= 0 and not force:
                raise SizeGuardError(f"more than ENUM_MAX_SETS={ENUM_MAX_SETS} independent sets")
            budget[0] -= 1
            yield frozenset(cur)
            if len(cur) >= self.rank:
                return
            for x in range(start, self.ground_size):
                cur.append(x)
                if self.is_independent(cur):
                    yield from rec(cur, x + 1)
                cur.pop()

        try:
            yield from rec([], 0)
        except RecursionError:
            m = self.ground_size
            raise SizeGuardError(f"ground size {m} exceeds the independent-set recursion limit") from None

    def enumerate_bases(self, force: bool = False):
        """All bases, in lexicographic order of their sorted element tuples:
        the order in which the preorder of iter_independent_sets reaches them."""
        r = self.rank
        return tuple(s for s in self.iter_independent_sets(force=force) if len(s) == r)
