"""Matroids on integer ground sets: graphic matroids and rank truncations.

A matroid here is anything exposing ``ground_size`` and an exact
``is_independent``; ranks, circuits, and fundamental circuits all reduce to
independence calls.  Graphic matroids instead read independence and rank off
the one union-find in graphs, and their hook finds circuits by forest-path
searches over one adjacency per checked independent set; truncations delegate
to the matroid they wrap.  Brute-force circuit enumeration is kept for
desk-scale cross-checks and guarded accordingly; truncations inherit it, since
it runs on their own is_independent.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError, SizeGuardError
from .graphs import MultiGraph, _forest_paths, _joins, is_forest

BRUTE_MAX_GROUND = 14
ENUM_MAX_SETS = 1_000_000


class Matroid:
    """Base class; subclasses set ground_size and implement is_independent."""

    ground_size: int

    def __init__(self):
        self._circuit_cache = None
        self._rank_cache = None

    def is_independent(self, subset) -> bool:
        raise NotImplementedError

    def check_subset(self, subset) -> frozenset:
        out = frozenset(int(x) for x in subset)
        for x in out:
            if not 0 <= x < self.ground_size:
                raise PreconditionError(f"element {x} out of range")
        return out

    def is_dependent(self, subset) -> bool:
        return not self.is_independent(subset)

    def rank_of(self, subset) -> int:
        """Greedy rank: scan in id order, keep what stays independent."""
        s = sorted(self.check_subset(subset))
        kept = []
        for x in s:
            kept.append(x)
            if not self.is_independent(kept):
                kept.pop()
        return len(kept)

    @property
    def rank(self) -> int:
        if self._rank_cache is None:
            self._rank_cache = self.rank_of(range(self.ground_size))
        return self._rank_cache

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
        element outside it, then asks _fundamental_circuits."""
        s = self.check_subset(indep)
        e = int(e)
        if not 0 <= e < self.ground_size:
            raise PreconditionError(f"element {e} out of range")
        if e in s:
            raise PreconditionError("e already belongs to the set")
        if not self.is_independent(s):
            raise PreconditionError("the given set is not independent")
        return self._fundamental_circuits(s)(e)

    def _fundamental_circuits(self, s: frozenset):
        """Hook on a checked independent s: the function taking an element e
        outside s to the circuit inside s + e, or None.  Here that circuit is
        e together with the f whose removal restores independence."""

        def circuit_of(e: int):
            grown = s | {e}
            if self.is_independent(grown):
                return None
            circuit = frozenset({e} | {f for f in s if self.is_independent(grown - {f})})
            assert self.is_dependent(circuit)
            return circuit

        return circuit_of

    def iter_independent_sets(self, max_size=None, force: bool = False):
        """Yield every independent set (size-capped if asked) exactly once."""
        cap = self.ground_size if max_size is None else int(max_size)
        if cap < 0:
            raise PreconditionError("max_size must be non-negative")
        budget = [ENUM_MAX_SETS]

        def rec(cur, start):
            if budget[0] <= 0 and not force:
                raise SizeGuardError(f"more than ENUM_MAX_SETS={ENUM_MAX_SETS} independent sets")
            budget[0] -= 1
            yield frozenset(cur)
            if len(cur) >= cap:
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
        return tuple(s for s in self.iter_independent_sets(max_size=r, force=force) if len(s) == r)


class GraphicMatroid(Matroid):
    """Elements are the edge ids of a multigraph; independent means forest."""

    def __init__(self, graph: MultiGraph):
        super().__init__()
        if not isinstance(graph, MultiGraph):
            raise PreconditionError("GraphicMatroid needs a MultiGraph")
        self.graph = graph
        self.ground_size = graph.edge_count

    def is_independent(self, subset) -> bool:
        return is_forest(self.graph, subset)

    def rank_of(self, subset) -> int:
        """Union-find joins: touched vertices minus components."""
        g = self.graph
        return sum(_joins(g.vertex_count, (g.edges[e] for e in self.check_subset(subset))))

    def _fundamental_circuits(self, s: frozenset):
        """e maps to e plus the path in forest s between e's endpoints, or to
        None if there is none; s's adjacency is built once."""
        path, edges = _forest_paths(self.graph, s), self.graph.edges

        def circuit_of(e: int):
            found = path(*edges[e])
            return None if found is None else frozenset(found) | {e}

        return circuit_of


class TruncatedMatroid(Matroid):
    """The wrapped matroid with rank capped at target_rank."""

    def __init__(self, inner: Matroid, target_rank: int):
        super().__init__()
        target_rank = int(target_rank)
        inner_rank = inner.rank
        if not 0 <= target_rank <= inner_rank:
            raise PreconditionError(
                f"target_rank {target_rank} outside 0..{inner_rank} (rank of the inner matroid)"
            )
        self.inner = inner
        self.target_rank = target_rank
        self.ground_size = inner.ground_size

    def is_independent(self, subset) -> bool:
        s = self.check_subset(subset)
        return len(s) <= self.target_rank and self.inner.is_independent(s)

    def rank_of(self, subset) -> int:
        return min(self.inner.rank_of(subset), self.target_rank)

    @property
    def rank(self) -> int:
        return self.target_rank

    def _fundamental_circuits(self, s: frozenset):
        """Inner circuit when one exists; otherwise, once s is at the cap, the
        whole grown set, which is dependent purely by size."""
        inner = self.inner._fundamental_circuits(s)
        if len(s) < self.target_rank:
            return inner
        return lambda e: inner(e) or s | {e}
