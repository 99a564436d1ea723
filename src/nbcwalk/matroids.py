"""Matroids on integer ground sets: graphic matroids and rank truncations.

A matroid here is anything exposing ``ground_size`` and an exact
``is_independent``; ranks, circuits, and fundamental circuits all reduce to
independence calls.  Graphic matroids read independence and rank off the one
union-find in graphs; truncations cap the rank of the matroid they wrap.
Brute-force circuit enumeration is kept for desk-scale cross-checks and
guarded accordingly; truncations inherit it, since it runs on their own
is_independent.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError, SizeGuardError
from .graphs import MultiGraph, _ids_in_range, _integer, _joins, is_forest

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
        return _ids_in_range(subset, self.ground_size, "element")

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

    def iter_independent_sets(self, max_size=None, force: bool = False):
        """Yield every independent set (size-capped if asked) exactly once."""
        cap = self.ground_size if max_size is None else _integer(max_size, "max_size")
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


class TruncatedMatroid(Matroid):
    """The wrapped matroid with rank capped at target_rank."""

    def __init__(self, inner: Matroid, target_rank: int):
        super().__init__()
        target_rank = _integer(target_rank, "target_rank")
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
