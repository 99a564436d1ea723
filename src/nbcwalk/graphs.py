"""Labeled multigraphs and the exact counting oracles built on them.

Everything here is deterministic and exact: chromatic polynomials come from
deletion-contraction over integers, orientation and independent-set counts
from bounded brute force, and parking counts from Dhar's burning test on every
candidate function.  Edge indices double as the element ids of the graphic
matroid layered on top, so edge order matters and is part of the data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, SizeGuardError

CHROMATIC_MAX_EDGES = 20
ORIENTATION_MAX_EDGES = 16
INDEP_COUNT_MAX_VERTICES = 26
PARKING_MAX_NONROOT = 8
PARKING_MAX_FUNCTIONS = 2_000_000


class MultiGraph:
    """Immutable multigraph on vertices 0..n-1 with ordered, indexed edges.

    Parallel edges are allowed and keep separate indices; self-loops are rejected.
    Endpoint pairs are stored sorted, but the edge list order is preserved exactly
    as given (it defines element ids downstream).
    """

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges):
        vertex_count = _integer(vertex_count, "vertex_count")
        if vertex_count < 0:
            raise PreconditionError("vertex_count must be non-negative")
        normalized = []
        for k, pair in enumerate(edges):
            u, v = pair
            u, v = _integer(u, "an endpoint"), _integer(v, "an endpoint")
            if u == v:
                raise PreconditionError(f"edge {k} is a self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise PreconditionError(f"edge {k} has endpoint out of range: ({u}, {v})")
            normalized.append((u, v) if u < v else (v, u))
        self.vertex_count = vertex_count
        self.edges = tuple(normalized)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        """True for the one-vertex and empty graph; otherwise true iff the
        union-find over all edges joins n - 1 times."""
        n = self.vertex_count
        return n <= 1 or sum(_joins(n, self.edges)) == n - 1

    def __eq__(self, other):
        return (
            isinstance(other, MultiGraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"MultiGraph({self.vertex_count}, {list(self.edges)})"


def build_named_graph(kind: str, *params) -> MultiGraph:
    """Construct a canonical named graph.

    Kinds: complete n; complete_bipartite a b; cycle n (n >= 3); path n (n >= 1
    vertices); disjoint_union_of_copies inner_kind inner_params... copies.
    Edge lists come out in lexicographic endpoint order.
    """
    if kind == "complete":
        (n,) = _int_params(params, 1, kind)
        if n < 0:
            raise PreconditionError("complete: n must be non-negative")
        return MultiGraph(n, list(itertools.combinations(range(n), 2)))
    if kind == "complete_bipartite":
        a, b = _int_params(params, 2, kind)
        if a < 1 or b < 1:
            raise PreconditionError("complete_bipartite: both part sizes must be at least 1")
        return MultiGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if kind == "cycle":
        (n,) = _int_params(params, 1, kind)
        if n < 3:
            raise PreconditionError("cycle: length must be at least 3")
        edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
        return MultiGraph(n, edges)
    if kind == "path":
        (n,) = _int_params(params, 1, kind)
        if n < 1:
            raise PreconditionError("path: need at least one vertex")
        return MultiGraph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "disjoint_union_of_copies":
        if len(params) < 2:
            raise PreconditionError("disjoint_union_of_copies: need inner kind and copy count")
        inner_kind = params[0]
        try:
            copies = _param(params[-1])
        except ValueError:
            raise PreconditionError(f"disjoint_union_of_copies: bad copy count {params[-1]!r}")
        if copies < 0:
            raise PreconditionError("disjoint_union_of_copies: copies must be non-negative")
        inner = build_named_graph(inner_kind, *params[1:-1])
        # Copy c takes vertices c n .. c n + n - 1, as repeated disjoint_union
        # would number them, in one pass.
        n = inner.vertex_count
        return MultiGraph(
            n * copies, [(u + c * n, v + c * n) for c in range(copies) for u, v in inner.edges]
        )
    raise PreconditionError(f"unknown graph kind {kind!r}")


def _param(p) -> int:
    """A graph parameter: a string, as the CLI passes it, is read by int();
    any other value must equal an integer."""
    return int(p) if isinstance(p, str) else _integer(p, "a graph parameter")


def _int_params(params, want, kind):
    if len(params) != want:
        raise PreconditionError(f"{kind}: expected {want} parameter(s), got {len(params)}")
    try:
        return [_param(p) for p in params]
    except ValueError:
        raise PreconditionError(f"{kind}: parameters must be integers, got {params!r}")


def _integer(value, name: str) -> int:
    """value as an int, refused unless it equals one: int() alone truncates."""
    try:
        out = int(value)
        if out == value:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise PreconditionError(f"{name} must be an integer, got {value!r}")


def _ids_in_range(values, bound: int, what: str) -> frozenset:
    """The distinct ids in values, each an integer in 0..bound-1; a value
    outside is refused as "{what} {value} out of range"."""
    out = frozenset(_integer(v, what) for v in values)
    for v in out:
        if not 0 <= v < bound:
            raise PreconditionError(f"{what} {v} out of range")
    return out


def disjoint_union(g: MultiGraph, h: MultiGraph) -> MultiGraph:
    """Disjoint union; g keeps its vertex and edge ids, h is shifted after it."""
    off = g.vertex_count
    edges = list(g.edges) + [(u + off, v + off) for u, v in h.edges]
    return MultiGraph(g.vertex_count + h.vertex_count, edges)


def _joins(n: int, pairs):
    """Union-find on vertices 0..n-1: for each endpoint pair in turn, yield
    whether it joined two trees of the forest grown from the pairs before it."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        parent[ru] = rv
        yield ru != rv


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial; coefficients[i] multiplies x**i, highest entry nonzero."""

    coefficients: tuple

    def __post_init__(self):
        # Plain ints skip the call: this runs at every deletion-contraction step.
        coeffs = tuple(
            c if type(c) is int else _integer(c, "a coefficient") for c in self.coefficients
        )
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def monomial(cls, power: int, scale: int = 1) -> "IntPolynomial":
        return cls((0,) * power + (scale,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)))

    def __sub__(self, other):
        return self + IntPolynomial(tuple(-c for c in other.coefficients))

    def __repr__(self):
        return f"IntPolynomial({self.coefficients})"


def chromatic_polynomial(g: MultiGraph, force: bool = False) -> IntPolynomial:
    """Exact chromatic polynomial by deletion-contraction.

    Parallel edges collapse first (they do not change proper colorings), and
    contraction drops the loops it creates for the same reason.
    """
    if g.edge_count > CHROMATIC_MAX_EDGES and not force:
        raise SizeGuardError(
            f"{g.edge_count} edges exceeds CHROMATIC_MAX_EDGES={CHROMATIC_MAX_EDGES}"
        )
    memo = {}

    def rec(nv, edges):
        if not edges:
            return IntPolynomial.monomial(nv)
        key = (nv, edges)
        hit = memo.get(key)
        if hit is not None:
            return hit
        u, v = min(edges)
        deleted = edges - {(u, v)}
        contracted = set()
        for a, b in deleted:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                contracted.add((a2, b2) if a2 < b2 else (b2, a2))
        res = rec(nv, deleted) - rec(nv - 1, frozenset(contracted))
        memo[key] = res
        return res

    try:
        return rec(g.vertex_count, frozenset(g.edges))
    except RecursionError:
        m = g.edge_count
        raise SizeGuardError(f"{m} edges exceeds the recursion limit of deletion-contraction") from None


def count_acyclic_orientations(g: MultiGraph, force: bool = False) -> int:
    """Exhaustive count of orientations whose digraph has no directed cycle."""
    m = g.edge_count
    if m > ORIENTATION_MAX_EDGES and not force:
        raise SizeGuardError(f"{m} edges exceeds ORIENTATION_MAX_EDGES={ORIENTATION_MAX_EDGES}")
    n = g.vertex_count
    edges = g.edges
    count = 0
    for mask in range(1 << m):
        out = [[] for _ in range(n)]
        indeg = [0] * n
        for k in range(m):
            u, v = edges[k]
            if mask >> k & 1:
                u, v = v, u
            out[u].append(v)
            indeg[v] += 1
        queue = [x for x in range(n) if indeg[x] == 0]
        done = 0
        while queue:
            x = queue.pop()
            done += 1
            for y in out[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
        if done == n:
            count += 1
    return count


@dataclass(frozen=True)
class SizeCounts:
    """counts[k] = number of objects of size k: independent sets, NBC faces."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(_integer(c, "a count") for c in self.counts)
        if not counts or any(c < 0 for c in counts):
            raise PreconditionError("counts must be a non-empty tuple of non-negative ints")
        object.__setattr__(self, "counts", counts)

    def __getitem__(self, k):
        return self.counts[k] if 0 <= k < len(self.counts) else 0

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    @classmethod
    def tally(cls, sets) -> "SizeCounts":
        """counts[k] = how many of the given sets have size k."""
        counts = []
        for s in sets:
            k = len(s)
            while len(counts) <= k:
                counts.append(0)
            counts[k] += 1
        return cls(tuple(counts))

    def total(self) -> int:
        return sum(self.counts)

    def convolve(self, other: "SizeCounts") -> "SizeCounts":
        out = [0] * (len(self.counts) + len(other.counts) - 1)
        for i, a in enumerate(self.counts):
            for j, b in enumerate(other.counts):
                out[i + j] += a * b
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return SizeCounts(tuple(out))


def iter_independent_sets(g: MultiGraph, force: bool = False):
    """Yield every independent vertex set exactly once, in lexicographic order."""
    n = g.vertex_count
    if n > INDEP_COUNT_MAX_VERTICES and not force:
        raise SizeGuardError(f"{n} vertices exceeds INDEP_COUNT_MAX_VERTICES={INDEP_COUNT_MAX_VERTICES}")
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u

    def rec(chosen, allowed):
        yield chosen
        a = allowed
        while a:
            v = (a & -a).bit_length() - 1
            a &= a - 1
            yield from rec(chosen + (v,), a & ~nbr[v])

    try:
        for vs in rec((), (1 << n) - 1):
            yield frozenset(vs)
    except RecursionError:
        raise SizeGuardError(f"{n} vertices exceeds the independent-set recursion limit") from None


def count_independent_sets_by_size(g: MultiGraph, force: bool = False) -> SizeCounts:
    """Tally independent vertex sets by cardinality, one plain enumeration.

    Deliberately no component splitting or convolution here: disjoint-union
    identities are checked against this count, so it must stay independent.
    """
    return SizeCounts.tally(iter_independent_sets(g, force=force))


def hardcore_partition(g: MultiGraph, fugacity, force: bool = False) -> Fraction:
    """Independence polynomial evaluated exactly at the given fugacity."""
    lam = Fraction(fugacity)
    return IntPolynomial(count_independent_sets_by_size(g, force=force).counts)(lam)


def count_g_parking_functions(g: MultiGraph, root: int, force: bool = False) -> int:
    """Count maps f on the non-root vertices where every nonempty subset S of them
    has some v in S with f(v) strictly below the number of edges from v leaving S.

    Each candidate f, with 0 <= f(v) < deg(v), goes through Dhar's burning
    test (Dhar, PRL 64, 1990): fire starts at the root, and a vertex catches
    once more than f(v) of its edges lead to burnt vertices.  f counts iff
    every vertex burns; otherwise the unburnt set is a subset S in which
    every v has f(v) at least its edges leaving S."""
    if not 0 <= root < g.vertex_count:
        raise PreconditionError(f"root {root} out of range")
    if not g.is_connected():
        raise PreconditionError("parking functions need a connected graph")
    n = g.vertex_count
    if n - 1 > PARKING_MAX_NONROOT and not force:
        raise SizeGuardError(
            f"{n - 1} non-root vertices exceeds PARKING_MAX_NONROOT={PARKING_MAX_NONROOT}"
        )
    adj = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    limits = [len(a) for a in adj]
    limits[root] = 1
    space = 1
    for d in limits:
        space *= d
    if space > PARKING_MAX_FUNCTIONS and not force:
        raise SizeGuardError(
            f"{space} candidate functions exceeds PARKING_MAX_FUNCTIONS={PARKING_MAX_FUNCTIONS}"
        )
    count = 0
    for f in itertools.product(*map(range, limits)):
        # Each edge to a burnt vertex takes one from fuel[v], and v catches
        # as its fuel drops below zero; the root is alight from the start.
        fuel = list(f)
        fuel[root] = -1
        fire = [root]
        for x in fire:
            for y in adj[x]:
                if fuel[y] == 0:
                    fire.append(y)
                fuel[y] -= 1
        count += len(fire) == n
    return count
