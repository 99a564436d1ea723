"""Labeled multigraphs and the exact counting oracles built on them.

Everything here is deterministic and exact.  One Tutte polynomial, by
memoised deletion-contraction over integers under the one budget
TUTTE_MAX_MINORS, gives the chromatic polynomial, the acyclic orientations
T(2, 0) and the parking functions T(1, 1); independent-set counts come from
bounded brute force.  Edge indices double as the element ids of the graphic
matroid layered on top, so edge order matters and is part of the data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import FORCED, PreconditionError, SizeGuardError

TUTTE_MAX_MINORS = 20_000
INDEP_COUNT_MAX_VERTICES = 26


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
            normalized.append(_pair(u, v))
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
        return disjoint_union(*itertools.repeat(inner, copies))
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


def disjoint_union(*graphs: MultiGraph) -> MultiGraph:
    """Disjoint union in one pass: each graph's vertex and edge ids follow
    those of the graphs before it."""
    edges, off = [], 0
    for g in graphs:
        edges.extend((u + off, v + off) for u, v in g.edges)
        off += g.vertex_count
    return MultiGraph(off, edges)


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
    """Integer polynomial; coefficients[i] multiplies x**i, highest entry
    nonzero.  Besides the chromatic polynomial and the rows of the Tutte
    polynomial it holds by-size counts, the face polynomial of an NBC complex
    and the independence polynomial of a graph: coefficient k counts the
    objects of size k."""

    coefficients: tuple

    def __post_init__(self):
        # Plain ints skip the call: this runs on every arithmetic result.
        coeffs = tuple(
            c if type(c) is int else _integer(c, "a coefficient") for c in self.coefficients
        )
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def monomial(cls, power: int) -> "IntPolynomial":
        return cls((0,) * power + (1,))

    @classmethod
    def tally(cls, sets) -> "IntPolynomial":
        """Coefficient k = how many of the given sets have size k."""
        counts = []
        for s in sets:
            k = len(s)
            while len(counts) <= k:
                counts.append(0)
            counts[k] += 1
        return cls(tuple(counts))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k):
        """The coefficient of x**k, 0 past the degree."""
        return self.coefficients[k] if 0 <= k < len(self.coefficients) else 0

    # __getitem__ never runs out, so iterating over it would never stop.
    __iter__ = None

    def total(self) -> int:
        return sum(self.coefficients)

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

    def __mul__(self, other):
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __repr__(self):
        return f"IntPolynomial({self.coefficients})"


def tutte_polynomial(g: MultiGraph) -> tuple:
    """The Tutte polynomial T(x, y) of g, exact, as a tuple of IntPolynomial
    rows: row j holds the coefficients of y**j as a polynomial in x.

    Memoised deletion-contraction on the classes of parallel edges, each a
    vertex pair and its multiplicity k, removed whole: T = T(G - class) +
    (1 + y + ... + y**(k-1)) T(G / class), since contracting one edge of the
    class leaves the other k - 1 as loops, a factor y each.  A bridge class
    gives T = (x + y + ... + y**(k-1)) T(G / class), since there G - class
    and G / class have the same T.  The branch class joins a vertex of fewest
    neighbours to its busiest neighbour.  Measured, that uses up one component
    before it starts the next, so a disconnected graph costs the sum of its
    components' minors without being split.  A minor is memoised under its
    classes, vertices renamed in order of first appearance.

    A coefficient of a minor's T is at most its number of bases, T(1, 1), so
    at most the product of k + 1 over g's classes, and its power of x is at
    most g's rank r.  So each T in the recursion is one integer, with x and y the
    powers of two 2**(8 width) and 2**(8 width (r + 1)): coefficient (i, j)
    fills the `width` bytes at byte width (i + (r + 1) j), no sum or product
    carries from one into the next, and integer arithmetic is polynomial
    arithmetic.  A graph of one class is its own bridge, x + y + ... + y**(k-1).

    The budget TUTTE_MAX_MINORS counts each distinct minor once, and once more
    per KiB it holds: per eight classes of its memo key, charged before its
    recursion so that a first descent through large minors counts too (on K100
    it is 4950 classes wide and hundreds deep), and per KiB of its packed T
    once that is known (on large sparse graphs a few hundred minors hold
    megabytes each).  Past it the call refuses unless forced (errors.forced).
    The recursion goes one level deeper per class on its first path, so a
    graph with about as many classes as the recursion limit refuses too,
    forced or not.
    """
    rank = sum(_joins(g.vertex_count, g.edges))
    classes = {}
    for e in g.edges:
        classes[e] = classes.get(e, 0) + 1
    width = 1 + sum(k.bit_length() for k in classes.values()) // 8
    x, row = 1 << 8 * width, width * (rank + 1)
    memo, spent = {}, 0

    def loops(k):
        """1 + y + ... + y**(k-1), packed: a 1 in the first byte of each of k
        rows of `row` bytes."""
        return int.from_bytes((b"\1" + bytes(row - 1)) * k, "little")

    def charge(units):
        nonlocal spent
        spent += units
        if spent > TUTTE_MAX_MINORS and not FORCED.get():
            raise SizeGuardError(
                f"more than TUTTE_MAX_MINORS={TUTTE_MAX_MINORS} distinct minors, "
                "counting one more per KiB of each one's classes and polynomial"
            )

    def rec(pairs):
        if not pairs:
            return 1
        if len(pairs) == 1:
            (k,) = pairs.values()
            return x + loops(k) - 1
        label = {}
        for a, b in sorted(pairs):
            label.setdefault(a, len(label))
            label.setdefault(b, len(label))
        pairs = {_pair(label[a], label[b]): k for (a, b), k in pairs.items()}
        key = tuple(sorted(pairs.items()))
        hit = memo.get(key)
        if hit is not None:
            return hit
        charge(1 + (len(key) >> 3))
        degree = [0] * len(label)
        for a, b in pairs:
            degree[a] += 1
            degree[b] += 1
        w = min(range(len(degree)), key=degree.__getitem__)
        u, v = max((c for c in pairs if w in c), key=lambda c: degree[c[0] if c[1] == w else c[1]])
        k = pairs.pop((u, v))
        *_, bridge = _joins(len(degree), [*pairs, (u, v)])
        merged = {}
        for (a, b), n in pairs.items():
            c = _pair(u if a == v else a, u if b == v else b)
            merged[c] = merged.get(c, 0) + n
        if bridge:
            t = (x + loops(k) - 1) * rec(merged)
        else:
            t = rec(pairs) + loops(k) * rec(merged)
        memo[key] = t
        charge(t.bit_length() >> 13)
        return t

    try:
        t = rec(classes)
    except RecursionError:
        m = g.edge_count
        raise SizeGuardError(f"{m} edges exceeds the recursion limit of deletion-contraction") from None
    packed = t.to_bytes(-(-t.bit_length() // 8), "little")
    coefficients = [int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)]
    return tuple(
        IntPolynomial(tuple(coefficients[j : j + rank + 1]))
        for j in range(0, len(coefficients), rank + 1)
    )


def _pair(a: int, b: int) -> tuple:
    """The endpoints a, b in ascending order, as a multigraph stores them."""
    return (a, b) if a < b else (b, a)


def chromatic_polynomial(g: MultiGraph) -> IntPolynomial:
    """Exact chromatic polynomial chi(t) = (-1)**r t**c T(1 - t, 0), with r
    the rank and c the number of components, isolated vertices included."""
    rank = sum(_joins(g.vertex_count, g.edges))
    chi = IntPolynomial(())
    for a in reversed(tutte_polynomial(g)[0].coefficients):
        chi = chi * IntPolynomial((1, -1)) + IntPolynomial((a,))
    return chi * IntPolynomial(((-1) ** rank,)) * IntPolynomial.monomial(g.vertex_count - rank)


def count_acyclic_orientations(g: MultiGraph) -> int:
    """Orientations whose digraph has no directed cycle: T(2, 0) (Stanley 1973)."""
    return tutte_polynomial(g)[0](2)


def iter_independent_sets(g: MultiGraph):
    """Yield every independent vertex set exactly once, in lexicographic
    order, refusing more than INDEP_COUNT_MAX_VERTICES vertices unless
    forced."""
    n = g.vertex_count
    if n > INDEP_COUNT_MAX_VERTICES and not FORCED.get():
        raise SizeGuardError(f"{n} vertices exceeds INDEP_COUNT_MAX_VERTICES={INDEP_COUNT_MAX_VERTICES}")
    yield from _independent_sets(g)


def _independent_sets(g: MultiGraph):
    """iter_independent_sets without its vertex cap, for a caller whose own
    check bounds the graph; only the recursion limit refuses."""
    n = g.vertex_count
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


def count_independent_sets_by_size(g: MultiGraph) -> IntPolynomial:
    """The independence polynomial: independent vertex sets tallied by
    cardinality, one plain enumeration.  Its degree is the independence
    number.

    Deliberately no component splitting or convolution here: disjoint-union
    identities are checked against this count, so it must stay independent.
    """
    return IntPolynomial.tally(iter_independent_sets(g))


def hardcore_partition(g: MultiGraph, fugacity) -> Fraction:
    """Independence polynomial evaluated exactly at the given fugacity."""
    lam = Fraction(fugacity)
    return count_independent_sets_by_size(g)(lam)


def count_g_parking_functions(g: MultiGraph, root: int) -> int:
    """Count maps f on the non-root vertices where every nonempty subset S of them
    has some v in S with f(v) strictly below the number of edges from v leaving S.

    On a connected graph these are as many as its spanning trees
    (Postnikov-Shapiro, Trans. AMS 2004), T(1, 1): Dhar's burning test maps
    one to the other."""
    root = _integer(root, "root")
    if not 0 <= root < g.vertex_count:
        raise PreconditionError(f"root {root} out of range")
    if not g.is_connected():
        raise PreconditionError("parking functions need a connected graph")
    return sum(row.total() for row in tutte_polynomial(g))
