"""Gadget builders and verifiers: long polytope edges, link bottlenecks, and
the optimization / counting / external-field / hardcore reductions.

Every builder returns one GadgetInstance, and every verifier re-derives the
certified quantity in exact arithmetic: the link partition, the counting
sandwich and the hardcore identities by exhaustive enumeration.  For
max_weight_nbc_base and the long edge's witness it asks nbc for the heaviest
NBC bases, whose branch and bound prunes nbc's face walk in integer
numerators; the rational weights stay here.  A failed certificate raises
VerificationError, except the counting sandwich: its ReductionReport carries
the verdict, which may be False.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .chains import cheeger_chain, check_eig_states, down_up_matrix, spectral_gap
from .errors import FORCED, PreconditionError, SizeGuardError, VerificationError
from .graphs import (
    IntPolynomial,
    MultiGraph,
    _independent_sets,
    _integer,
    build_named_graph,
    count_independent_sets_by_size,
    disjoint_union,
    iter_independent_sets,
)
from .matroids import GraphicMatroid
from .nbc import NbcComplex, enumerate_nbc_bases, heaviest_nbc_bases, is_nbc, link_facets

MAX_GADGET_GROUND = 5000
HARDCORE_MAX_COPIES = 3
HARDCORE_MAX_BASE_VERTICES = 10


class WeightVector:
    """Exact rational weights indexed by element id.  weights holds them as
    Fractions, which item access, iteration and repr read; nums
    holds them as integer numerators over the one common denominator den, the
    lcm of their denominators, so that sums and products are integer
    arithmetic and only the reported values become Fractions."""

    __slots__ = ("weights", "nums", "den")

    def __init__(self, weights):
        self.weights = tuple(Fraction(w) for w in weights)
        self.den = den = math.lcm(*(w.denominator for w in self.weights))
        self.nums = tuple(w.numerator * (den // w.denominator) for w in self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, e):
        return self.weights[e]

    def __iter__(self):
        return iter(self.weights)

    def weight_of(self, subset) -> Fraction:
        """Inner product with the subset's indicator vector: an integer sum
        over den."""
        return Fraction(sum(map(self.nums.__getitem__, subset)), self.den)

    def product_over(self, subset) -> Fraction:
        """Product of the subset's weights: an integer product over
        den^|subset|."""
        return Fraction(math.prod(map(self.nums.__getitem__, subset)), self.den ** len(subset))

    def __repr__(self):
        return f"WeightVector({[str(w) for w in self.weights]})"


def _weight_vector(w, length: int, per: str) -> WeightVector:
    """w as a WeightVector, checked to hold one weight per vertex or element."""
    if not isinstance(w, WeightVector):
        w = WeightVector(w)
    if len(w) != length:
        raise PreconditionError(f"need exactly one weight per {per}")
    return w


def _heaviest(sets, w: WeightVector):
    """(set, weight) of greatest weight under w; a tie goes to the later set."""
    best = best_set = None
    for s in sets:
        val = w.weight_of(s)
        if best is None or val >= best:
            best, best_set = val, s
    return best_set, best


@dataclass(eq=False)
class GadgetInstance:
    """A constructed graphic matroid, whose graph is matroid.graph, and what
    its readers need of the construction: a distinguished face, named element
    sets, parameters, weights and the base graph.  Its complex uses the
    identity order, so each builder lays out its edge ids in the block order
    its construction needs."""

    matroid: GraphicMatroid
    tau: frozenset = frozenset()
    marked_sets: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    weights: WeightVector | None = None
    base_graph: MultiGraph | None = None

    def complex(self) -> NbcComplex:
        return NbcComplex(self.matroid)


@dataclass(eq=False)
class ReductionReport:
    """Certified sandwich: verdict is exactly lower <= target <= upper."""

    source_quantity: Fraction
    target_quantity: Fraction
    lower_bound: Fraction
    upper_bound: Fraction

    def __post_init__(self):
        if self.lower_bound > self.upper_bound:
            raise PreconditionError("lower_bound exceeds upper_bound")

    @property
    def verdict(self) -> bool:
        return self.lower_bound <= self.target_quantity <= self.upper_bound


def build_long_edge_instance(n: int) -> GadgetInstance:
    """Theta graph whose NBC base polytope has the certified long edge {B, B'}.

    (n-1)/2 two-edge paths join the rim vertices, edge n-1 joins them directly;
    B is the long edge plus the upper path edges, B' the first edge plus the
    lower ones.  The long edge's weight is computed (not assumed) to equalize
    the two bases, then the edge-witness condition is certified by nbc's
    branch and bound for the heaviest NBC bases: B and B' are NBC bases, both
    reach the greatest weight, and exactly two NBC bases do.  The graph has
    n edges, so n is checked against MAX_GADGET_GROUND before anything is
    built.
    """
    n = _integer(n, "n")
    if n < 3 or n % 2 == 0:
        raise PreconditionError("n must be an odd integer >= 3")
    _check_ground(n)
    half = (n - 1) // 2
    edges = []
    for i in range(1, half + 1):
        mid = 1 + i
        edges.append((0, mid))
        edges.append((mid, 1))
    edges.append((0, 1))
    graph = MultiGraph(2 + half, edges)
    matroid = GraphicMatroid(graph)
    b1 = frozenset({n - 1} | {2 * i - 2 for i in range(1, half + 1)})
    b2 = frozenset({0} | {2 * i - 1 for i in range(1, half + 1)})
    weights = [Fraction(j % 2) for j in range(n - 1)]
    long_weight = sum(weights[e] for e in b2) - sum(weights[e] for e in b1 if e != n - 1)
    weights.append(long_weight)
    w = WeightVector(weights)
    x = NbcComplex(matroid)
    if not all(len(b) == x.rank and is_nbc(x, b) for b in (b1, b2)):
        raise VerificationError("distinguished bases are not NBC bases")
    _, best, ties = heaviest_nbc_bases(x, w.nums)
    if not w.weight_of(b1) == w.weight_of(b2) == Fraction(best, w.den) or ties != 2:
        raise VerificationError("computed weight vector fails the edge-witness conditions")
    return GadgetInstance(
        matroid=matroid,
        marked_sets={"B": b1, "B_prime": b2},
        weights=w,
    )


def build_link_gadget(base_graph: MultiGraph, l: int, target_size: int) -> GadgetInstance:
    """Apex-and-subdivision gadget: pendant y via e0, apex z, and l two-edge
    chains z - z_{v,i} - v per base vertex; truncated to rank l*|V| + m + 1
    with order blocks e0 < E < e-chain edges < f-chain edges and tau = the
    e-chain edges."""
    if not isinstance(base_graph, MultiGraph):
        raise PreconditionError("base_graph must be a MultiGraph")
    l = _integer(l, "l")
    m = _integer(target_size, "target_size")
    nv = base_graph.vertex_count
    me = base_graph.edge_count
    if l < 1:
        raise PreconditionError("l must be at least 1")
    if not 0 <= m <= nv:
        raise PreconditionError(f"target_size must lie in 0..{nv} (the base vertex count)")
    if nv < 1:
        raise PreconditionError("the base graph needs at least one vertex")
    _check_ground(1 + me + 2 * nv * l)
    z = nv
    y = nv + 1

    def chain_vertex(v, i):
        return nv + 2 + v * l + i

    edges = [(z, y)]
    edges.extend(base_graph.edges)
    for v in range(nv):
        for i in range(l):
            edges.append((z, chain_vertex(v, i)))
    for v in range(nv):
        for i in range(l):
            edges.append((chain_vertex(v, i), v))
    graph = MultiGraph(nv + 2 + nv * l, edges)
    f_start = 1 + me + nv * l
    inst = GadgetInstance(
        matroid=GraphicMatroid(graph, l * nv + m + 1),
        tau=frozenset(range(1 + me, f_start)),
        marked_sets={"f_edges": frozenset(range(f_start, graph.edge_count))},
        params={"l": l, "m": m},
        base_graph=base_graph,
    )
    if not is_nbc(inst.complex(), inst.tau):
        raise VerificationError("tau is not an NBC face of the constructed complex")
    return inst


def _check_ground(ground: int):
    """Refuse a gadget of more than MAX_GADGET_GROUND elements unless forced."""
    if ground > MAX_GADGET_GROUND and not FORCED.get():
        raise SizeGuardError(f"ground size {ground} exceeds MAX_GADGET_GROUND={MAX_GADGET_GROUND}")


def _bipartition(g: MultiGraph):
    """Canonical 2-coloring classes (class of the smallest vertex first per
    component), or None when an odd cycle exists."""
    color = [-1] * g.vertex_count
    adj = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for start in range(g.vertex_count):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            x = stack.pop()
            for ynb in adj[x]:
                if color[ynb] == -1:
                    color[ynb] = 1 - color[x]
                    stack.append(ynb)
                elif color[ynb] == color[x]:
                    return None
    side_a = frozenset(v for v in range(g.vertex_count) if color[v] == 0)
    side_b = frozenset(v for v in range(g.vertex_count) if color[v] == 1)
    return side_a, side_b


@dataclass(eq=False)
class LinkPartition:
    """Link facets split by how they meet the two f-edge families."""

    by_a: dict
    by_b: dict
    neutral: tuple

    @property
    def s_a(self) -> tuple:
        return tuple(f for i in sorted(self.by_a) for f in self.by_a[i])

    def count_a(self, i: int) -> int:
        return len(self.by_a.get(i, ()))

    def count_b(self, i: int) -> int:
        return len(self.by_b.get(i, ()))


def partition_link_facets(inst: GadgetInstance, facets) -> LinkPartition:
    """Split link facets by their f-edge side and certify the proof's counting
    claims: no facet meets both sides, every facet contains e0, the all-A level
    has exactly l^m facets, and the neutral / B-side levels obey the binomial
    bounds."""
    if inst.base_graph is None or "f_edges" not in inst.marked_sets:
        raise PreconditionError("instance was not built by build_link_gadget")
    parts = _bipartition(inst.base_graph)
    if parts is None:
        raise PreconditionError("the base graph is not bipartite")
    l = inst.params["l"]
    m = inst.params["m"]
    me = inst.base_graph.edge_count
    side_a, side_b = parts
    if len(side_a) != m:
        if len(side_b) == m:
            side_a, side_b = side_b, side_a
        else:
            raise PreconditionError(
                f"no bipartition side has size m={m}; sides have sizes "
                f"{len(side_a)} and {len(side_b)}"
            )
    f_start = min(inst.marked_sets["f_edges"])

    def owner(f_edge):
        return (f_edge - f_start) // l

    f_a = frozenset(e for e in inst.marked_sets["f_edges"] if owner(e) in side_a)
    f_b = frozenset(e for e in inst.marked_sets["f_edges"] if owner(e) in side_b)
    by_a, by_b, neutral = {}, {}, []
    for facet in facets:
        facet = frozenset(facet)
        na, nb = len(facet & f_a), len(facet & f_b)
        if na and nb:
            raise VerificationError(f"facet {sorted(facet)} meets both f-edge sides")
        if 0 not in facet:
            raise VerificationError(f"facet {sorted(facet)} does not contain e0")
        if na:
            by_a.setdefault(na, []).append(facet)
        elif nb:
            by_b.setdefault(nb, []).append(facet)
        else:
            neutral.append(facet)
    part = LinkPartition(
        by_a={i: tuple(v) for i, v in by_a.items()},
        by_b={i: tuple(v) for i, v in by_b.items()},
        neutral=tuple(neutral),
    )
    if part.count_a(m) != l**m:
        raise VerificationError(
            f"|S_A,{m}| = {part.count_a(m)} differs from l^m = {l**m}"
        )
    if len(part.neutral) > math.comb(me, m):
        raise VerificationError("neutral facet count exceeds C(|E|, m)")
    if part.count_b(1) > len(side_b) * l * math.comb(me, max(m - 1, 0)):
        raise VerificationError("|S_B,1| exceeds its binomial bound")
    return part


def gap_certificate(inst: GadgetInstance) -> dict:
    """Measure the link walk's gap and certify the bottleneck inequalities on
    the A-side facet family with cheeger_chain, which refuses a family that
    is empty or holds every facet; the paper_bound key carries the
    closed-form bottleneck bound m^{2m}(1+l)/l^m, and the partition key the
    certified LinkPartition of the link facets."""
    l = inst.params["l"]
    m = inst.params["m"]
    x = inst.complex()
    facets = link_facets(x, inst.tau)
    check_eig_states(len(facets))
    part = partition_link_facets(inst, facets)
    walk = down_up_matrix(facets)
    gap = spectral_gap(walk)
    phi, ratio, at_most_half = cheeger_chain(walk, part.s_a, gap)
    return {
        "measured_gap": gap,
        "conductance": phi,
        "neighbor_ratio": ratio,
        "paper_bound": Fraction(m ** (2 * m) * (1 + l), l**m),
        "facet_count": len(facets),
        "s_a_at_most_half": at_most_half,
        "partition": part,
    }


def build_opt_reduction(g: MultiGraph, vertex_weights: WeightVector) -> GadgetInstance:
    """Apex construction carrying vertex weights onto apex edges: maximizing
    NBC base weight then solves max-weight independent set on g."""
    if not isinstance(g, MultiGraph):
        raise PreconditionError("g must be a MultiGraph")
    vertex_weights = _weight_vector(vertex_weights, g.vertex_count, "vertex")
    if any(w < 0 for w in vertex_weights):
        raise PreconditionError("vertex weights must be non-negative")
    z = g.vertex_count
    edges = list(g.edges) + [(v, z) for v in range(g.vertex_count)]
    graph = MultiGraph(g.vertex_count + 1, edges)
    return GadgetInstance(
        matroid=GraphicMatroid(graph),
        weights=WeightVector([Fraction(0)] * g.edge_count + list(vertex_weights)),
    )


def max_weight_independent_set(g: MultiGraph, vertex_weights: WeightVector):
    """Exhaustive maximizer over vertex independent sets; ties keep the
    lexicographically greatest set."""
    vertex_weights = _weight_vector(vertex_weights, g.vertex_count, "vertex")
    return _heaviest(iter_independent_sets(g), vertex_weights)


def max_weight_nbc_base(x: NbcComplex, w: WeightVector):
    """(base, weight) of an NBC base of greatest weight under w; ties keep the
    lexicographically greatest base, as _heaviest over every base would.
    Exact, by nbc's branch and bound in w's integer numerators, without the
    tie count: its walk reaches the bases in descending lexicographic order,
    keeps the first heaviest one and prunes every child that can at most
    tie it."""
    w = WeightVector(w)
    base, best, _ = heaviest_nbc_bases(x, w.nums, ties=False)
    return base, Fraction(best, w.den)


def build_field_reduction(g: MultiGraph, m: int, l, counts=None) -> GadgetInstance:
    """Apex-plus-pendant gadget truncated to rank m+1 with field weight l on
    the apex edges; its weighted NBC base count sandwiches i_m(g).  counts
    are g's independent-set counts when the caller has them already, as
    verify_counting_sandwich does."""
    if not isinstance(g, MultiGraph):
        raise PreconditionError("g must be a MultiGraph")
    if counts is None:
        counts = count_independent_sets_by_size(g)
    m = _integer(m, "m")
    l = Fraction(l)
    if l < 1:
        raise PreconditionError("the field value l must be at least 1")
    if not 0 <= m <= counts.degree:
        raise PreconditionError(f"m={m} exceeds the independence number {counts.degree}")
    if l < 2 * g.edge_count:
        warnings.warn(
            f"l = {l} is below 2|E| = {2 * g.edge_count}; the sandwich bounds are not guaranteed",
            stacklevel=2,
        )
    z = g.vertex_count
    y = g.vertex_count + 1
    edges = [(y, z)] + list(g.edges) + [(v, z) for v in range(g.vertex_count)]
    graph = MultiGraph(g.vertex_count + 2, edges)
    return GadgetInstance(
        matroid=GraphicMatroid(graph, m + 1),
        weights=WeightVector([Fraction(1)] * (1 + g.edge_count) + [l] * g.vertex_count),
    )


def nbc_partition_function(x, lam: WeightVector) -> Fraction:
    """Sum over the facets of x of the product of their element weights: the
    NBC bases of an NbcComplex, which keeps them, or the bases of a bare
    GraphicMatroid, where it is the weighted spanning-tree sum of a
    connected graph at full rank."""
    bare = isinstance(x, GraphicMatroid)
    lam = _weight_vector(lam, (x if bare else x.matroid).ground_size, "element")
    facets = enumerate_nbc_bases(x) if bare else x.facets()
    return sum((lam.product_over(b) for b in facets), Fraction(0))


def verify_counting_sandwich(g: MultiGraph, m: int, l: int, mode: str) -> ReductionReport:
    """Certify l^m * i_m(g) <= target <= 2 l^m * i_m(g), the target being the
    link-gadget facet count or the field-gadget partition function."""
    if mode not in ("facet-count", "partition-function"):
        raise PreconditionError("mode must be 'facet-count' or 'partition-function'")
    m = _integer(m, "m")
    l = _integer(l, "l")
    if m < 1:
        raise PreconditionError("m must be at least 1")
    counts = count_independent_sets_by_size(g)
    if m > counts.degree:
        raise PreconditionError(f"m={m} exceeds the independence number {counts.degree}")
    for k in range(m):
        if counts[k] > counts[m]:
            raise PreconditionError(
                f"precondition i_k <= i_m fails at k={k}: {counts[k]} > {counts[m]}"
            )
    if l < 2 * g.edge_count:
        raise PreconditionError(f"l must be at least 2|E| = {2 * g.edge_count}")
    n_source = counts[m]
    if mode == "facet-count":
        inst = build_link_gadget(g, l, m)
        target = Fraction(len(link_facets(inst.complex(), inst.tau)))
    else:
        inst = build_field_reduction(g, m, l, counts=counts)
        target = nbc_partition_function(inst.complex(), inst.weights)
    lower = Fraction(l**m * n_source)
    return ReductionReport(
        source_quantity=Fraction(n_source),
        target_quantity=target,
        lower_bound=lower,
        upper_bound=2 * lower,
    )


def build_hardcore_reduction(g: MultiGraph, r: int) -> MultiGraph:
    """Disjoint union of g with r copies of the complete graph on 8 vertices."""
    r = _integer(r, "r")
    if r < 0:
        raise PreconditionError("r must be non-negative")
    return disjoint_union(g, *itertools.repeat(build_named_graph("complete", 8), r))


def verify_hardcore_identities(g: MultiGraph, r: int) -> dict:
    """Exhaustively certify the disjoint-union counting identities: the
    convolution for the union, the count-ratio closed form, and the T_{S,k}
    levels with their successor ratio.  g's independent sets are listed once,
    and so are those of the union build_hardcore_reduction builds: one pass
    tallies them by size, for the convolution, and by their part in g, for
    the levels.  The union's sets that miss g are the independent sets of the
    copies, so i_k(r K8) is the level T_{empty,k}, whose check is the closed
    form i_k(r K8) = C(r,k) 8^k.  The desk-scale check, which only forcing
    lifts, bounds both listings, so they skip iter_independent_sets' own
    cap.  Any exact mismatch raises with the failing identity."""
    r = _integer(r, "r")
    if r < 0:
        raise PreconditionError("r must be non-negative")
    if (r > HARDCORE_MAX_COPIES or g.vertex_count > HARDCORE_MAX_BASE_VERTICES) and not FORCED.get():
        raise SizeGuardError(
            f"r={r}, |V|={g.vertex_count} exceeds desk scale "
            f"(r <= {HARDCORE_MAX_COPIES}, |V| <= {HARDCORE_MAX_BASE_VERTICES})"
        )
    sets_g = tuple(_independent_sets(g))
    counts_g = IntPolynomial.tally(sets_g)
    union = build_hardcore_reduction(g, r)
    base_vertices = frozenset(range(g.vertex_count))
    levels = {}

    def union_sets():
        for ind in _independent_sets(union):
            key = (ind & base_vertices, len(ind))
            levels[key] = levels.get(key, 0) + 1
            yield ind

    counts_union = IntPolynomial.tally(union_sets())
    top = max(k for part, k in levels if not part)
    counts_copies = IntPolynomial(tuple(levels.get((frozenset(), k), 0) for k in range(top + 1)))
    if counts_copies.degree != r:
        raise VerificationError("r K8 independence counts do not stop at size r")
    conv = counts_g * counts_copies
    for k in range(counts_union.degree + 1):
        if counts_union[k] != conv[k]:
            raise VerificationError(
                f"convolution fails at size {k}: union has {counts_union[k]}, formula {conv[k]}"
            )
    for mm in range(r + 1):
        for j in range(mm + 1):
            direct = Fraction(counts_copies[mm - j], counts_copies[mm])
            formula = Fraction(1, 8**j)
            for i in range(j):
                formula *= Fraction(mm - i, r - mm + j - i)
            if direct != formula:
                raise VerificationError(
                    f"count-ratio closed form fails at m={mm}, j={j}: {direct} != {formula}"
                )
    for s in sets_g:
        for k in range(len(s), len(s) + r + 1):
            expected = math.comb(r, k - len(s)) * 8 ** (k - len(s))
            got = levels.get((s, k), 0)
            if got != expected:
                raise VerificationError(
                    f"|T_S,k| fails for S={sorted(s)}, k={k}: {got} != {expected}"
                )
            if k > len(s):
                prev = levels.get((s, k - 1), 0)
                ratio = Fraction(got, prev)
                formula = Fraction(8 * (r - k + len(s) + 1), k - len(s))
                if ratio != formula:
                    raise VerificationError(
                        f"successor ratio fails for S={sorted(s)}, k={k}: {ratio} != {formula}"
                    )
    return {
        "counts_g": counts_g.coefficients,
        "counts_copies": counts_copies.coefficients,
        "counts_union": counts_union.coefficients,
        "checked_levels": len(levels),
    }


def critical_threshold(delta: int) -> Fraction:
    """Hardcore critical fugacity (Delta-1)^(Delta-1) / (Delta-2)^Delta."""
    delta = _integer(delta, "delta")
    if delta < 3:
        raise PreconditionError("delta must be at least 3")
    return Fraction((delta - 1) ** (delta - 1), (delta - 2) ** delta)
