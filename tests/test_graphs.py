"""Graph containers, named builders, and the exact counting oracles."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from nbcwalk import (
    GraphicMatroid,
    IntPolynomial,
    MultiGraph,
    NbcComplex,
    PreconditionError,
    SizeGuardError,
    build_named_graph,
    chromatic_polynomial,
    count_acyclic_orientations,
    count_g_parking_functions,
    count_independent_sets_by_size,
    disjoint_union,
    enumerate_nbc_bases,
    face_numbers,
    forced,
    graphs,
    hardcore_partition,
    is_nbc,
    iter_independent_sets,
    local_walk_matrix,
    tutte_polynomial,
)
from helpers import (
    SEED,
    acyclic_orientations,
    component_count,
    dhar_parking_functions,
    proper_colorings,
    random_graph_corpus,
    random_multigraphs,
    spanning_tree_count,
)


class TestMultiGraph:
    def test_normalizes_endpoints(self):
        g = MultiGraph(3, [(2, 0), (1, 2)])
        assert g.edges == ((0, 2), (1, 2))
        assert g.edge_count == 2

    def test_parallel_edges_keep_indices(self):
        g = MultiGraph(2, [(0, 1), (1, 0)])
        assert g.edges == ((0, 1), (0, 1))

    def test_rejects_self_loop(self):
        with pytest.raises(PreconditionError):
            MultiGraph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            MultiGraph(2, [(0, 2)])

    def test_rejects_a_negative_vertex_count(self):
        with pytest.raises(PreconditionError, match="^vertex_count must be non-negative$"):
            MultiGraph(-1, [])

    def test_connectivity(self):
        assert build_named_graph("cycle", 5).is_connected()
        assert MultiGraph(1, []).is_connected()
        assert MultiGraph(0, []).is_connected()
        assert not MultiGraph(2, []).is_connected()

    def test_equality_and_hash(self):
        a = build_named_graph("complete", 3)
        b = MultiGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)


class TestNamedGraphs:
    def test_complete(self):
        g = build_named_graph("complete", 3)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_complete_bipartite(self):
        g = build_named_graph("complete_bipartite", 2, 3)
        assert g.vertex_count == 5
        assert g.edges == ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))

    def test_cycle(self):
        g = build_named_graph("cycle", 4)
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_path(self):
        g = build_named_graph("path", 4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_disjoint_union_of_copies(self):
        g = build_named_graph("disjoint_union_of_copies", "complete", 3, 2)
        assert g.vertex_count == 6
        assert g.edge_count == 6
        assert (3, 4) in g.edges

    def test_zero_copies(self):
        g = build_named_graph("disjoint_union_of_copies", "complete", 8, 0)
        assert g.vertex_count == 0 and g.edge_count == 0

    def test_rejects_bad_specs(self):
        with pytest.raises(PreconditionError):
            build_named_graph("cycle", 2)
        with pytest.raises(PreconditionError):
            build_named_graph("banana", 3)
        with pytest.raises(PreconditionError):
            build_named_graph("complete")
        with pytest.raises(PreconditionError):
            build_named_graph("complete", "x")

    @pytest.mark.parametrize(
        "params, message",
        [
            (("complete", -1), "complete: n must be non-negative"),
            (("complete_bipartite", 0, 2), "complete_bipartite: both part sizes must be at least 1"),
            (("path", 0), "path: need at least one vertex"),
            (
                ("disjoint_union_of_copies", "complete"),
                "disjoint_union_of_copies: need inner kind and copy count",
            ),
            (
                ("disjoint_union_of_copies", "complete", 3, -1),
                "disjoint_union_of_copies: copies must be non-negative",
            ),
        ],
        ids=["complete", "complete_bipartite", "path", "copies-without-count", "negative-copies"],
    )
    def test_refuses_out_of_range_parameters_by_name(self, params, message):
        with pytest.raises(PreconditionError) as err:
            build_named_graph(*params)
        assert str(err.value) == message

    def test_disjoint_union_shifts(self):
        g = disjoint_union(build_named_graph("complete", 3), build_named_graph("path", 2))
        assert g.vertex_count == 5
        assert g.edges[-1] == (3, 4)
        parts = [build_named_graph("cycle", 3), MultiGraph(2, []), build_named_graph("path", 3)]
        g = disjoint_union(*parts)
        assert g == disjoint_union(disjoint_union(*parts[:2]), parts[2])
        assert g.vertex_count == 8 and g.edges[-1] == (6, 7)
        assert disjoint_union() == MultiGraph(0, [])

    @pytest.mark.parametrize(
        "inner", [("complete", 4), ("cycle", 5), ("path", 1), ("complete_bipartite", 2, 3)]
    )
    @pytest.mark.parametrize("copies", [0, 1, 7])
    def test_copies_match_repeated_disjoint_union(self, inner, copies):
        g = build_named_graph("disjoint_union_of_copies", *inner, copies)
        folded = MultiGraph(0, [])
        for _ in range(copies):
            folded = disjoint_union(folded, build_named_graph(*inner))
        assert (g.vertex_count, g.edges) == (folded.vertex_count, folded.edges)

    def test_copies_build_in_one_pass(self, monkeypatch):
        # One disjoint_union over all the copies, not a fold of pairwise ones.
        calls = []
        real = graphs.disjoint_union
        monkeypatch.setattr(graphs, "disjoint_union", lambda *gs: calls.append(len(gs)) or real(*gs))
        g = build_named_graph("disjoint_union_of_copies", "complete", 2, 20000)
        assert calls == [20000]
        assert g.vertex_count == 40000 and g.edge_count == 20000
        assert g.edges[-1] == (39998, 39999)


def _k4():
    return build_named_graph("complete", 4)


def _k4_complex():
    return NbcComplex(GraphicMatroid(_k4()))


# Each call once truncated its non-integral value with int() into a valid
# argument; the value must now be refused by name.
NON_INTEGRAL = {
    "MultiGraph vertex_count": (lambda: MultiGraph(2.5, [(0, 1)]), 2.5),
    "MultiGraph endpoint": (lambda: MultiGraph(2, [(0, 1.5)]), 1.5),
    "build_named_graph": (lambda: build_named_graph("complete", 3.9), 3.9),
    "copy count": (lambda: build_named_graph("disjoint_union_of_copies", "path", 2, 2.5), 2.5),
    "NbcComplex order": (lambda: NbcComplex(GraphicMatroid(_k4()), [0.2, 1.7, 2, 3, 4, 5]), 0.2),
    "GraphicMatroid rank": (lambda: GraphicMatroid(_k4(), 2.9), 2.9),
    "fundamental_circuit": (lambda: GraphicMatroid(_k4()).fundamental_circuit({0}, 1.2), 1.2),
    "is_nbc": (lambda: is_nbc(_k4_complex(), [0.7]), 0.7),
    "is_independent": (lambda: GraphicMatroid(_k4()).is_independent([0.5]), 0.5),
    "local_walk_matrix": (lambda: local_walk_matrix(_k4_complex(), [0.5]), 0.5),
    "count_g_parking_functions root": (
        lambda: count_g_parking_functions(build_named_graph("cycle", 4), 1.5),
        1.5,
    ),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGRAL))
def test_non_integral_value_is_refused_by_name(name):
    call, value = NON_INTEGRAL[name]
    with pytest.raises(PreconditionError, match=re.escape(repr(value))):
        call()


def test_integral_values_of_other_types_are_accepted():
    k4 = _k4()
    assert MultiGraph(np.int64(2), [(0.0, Fraction(1))]) == MultiGraph(2, [(0, 1)])
    assert build_named_graph("complete", 4.0) == build_named_graph("complete", np.int32(4)) == k4
    assert build_named_graph("disjoint_union_of_copies", "path", 2, 3.0).edge_count == 3
    assert NbcComplex(GraphicMatroid(k4), [np.int64(1), 0.0, 2, 3, 4, 5]).order == (1, 0, 2, 3, 4, 5)
    assert GraphicMatroid(k4, 2.0).rank == 2
    assert GraphicMatroid(k4).fundamental_circuit({0, 1}, 3.0) == frozenset({0, 1, 3})
    assert is_nbc(_k4_complex(), [np.int64(0), 1.0])
    assert GraphicMatroid(k4).is_independent([0.0, np.int64(1)])
    assert local_walk_matrix(_k4_complex(), [0.0]).index == local_walk_matrix(_k4_complex(), [0]).index
    c4 = build_named_graph("cycle", 4)
    assert count_g_parking_functions(c4, 1.0) == count_g_parking_functions(c4, np.int64(1)) == 4


class TestForestsAndCycles:
    def test_empty_set_is_forest(self):
        assert GraphicMatroid(build_named_graph("complete", 3)).is_independent(())

    def test_triangle_is_not(self):
        assert not GraphicMatroid(build_named_graph("complete", 3)).is_independent({0, 1, 2})

    def test_parallel_pair_is_not(self):
        g = MultiGraph(2, [(0, 1), (0, 1)])
        assert not GraphicMatroid(g).is_independent({0, 1})
        assert GraphicMatroid(g).is_independent({0})

    def test_spanning_tree_is(self):
        assert GraphicMatroid(build_named_graph("cycle", 5)).is_independent({0, 1, 2, 3})

    def test_brute_force_agreement(self):
        import itertools

        from helpers import subset_acyclic

        for g in random_graph_corpus(count=3):
            matroid = GraphicMatroid(g)
            for size in range(g.edge_count + 1):
                for combo in itertools.combinations(range(g.edge_count), size):
                    assert matroid.is_independent(combo) == subset_acyclic(g, combo)


class TestUnionFindReaders:
    """GraphicMatroid.is_independent, GraphicMatroid.rank and
    MultiGraph.is_connected share one union-find; each is checked against a
    depth-first component count."""

    def _graphs(self):
        return random_multigraphs() + [MultiGraph(0, []), MultiGraph(1, []), MultiGraph(4, [])]

    def test_connectivity(self):
        for g in self._graphs():
            assert g.is_connected() == (component_count(g.vertex_count, g.edges) <= 1)

    def test_rank_and_forests(self):
        rng = random.Random(5)
        for g in self._graphs():
            matroid = GraphicMatroid(g)
            for _ in range(20):
                s = [e for e in range(g.edge_count) if rng.random() < 0.5]
                rank = g.vertex_count - component_count(g.vertex_count, [g.edges[e] for e in s])
                assert GraphicMatroid(MultiGraph(g.vertex_count, [g.edges[e] for e in s])).rank == rank
                assert matroid.is_independent(s) == (len(s) == rank)
            assert matroid.rank == g.vertex_count - component_count(g.vertex_count, g.edges)

    def test_corpus_has_parallel_edges_and_isolated_vertices(self):
        graphs = random_multigraphs()
        assert any(len(set(g.edges)) < g.edge_count for g in graphs)
        assert any(len({v for edge in g.edges for v in edge}) < g.vertex_count for g in graphs)
        assert any(component_count(g.vertex_count, g.edges) > 1 for g in graphs)


class TestIntPolynomial:
    def test_strips_trailing_zeros(self):
        p = IntPolynomial((1, 2, 0, 0))
        assert p.coefficients == (1, 2)
        assert p.degree == 1

    def test_evaluation(self):
        p = IntPolynomial((2, -3, 1))
        assert p(0) == 2 and p(1) == 0 and p(5) == 12

    def test_arithmetic(self):
        a = IntPolynomial((1, 1))
        b = IntPolynomial((0, 1))
        assert (a + b).coefficients == (1, 2)

    def test_sum_of_a_shorter_and_a_longer_polynomial(self):
        # __add__ walks the longer operand whichever side it is on.
        a, b = IntPolynomial((1,)), IntPolynomial((0, 1))
        assert (a + b).coefficients == (b + a).coefficients == (1, 1)

    def test_monomial(self):
        assert IntPolynomial.monomial(3).coefficients == (0, 0, 0, 1)

    def test_refuses_non_integral_coefficients(self):
        with pytest.raises(PreconditionError, match="a coefficient must be an integer, got 2.7"):
            IntPolynomial((1, 2.7))
        with pytest.raises(PreconditionError, match="a coefficient must be an integer"):
            IntPolynomial((1, "2"))
        p = IntPolynomial((1, 2.0, Fraction(3), np.int64(4), True))
        assert p.coefficients == (1, 2, 3, 4, 1)
        assert all(type(c) is int for c in p.coefficients)


class TestChromatic:
    def test_triangle(self):
        chi = chromatic_polynomial(build_named_graph("complete", 3))
        assert chi.coefficients == (0, 2, -3, 1)

    def test_square(self):
        chi = chromatic_polynomial(build_named_graph("cycle", 4))
        assert chi.coefficients == (0, -3, 6, -4, 1)

    def test_against_brute_colorings(self):
        for g in random_graph_corpus(count=4):
            chi = chromatic_polynomial(g)
            for q in range(5):
                assert chi(q) == proper_colorings(g, q)

    def test_parallel_edges_collapse(self):
        doubled = MultiGraph(3, [(0, 1), (0, 1), (0, 2), (1, 2)])
        simple = build_named_graph("complete", 3)
        assert chromatic_polynomial(doubled) == chromatic_polynomial(simple)

    def test_disconnected(self):
        g = MultiGraph(3, [(0, 1)])
        chi = chromatic_polynomial(g)
        assert chi(3) == 6 * 3

    def test_size_guard(self, monkeypatch):
        k8 = build_named_graph("complete", 8)
        expected = chromatic_polynomial(k8)
        monkeypatch.setattr(graphs, "TUTTE_MAX_MINORS", 50)
        with pytest.raises(SizeGuardError, match="TUTTE_MAX_MINORS=50"):
            chromatic_polynomial(k8)
        with forced():
            assert chromatic_polynomial(k8) == expected


class TestAcyclicOrientations:
    def test_triangle(self):
        assert count_acyclic_orientations(build_named_graph("complete", 3)) == 6

    def test_tree_has_all(self):
        g = build_named_graph("path", 5)
        assert count_acyclic_orientations(g) == 2**4

    def test_square(self):
        assert count_acyclic_orientations(build_named_graph("cycle", 4)) == 14

    def test_matches_chromatic_at_minus_one(self):
        # Both counts come from one Tutte polynomial, so each is checked
        # against the brute-force count over all 2^m orientations.
        for g in random_graph_corpus(count=4):
            brute = acyclic_orientations(g)
            assert count_acyclic_orientations(g) == abs(chromatic_polynomial(g)(-1)) == brute

    def test_size_guard(self, monkeypatch):
        k7 = build_named_graph("complete", 7)
        monkeypatch.setattr(graphs, "TUTTE_MAX_MINORS", 20)
        with pytest.raises(SizeGuardError, match="TUTTE_MAX_MINORS=20"):
            count_acyclic_orientations(k7)
        with forced():
            assert count_acyclic_orientations(k7) == 5040


class TestSizeCounts:
    """By-size counts are IntPolynomials: coefficient k counts the sets of size k."""

    def test_tally(self):
        sets = [frozenset(), {0}, {1}, {0, 1}, {2}]
        assert IntPolynomial.tally(sets).coefficients == (1, 3, 1)
        assert IntPolynomial.tally([]).coefficients == ()

    def test_out_of_range_is_zero(self):
        c = IntPolynomial((1, 3, 2))
        assert c[5] == 0 and c[-1] == 0 and c[1] == 3
        assert IntPolynomial(())[0] == 0

    def test_total_and_iter(self):
        assert IntPolynomial((1, 3, 2)).total() == 6
        assert IntPolynomial(()).total() == 0
        # Indexing gives 0 past the degree, so iterating over it would not stop.
        with pytest.raises(TypeError):
            list(IntPolynomial((1, 3, 2)))

    def test_convolve(self):
        a = IntPolynomial((1, 2))
        b = IntPolynomial((1, 1))
        assert (a * b).coefficients == (1, 3, 2)
        assert (a * IntPolynomial(())).coefficients == ()
        assert (IntPolynomial((2, -1)) * IntPolynomial((0, 3))).coefficients == (0, 6, -3)


class TestIndependentSets:
    def test_square_counts(self):
        assert count_independent_sets_by_size(build_named_graph("cycle", 4)).coefficients == (1, 4, 2)

    def test_pentagon_counts(self):
        assert count_independent_sets_by_size(build_named_graph("cycle", 5)).coefficients == (1, 5, 5)

    def test_path_counts(self):
        assert count_independent_sets_by_size(build_named_graph("path", 4)).coefficients == (1, 4, 3)

    def test_lexicographic_enumeration(self):
        sets = list(iter_independent_sets(build_named_graph("complete", 3)))
        assert sets == [frozenset(), frozenset({0}), frozenset({1}), frozenset({2})]

    def test_disjoint_union_convolves(self):
        a = build_named_graph("cycle", 4)
        b = build_named_graph("complete", 3)
        direct = count_independent_sets_by_size(disjoint_union(a, b))
        conv = count_independent_sets_by_size(a) * count_independent_sets_by_size(b)
        assert direct == conv

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            count_independent_sets_by_size(MultiGraph(27, []))


class TestHardcorePartition:
    def test_pentagon_at_one(self):
        assert hardcore_partition(build_named_graph("cycle", 5), 1) == 11

    def test_pentagon_at_two(self):
        assert hardcore_partition(build_named_graph("cycle", 5), 2) == 31

    def test_rational_fugacity(self):
        assert hardcore_partition(build_named_graph("complete", 3), Fraction(1, 2)) == Fraction(5, 2)


class TestParkingFunctions:
    def test_triangle(self):
        assert count_g_parking_functions(build_named_graph("complete", 3), 0) == 3

    def test_path(self):
        assert count_g_parking_functions(build_named_graph("path", 3), 0) == 1

    def test_square(self):
        assert count_g_parking_functions(build_named_graph("cycle", 4), 0) == 4

    def test_matches_spanning_tree_count(self):
        for g in random_graph_corpus(count=4):
            for root in (0, g.vertex_count - 1):
                assert count_g_parking_functions(g, root) == spanning_tree_count(g)

    def test_matches_spanning_trees_of_multigraphs_at_every_root(self):
        graphs = random_multigraphs(count=60, max_vertices=6, max_edges=9)
        connected = [g for g in graphs if component_count(g.vertex_count, g.edges) == 1]
        assert len(connected) >= 10
        assert any(len(set(g.edges)) < g.edge_count for g in connected)
        for g in connected:
            trees = spanning_tree_count(g)
            for root in range(g.vertex_count):
                assert count_g_parking_functions(g, root) == trees

    def test_cayley_on_complete_graphs(self):
        for n in range(2, 7):
            assert count_g_parking_functions(build_named_graph("complete", n), 0) == n ** (n - 2)

    def test_requires_connected(self):
        with pytest.raises(PreconditionError):
            count_g_parking_functions(MultiGraph(2, []), 0)

    def test_root_range(self):
        with pytest.raises(PreconditionError):
            count_g_parking_functions(build_named_graph("complete", 3), 5)

    def test_size_guard(self, monkeypatch):
        k10 = build_named_graph("complete", 10)
        assert count_g_parking_functions(k10, 0) == 10**8
        monkeypatch.setattr(graphs, "TUTTE_MAX_MINORS", 100)
        with pytest.raises(SizeGuardError, match="TUTTE_MAX_MINORS=100"):
            count_g_parking_functions(k10, 0)
        with forced():
            assert count_g_parking_functions(k10, 0) == 10**8


def _evaluate(t, x, y):
    """T(x, y) from its rows, row j the coefficients of y**j."""
    return sum(row(x) * y**j for j, row in enumerate(t))


def _tutte_corpus():
    """Seeded random multigraphs, with K0, K1 and a few edgeless and
    disconnected graphs beside them."""
    extra = [MultiGraph(0, []), MultiGraph(1, []), MultiGraph(3, [])]
    extra.append(MultiGraph(5, [(0, 1), (0, 1), (3, 4)]))
    return extra + random_multigraphs(count=70, max_vertices=7, max_edges=11, seed=SEED + 38)


class TestTuttePolynomial:
    def test_small_graphs(self):
        assert tutte_polynomial(MultiGraph(0, [])) == (IntPolynomial((1,)),)
        # K3: x^2 + x + y
        k3 = build_named_graph("complete", 3)
        assert tutte_polynomial(k3) == (IntPolynomial((0, 1, 1)), IntPolynomial((1,)))
        # a triple edge: x + y + y^2
        assert tutte_polynomial(MultiGraph(2, [(0, 1)] * 3)) == (
            IntPolynomial((0, 1)),
            IntPolynomial((1,)),
            IntPolynomial((1,)),
        )
        # K4: x^3 + 3x^2 + 2x + 4xy + 2y + 3y^2 + y^3
        assert tutte_polynomial(build_named_graph("complete", 4)) == (
            IntPolynomial((0, 2, 3, 1)),
            IntPolynomial((2, 4)),
            IntPolynomial((3,)),
            IntPolynomial((1,)),
        )

    def test_against_brute_force_and_the_engine(self):
        """On random multigraphs: T(2, 0) counts acyclic orientations,
        (-1)^r q^c T(1 - q, 0) proper q-colourings, T(1, 1) spanning trees
        and parking functions of a connected graph, T(1, 0) the NBC bases,
        and t^r T(1 + 1/t, 1) the forests by size, the face numbers of the
        bare matroid."""
        corpus = _tutte_corpus()
        assert any(len(set(g.edges)) < g.edge_count for g in corpus)
        assert any(component_count(g.vertex_count, g.edges) > 1 for g in corpus if g.edge_count)
        assert any(g.vertex_count > len({v for e in g.edges for v in e}) for g in corpus if g.edge_count)
        for g in corpus:
            t = tutte_polynomial(g)
            n = g.vertex_count
            c = component_count(n, g.edges)
            rank = n - c
            assert _evaluate(t, 2, 0) == acyclic_orientations(g), g
            for q in range(4):
                assert (-1) ** rank * q**c * _evaluate(t, 1 - q, 0) == proper_colorings(g, q), (g, q)
            if c == 1:
                trees = spanning_tree_count(g)
                assert _evaluate(t, 1, 1) == trees == dhar_parking_functions(g, 0)
                assert dhar_parking_functions(g, n - 1) == trees
            matroid = GraphicMatroid(g)
            assert _evaluate(t, 1, 0) == len(enumerate_nbc_bases(NbcComplex(matroid))), g
            forests = IntPolynomial(())
            for i in range(rank + 1):
                a = sum(row[i] for row in t)
                term = IntPolynomial.monomial(rank - i)
                for _ in range(i):
                    term = term * IntPolynomial((1, 1))
                forests = forests + term * IntPolynomial((a,))
            assert forests == face_numbers(matroid), g


class TestTutteBudget:
    def test_refuses_past_the_budget_and_force_lifts_it(self, monkeypatch):
        k6 = build_named_graph("complete", 6)
        expected = tutte_polynomial(k6)
        monkeypatch.setattr(graphs, "TUTTE_MAX_MINORS", 10)
        with pytest.raises(SizeGuardError, match=r"^more than TUTTE_MAX_MINORS=10 distinct minors"):
            tutte_polynomial(k6)
        with forced():
            assert tutte_polynomial(k6) == expected

    def test_a_minor_weighs_its_classes(self, monkeypatch):
        """A minor counts once more per eight classes as soon as it is missed,
        so K100's first minor, 4950 classes, refuses before any recursion."""
        monkeypatch.setattr(graphs, "TUTTE_MAX_MINORS", 600)
        with pytest.raises(SizeGuardError, match="TUTTE_MAX_MINORS=600"):
            tutte_polynomial(build_named_graph("complete", 100))

    def test_a_minor_weighs_its_polynomial(self, monkeypatch):
        """A minor counts once more per KiB of its packed polynomial: a
        triangle of three classes of 1000 parallel edges meets two minors,
        but the second's polynomial, y-degree 1998, fills 23 KiB."""
        g = MultiGraph(3, [(0, 1), (0, 2), (1, 2)] * 1000)
        monkeypatch.setattr(graphs, "TUTTE_MAX_MINORS", 20)
        with pytest.raises(SizeGuardError, match="TUTTE_MAX_MINORS=20"):
            tutte_polynomial(g)
        with forced():
            t = tutte_polynomial(g)
        assert (sum(row.total() for row in t), t[0](2)) == (3 * 1000**2, 6)

    def test_too_deep_is_a_size_guard(self):
        with forced(), pytest.raises(SizeGuardError, match="recursion limit"):
            tutte_polynomial(build_named_graph("cycle", 1200))
