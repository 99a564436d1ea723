"""Gadget builders, their exhaustive certificates, and the four reductions."""

import itertools
import random
from fractions import Fraction

import pytest

from nbcwalk import (
    GraphicMatroid,
    MultiGraph,
    NbcComplex,
    PreconditionError,
    SizeGuardError,
    VerificationError,
    WeightVector,
    build_field_reduction,
    build_hardcore_reduction,
    build_link_gadget,
    build_long_edge_instance,
    build_named_graph,
    build_opt_reduction,
    count_independent_sets_by_size,
    critical_threshold,
    disjoint_union,
    down_up_matrix,
    enumerate_nbc_bases,
    gadgets,
    gap_certificate,
    graphs,
    link_facets,
    max_weight_independent_set,
    max_weight_nbc_base,
    nbc,
    nbc_partition_function,
    partition_link_facets,
    spectral_gap,
    verify_counting_sandwich,
    verify_hardcore_identities,
)

from helpers import (
    SEED,
    component_count,
    edge_witness,
    kirchhoff_tree_sum,
    random_graph_corpus,
    random_multigraphs,
    theta_graph,
)

F = Fraction


class TestWeightVector:
    def test_exact_entries(self):
        w = WeightVector(["1/2", 3, F(2)])
        assert w[0] == F(1, 2)
        assert w.weight_of({0, 1}) == F(7, 2)
        assert w.product_over({0, 2}) == F(1)

    def test_constant(self):
        w = WeightVector([2] * 4)
        assert len(w) == 4 and all(e == 2 for e in w)


class TestLongEdge:
    def test_smallest_case(self):
        inst = build_long_edge_instance(3)
        assert inst.marked_sets["B"] == frozenset({0, 2})
        assert inst.marked_sets["B_prime"] == frozenset({0, 1})
        assert inst.weights.weight_of(inst.marked_sets["B"]) == 1
        assert len(inst.marked_sets["B"] ^ inst.marked_sets["B_prime"]) == 2

    def test_five_elements(self):
        inst = build_long_edge_instance(5)
        assert inst.marked_sets["B"] == frozenset({0, 2, 4})
        assert inst.marked_sets["B_prime"] == frozenset({0, 1, 3})
        assert tuple(inst.weights) == (F(0), F(1), F(0), F(1), F(2))
        assert inst.weights.weight_of(inst.marked_sets["B"]) == 2
        assert len(inst.marked_sets["B"] ^ inst.marked_sets["B_prime"]) == 4

    def test_all_other_bases_strictly_below(self):
        inst = build_long_edge_instance(7)
        bases = enumerate_nbc_bases(inst.complex())
        b1, b2 = inst.marked_sets["B"], inst.marked_sets["B_prime"]
        top = inst.weights.weight_of(b1)
        assert top == 3
        for b in bases:
            if b not in (b1, b2):
                assert inst.weights.weight_of(b) < top

    def test_long_edge_weight_is_half_n_minus_one(self):
        for n in (3, 5, 7, 9):
            inst = build_long_edge_instance(n)
            assert inst.weights[n - 1] == F(n - 1, 2)

    def test_rejects_even_and_small(self):
        with pytest.raises(PreconditionError):
            build_long_edge_instance(4)
        with pytest.raises(PreconditionError):
            build_long_edge_instance(1)

    def test_ground_guard_refuses_before_building(self, monkeypatch):
        # The theta graph has n edges; the budget is checked against n first.
        monkeypatch.setattr(gadgets, "MAX_GADGET_GROUND", 5)
        built = []
        real = gadgets.MultiGraph
        monkeypatch.setattr(gadgets, "MultiGraph", lambda *args: built.append(args) or real(*args))
        with pytest.raises(SizeGuardError, match="ground size 7 exceeds MAX_GADGET_GROUND=5"):
            build_long_edge_instance(7)
        assert built == []
        assert build_long_edge_instance(5).matroid.graph.edge_count == 5
        assert build_long_edge_instance(7, force=True).matroid.graph.edge_count == 7
        assert len(built) == 2

    def test_certificate_matches_the_listing_scan(self, monkeypatch):
        # Every odd n up to 21, on the built weights and on altered ones fed
        # to the builder in their place: it certifies exactly when the
        # strict-max-pair scan over every listed NBC base holds.  Raising the
        # apex, which every base holds, keeps the witness; raising or
        # lowering the long edge breaks the tie; flat weights tie every base,
        # and the n = 3 theta, a triangle, has no NBC bases but B and B'.
        alterations = (
            lambda ws: ws,
            lambda ws: [ws[0] + 1] + ws[1:],
            lambda ws: ws[:-1] + [ws[-1] + 1],
            lambda ws: ws[:-1] + [ws[-1] - 1],
            lambda ws: [0] * len(ws),
        )
        real = gadgets.WeightVector
        verdicts = []
        for n in range(3, 22, 2):
            bases = enumerate_nbc_bases(NbcComplex(GraphicMatroid(theta_graph(n))), force=True)
            b1 = frozenset({n - 1} | set(range(0, n - 1, 2)))
            b2 = frozenset({0} | set(range(1, n - 1, 2)))
            for alter in alterations:
                fed = []

                def altered(ws, alter=alter, fed=fed):
                    fed.append(alter(list(ws)))
                    return real(fed[0])

                monkeypatch.setattr(gadgets, "WeightVector", altered)
                try:
                    inst = build_long_edge_instance(n)
                except VerificationError:
                    certified = False
                else:
                    certified = True
                    assert (inst.marked_sets["B"], inst.marked_sets["B_prime"]) == (b1, b2)
                assert certified == edge_witness(bases, fed[0], b1, b2), (n, fed[0])
                verdicts.append(certified)
        assert verdicts == [v for n in range(3, 22, 2) for v in (True, True, False, False, n == 3)]

    def test_builds_without_listing_a_base(self, monkeypatch):
        # n = 27 exhausted MAX_NBC_FACES when the certificate listed every
        # NBC base; the branch and bound lists none.
        def refuse(*args, **kwargs):
            raise AssertionError("an NBC base listing was requested")

        monkeypatch.setattr(nbc, "_facets_through", refuse)
        inst = build_long_edge_instance(27)
        assert inst.weights.weight_of(inst.marked_sets["B"]) == 13


class TestLinkGadget:
    def test_layout(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        inst = build_link_gadget(g, 2, 2)
        assert inst.matroid.graph.vertex_count == 4 + 2 + 8
        assert inst.matroid.graph.edge_count == 1 + 4 + 16
        assert inst.matroid.rank == 11
        assert inst.tau == frozenset(range(5, 13))
        assert inst.matroid.graph.edges[0] == (4, 5)

    def test_partition_counts(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        inst = build_link_gadget(g, 2, 2)
        facets = link_facets(inst.complex(), inst.tau)
        assert len(facets) == 46
        part = partition_link_facets(inst, facets)
        assert part.count_a(2) == 4
        assert part.count_a(1) == 16
        assert part.count_b(2) == 4
        assert part.count_b(1) == 16
        assert len(part.neutral) == 6

    def test_partition_counts_scale_with_l(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        for l in (2, 4):
            inst = build_link_gadget(g, l, 2)
            facets = link_facets(inst.complex(), inst.tau)
            part = partition_link_facets(inst, facets)
            assert len(facets) == 2 * l**2 + 16 * l + 6
            assert part.count_a(2) == l**2
            assert part.count_a(1) == 8 * l

    def test_every_base_contains_pendant_edge(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        inst = build_link_gadget(g, 1, 2)
        bases = enumerate_nbc_bases(inst.complex())
        assert len(bases) > 100
        for b in bases:
            assert 0 in b

    def test_neighbors_of_a_side_stay_close(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        inst = build_link_gadget(g, 2, 2)
        facets = link_facets(inst.complex(), inst.tau)
        part = partition_link_facets(inst, facets)
        walk = down_up_matrix(facets)
        a_side = set(part.s_a)
        allowed = a_side | set(part.by_b.get(1, ())) | set(part.neutral)
        for facet in part.s_a:
            i = walk.positions_of([facet])[0]
            for j in range(walk.size):
                if walk.entry(i, j) != 0:
                    assert walk.index[j] in allowed

    def test_neighbor_ratio_bound(self):
        from nbcwalk import neighbor_ratio

        g = build_named_graph("complete_bipartite", 2, 2)
        inst = build_link_gadget(g, 2, 2)
        facets = link_facets(inst.complex(), inst.tau)
        part = partition_link_facets(inst, facets)
        walk = down_up_matrix(facets)
        ratio = neighbor_ratio(walk, part.s_a)
        assert ratio <= F(part.count_b(1) + len(part.neutral), 4)

    def test_gap_certificate(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        inst = build_link_gadget(g, 2, 2)
        report = gap_certificate(inst)
        assert report["paper_bound"] == 12
        assert report["facet_count"] == 46
        assert len(report["partition"].s_a) == 20
        assert report["s_a_at_most_half"]
        assert report["measured_gap"] / 2 <= float(report["conductance"]) + 1e-7

    def test_gap_certificate_carries_its_partition(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        for l in (2, 4):
            inst = build_link_gadget(g, l, 2)
            part = gap_certificate(inst)["partition"]
            direct = partition_link_facets(inst, link_facets(inst.complex(), inst.tau))
            assert part.by_a == direct.by_a and part.by_b == direct.by_b
            assert part.neutral == direct.neutral and part.count_a(2) == l**2

    @pytest.mark.parametrize("side", ["empty", "every facet"])
    def test_gap_certificate_refuses_an_improper_a_side(self, monkeypatch, side):
        # cheeger_chain's cut is the one check that the A-side family is a
        # nonempty proper subset of the link facets.
        real = gadgets.partition_link_facets

        def partition(inst, facets):
            real(inst, facets)
            if side == "empty":
                return gadgets.LinkPartition({}, {}, tuple(facets))
            return gadgets.LinkPartition({1: tuple(facets)}, {}, ())

        monkeypatch.setattr(gadgets, "partition_link_facets", partition)
        inst = build_link_gadget(build_named_graph("complete_bipartite", 2, 2), 2, 2)
        match = "nonempty" if side == "empty" else "proper"
        with pytest.raises(PreconditionError, match=f"the state subset must be {match}"):
            gap_certificate(inst)

    def test_gap_shrinks_with_l(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        gaps = {}
        for l in (2, 4):
            inst = build_link_gadget(g, l, 2)
            gaps[l] = gap_certificate(inst)["measured_gap"]
        assert gaps[4] < gaps[2]

    def test_triangle_base_builds_but_does_not_partition(self):
        g = build_named_graph("complete", 3)
        inst = build_link_gadget(g, 2, 2)
        facets = link_facets(inst.complex(), inst.tau)
        assert facets
        with pytest.raises(PreconditionError):
            partition_link_facets(inst, facets)

    def test_part_size_must_match_m(self):
        g = build_named_graph("complete_bipartite", 2, 3)
        inst = build_link_gadget(g, 2, 4)
        facets = link_facets(inst.complex(), inst.tau)
        with pytest.raises(PreconditionError):
            partition_link_facets(inst, facets)

    @pytest.mark.parametrize("l", [1, 2])
    def test_the_m_sized_side_may_be_the_second_colour_class(self, l):
        # K2,3's canonical classes are {0, 1} and {2, 3, 4}; at m = 3 the
        # A side is the second, so the facets counted there meet only the
        # f-edges of vertices 2, 3 and 4.
        inst = build_link_gadget(build_named_graph("complete_bipartite", 2, 3), l, 3)
        facets = link_facets(inst.complex(), inst.tau)
        assert len(facets) == {1: 108, 2: 235}[l]
        part = partition_link_facets(inst, facets)
        assert part.count_a(3) == l**3
        f_start = min(inst.marked_sets["f_edges"])
        owners = {(e - f_start) // l for f in part.s_a for e in f & inst.marked_sets["f_edges"]}
        assert owners == {2, 3, 4}

    def test_size_guard(self):
        g = build_named_graph("complete_bipartite", 5, 5)
        with pytest.raises(SizeGuardError):
            build_link_gadget(g, 300, 5)

    def test_rejects_oversized_target(self):
        g = build_named_graph("complete", 3)
        with pytest.raises(PreconditionError):
            build_link_gadget(g, 2, 4)


class TestOptReduction:
    def test_square_with_distinct_weights(self):
        g = build_named_graph("cycle", 4)
        inst = build_opt_reduction(g, WeightVector([1, 2, 3, 4]))
        base, base_val = max_weight_nbc_base(inst.complex(), inst.weights)
        ind, ind_val = max_weight_independent_set(g, WeightVector([1, 2, 3, 4]))
        assert base_val == ind_val == 6
        assert ind == frozenset({1, 3})
        assert frozenset(e - 4 for e in base if e >= 4) == ind

    def test_single_vertex(self):
        g = MultiGraph(1, [])
        inst = build_opt_reduction(g, WeightVector([5]))
        base, val = max_weight_nbc_base(inst.complex(), inst.weights)
        assert val == 5 and base == frozenset({0})

    def test_ties_break_lexicographically_greatest(self):
        g = build_named_graph("cycle", 4)
        ind, val = max_weight_independent_set(g, WeightVector([1, 1, 1, 1]))
        assert val == 2 and ind == frozenset({1, 3})
        inst = build_opt_reduction(g, WeightVector([1, 1, 1, 1]))
        base, base_val = max_weight_nbc_base(inst.complex(), inst.weights)
        assert base_val == 2

    def test_rejects_negative_weights(self):
        g = build_named_graph("complete", 3)
        with pytest.raises(PreconditionError):
            build_opt_reduction(g, WeightVector([1, -1, 1]))

    def test_weight_length_must_match(self):
        g = build_named_graph("complete", 3)
        with pytest.raises(PreconditionError):
            build_opt_reduction(g, WeightVector([1, 2]))


def _weight_draws(rng, m):
    """Weight vectors of length m: small non-negative integers, integers of
    both signs, fractions of both signs, all equal (every base ties), and
    0/1 (many ties)."""
    return [
        [rng.randint(0, 10) for _ in range(m)],
        [rng.randint(-6, 6) for _ in range(m)],
        [F(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(m)],
        [F(3, 2)] * m,
        [rng.randint(0, 1) for _ in range(m)],
    ]


def _differential_corpus():
    """Complexes for the branch and bound against the exhaustive maximizer:
    opt-reduction complexes of random graphs drawn as in acceptance
    criterion 09, each under the identity order, a random order and a random
    truncation; random multigraphs (parallel edges, disconnected); and
    K4 at full rank and truncated below it."""
    rng = random.Random(SEED + 26)
    out = []
    for _ in range(30):
        nv = rng.randint(2, 7)
        possible = list(itertools.combinations(range(nv), 2))
        g = MultiGraph(nv, sorted(rng.sample(possible, rng.randint(1, min(len(possible), 10)))))
        matroid = build_opt_reduction(g, [0] * nv).matroid
        m = matroid.ground_size
        out.append(NbcComplex(matroid))
        out.append(NbcComplex(matroid, rng.sample(range(m), m)))
        truncated = GraphicMatroid(matroid.graph, rng.randint(1, matroid.rank))
        out.append(NbcComplex(truncated, rng.sample(range(m), m)))
    for g in random_multigraphs(count=10, max_vertices=6, max_edges=9, seed=SEED + 26):
        out.append(NbcComplex(GraphicMatroid(g), rng.sample(range(g.edge_count), g.edge_count)))
    k4 = build_named_graph("complete", 4)
    out.append(NbcComplex(GraphicMatroid(k4, 3), rng.sample(range(6), 6)))
    out.append(NbcComplex(GraphicMatroid(k4, 2)))
    return out, rng


class TestMaxWeightBranchAndBound:
    def test_matches_the_exhaustive_maximizer(self):
        # The identical (base, value) pair, not only the value: ties must go
        # to the lexicographically greatest base as _heaviest sends them.
        # The tie count is every listed base of that value.
        corpus, rng = _differential_corpus()
        for x in corpus:
            bases = enumerate_nbc_bases(x)
            for weights in _weight_draws(rng, x.matroid.ground_size):
                w = WeightVector(weights)
                expected = gadgets._heaviest(bases, w)
                assert max_weight_nbc_base(x, w) == expected, (x, weights)
                ties = sum(1 for b in bases if w.weight_of(b) == expected[1])
                base, best, count = nbc.heaviest_nbc_bases(x, w.nums)
                assert type(best) is int, (x, weights)
                assert (base, Fraction(best, w.den), count) == (*expected, ties), (x, weights)

    def test_tied_square_base_is_pinned(self):
        # Both maximum-weight bases of the C4 reduction weigh 2; the
        # lexicographically greater one is kept.
        g = build_named_graph("cycle", 4)
        inst = build_opt_reduction(g, WeightVector([1, 1, 1, 1]))
        assert max_weight_nbc_base(inst.complex(), inst.weights) == (frozenset({0, 2, 5, 7}), 2)

    def test_bench_instance_visits_under_a_quarter_of_the_faces(self, monkeypatch):
        # The faces the walk yields to the maximizer on `reduce opt --graph
        # complete_bipartite:3:4 --vertex-weights 1,...,7`, against the 5277
        # faces of the whole walk.
        inst = build_opt_reduction(
            build_named_graph("complete_bipartite", 3, 4), WeightVector(range(1, 8))
        )
        x = inst.complex()
        walk = nbc._walk
        assert sum(1 for _ in walk(x)) == 5277
        visited = []

        def counting(*args, **kwargs):
            for face in walk(*args, **kwargs):
                visited.append(len(face))
                yield face

        monkeypatch.setattr(nbc, "_walk", counting)
        base, val = max_weight_nbc_base(x, inst.weights)
        assert (sorted(base), val) == ([0, 4, 8, 15, 16, 17, 18], 22)
        assert len(visited) <= 5277 // 4

    def test_bench_instance_faces_are_pinned(self, monkeypatch):
        # The same instance.  Counting ties, the ascending walk visits 489
        # faces; the maximizer's descending walk also prunes a child that can
        # at most tie the best base so far, and visits 393.
        inst = build_opt_reduction(
            build_named_graph("complete_bipartite", 3, 4), WeightVector(range(1, 8))
        )
        x = inst.complex()
        walk, visited = nbc._walk, []

        def counting(*args, **kwargs):
            for face in walk(*args, **kwargs):
                visited.append(len(face))
                yield face

        monkeypatch.setattr(nbc, "_walk", counting)
        base, best, ties = nbc.heaviest_nbc_bases(x, inst.weights.nums)
        assert (sorted(base), best, ties, len(visited)) == ([0, 4, 8, 15, 16, 17, 18], 22, 1, 489)
        visited.clear()
        base, val = max_weight_nbc_base(x, inst.weights)
        assert (sorted(base), val, len(visited)) == ([0, 4, 8, 15, 16, 17, 18], 22, 393)

    def test_collects_no_bases(self, monkeypatch):
        # MAX_NBC_BASES does not bound the maximizer, and the complex's facet
        # cache stays empty.
        k5 = GraphicMatroid(build_named_graph("complete", 5))
        w = WeightVector(range(10))
        expected = gadgets._heaviest(enumerate_nbc_bases(NbcComplex(k5)), w)
        monkeypatch.setattr(nbc, "MAX_NBC_BASES", 1)
        x = NbcComplex(k5)
        assert max_weight_nbc_base(x, w) == expected
        assert x._facet_cache is None

    def test_needs_one_weight_per_element(self):
        # One length check, in nbc, for both the rational and the integer
        # entry point.
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        with pytest.raises(PreconditionError, match="^need exactly one weight per element$"):
            max_weight_nbc_base(x, WeightVector([1, 2]))
        with pytest.raises(PreconditionError, match="^need exactly one weight per element$"):
            nbc.heaviest_nbc_bases(x, (1, 2, 3, 4))

    def test_a_rank_zero_truncation_has_no_bases(self):
        # Its walk has no face at all, since even e0 overfills rank 0.
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3), 0))
        with pytest.raises(PreconditionError, match="^the complex has no bases$"):
            max_weight_nbc_base(x, WeightVector([1, 2, 3]))


class TestFieldReduction:
    def test_pentagon_partition_function(self):
        g = build_named_graph("cycle", 5)
        inst = build_field_reduction(g, 2, 10)
        x = inst.complex()
        assert nbc_partition_function(x, inst.weights) == 760
        assert nbc_partition_function(x, WeightVector([1] * len(inst.weights))) == 40

    def test_warns_below_threshold(self):
        g = build_named_graph("cycle", 5)
        with pytest.warns(UserWarning):
            build_field_reduction(g, 2, 3)

    def test_rejects_m_above_independence_number(self):
        g = build_named_graph("complete", 3)
        with pytest.raises(PreconditionError):
            build_field_reduction(g, 2, 10)

    def test_field_weights_at_least_one(self):
        g = build_named_graph("cycle", 5)
        inst = build_field_reduction(g, 2, 10)
        assert all(w >= 1 for w in inst.weights)
        with pytest.raises(PreconditionError):
            build_field_reduction(g, 2, F(1, 2))


class TestPartitionFunctionOfBases:
    """nbc_partition_function takes a bare GraphicMatroid too: it sums the
    weight products over its bases, which for a connected graph at full rank
    are its spanning trees, so the weighted matrix-tree cofactor is an
    oracle."""

    def test_k3_trees_against_its_nbc_bases(self):
        k3 = GraphicMatroid(build_named_graph("complete", 3))
        # Trees {0,1}, {0,2}, {1,2}; the broken circuit {1,2} leaves two NBC bases.
        assert nbc_partition_function(k3, WeightVector([1, 2, 3])) == 2 + 3 + 6
        assert nbc_partition_function(NbcComplex(k3), WeightVector([1, 2, 3])) == 2 + 3
        with pytest.raises(PreconditionError, match="one weight per element"):
            nbc_partition_function(k3, [1, 2])

    def test_connected_graphs_at_full_rank_give_the_weighted_tree_sum(self):
        rng = random.Random(SEED + 41)
        graphs = random_graph_corpus(count=8, seed=SEED + 41)
        multigraphs = random_multigraphs(count=60, max_vertices=6, seed=SEED + 41)
        graphs += [g for g in multigraphs if component_count(g.vertex_count, g.edges) == 1]
        for g in graphs:
            weights = [F(rng.randint(-4, 9), rng.randint(1, 5)) for _ in range(g.edge_count)]
            got = nbc_partition_function(GraphicMatroid(g), weights)
            assert got == kirchhoff_tree_sum(g, weights), g.edges
        assert len(graphs) > 20
        assert sum(len(set(g.edges)) < g.edge_count for g in graphs) > 5  # with parallel edges


class TestCountingSandwich:
    def test_facet_mode_anchor(self):
        report = verify_counting_sandwich(build_named_graph("cycle", 5), 2, 20, "facet-count")
        assert report.target_quantity == 2510
        assert report.lower_bound == 2000 and report.upper_bound == 4000
        assert report.verdict

    def test_field_mode_anchor(self):
        report = verify_counting_sandwich(
            build_named_graph("cycle", 5), 2, 10, "partition-function"
        )
        assert report.target_quantity == 760
        assert report.lower_bound == 500 and report.upper_bound == 1000
        assert report.verdict

    def test_force_reaches_the_field_gadget(self, monkeypatch):
        monkeypatch.setattr(graphs, "INDEP_COUNT_MAX_VERTICES", 4)
        g = build_named_graph("cycle", 5)
        with pytest.raises(SizeGuardError):
            verify_counting_sandwich(g, 2, 10, "partition-function")
        report = verify_counting_sandwich(g, 2, 10, "partition-function", force=True)
        assert report.target_quantity == 760

    def test_field_mode_counts_independent_sets_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return count_independent_sets_by_size(*args, **kwargs)

        monkeypatch.setattr(gadgets, "count_independent_sets_by_size", counting)
        report = verify_counting_sandwich(build_named_graph("cycle", 5), 2, 10, "partition-function")
        assert report.target_quantity == 760 and report.verdict
        assert len(calls) == 1

    def test_field_gadget_keeps_its_own_checks(self):
        g = MultiGraph(3, [])
        with pytest.raises(PreconditionError, match="at least 1"):
            verify_counting_sandwich(g, 1, 0, "partition-function")

    def test_rejects_small_l(self):
        with pytest.raises(PreconditionError):
            verify_counting_sandwich(build_named_graph("cycle", 5), 2, 9, "facet-count")

    def test_rejects_bad_mode(self):
        with pytest.raises(PreconditionError):
            verify_counting_sandwich(build_named_graph("cycle", 5), 2, 20, "exact")

    def test_rejects_non_dominant_level(self):
        star = build_named_graph("complete_bipartite", 1, 4)
        with pytest.raises(PreconditionError, match="k=1"):
            verify_counting_sandwich(star, 3, 100, "facet-count")

    def test_source_is_independent_set_count(self):
        g = build_named_graph("cycle", 5)
        report = verify_counting_sandwich(g, 2, 20, "facet-count")
        assert report.source_quantity == count_independent_sets_by_size(g)[2] == 5


_C5 = build_named_graph("cycle", 5)


class TestRefusalsByMessage:
    """Each builder and verifier refuses a bad argument with its own message."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: build_link_gadget("K2,2", 2, 2), "base_graph must be a MultiGraph"),
            (lambda: build_link_gadget(_C5, 0, 2), "l must be at least 1"),
            (
                lambda: build_link_gadget(MultiGraph(0, []), 2, 0),
                "the base graph needs at least one vertex",
            ),
            (lambda: build_opt_reduction("C5", [1] * 5), "g must be a MultiGraph"),
            (lambda: build_field_reduction("C5", 2, 20), "g must be a MultiGraph"),
            (lambda: verify_counting_sandwich(_C5, 0, 20, "facet-count"), "m must be at least 1"),
            (
                lambda: verify_counting_sandwich(_C5, 3, 20, "facet-count"),
                "m=3 exceeds the independence number 2",
            ),
            (lambda: build_hardcore_reduction(_C5, -1), "r must be non-negative"),
        ],
        ids=[
            "link-non-graph",
            "link-l-0",
            "link-no-vertex",
            "opt-non-graph",
            "field-non-graph",
            "sandwich-m-0",
            "sandwich-m-above-alpha",
            "hardcore-negative-r",
        ],
    )
    def test_refusal(self, call, message):
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == message


class TestHardcore:
    def test_union_shape(self):
        g = build_named_graph("complete", 3)
        union = build_hardcore_reduction(g, 2)
        assert union.vertex_count == 3 + 16
        assert union.edge_count == 3 + 2 * 28

    def test_identities_on_triangle(self):
        report = verify_hardcore_identities(build_named_graph("complete", 3), 2)
        assert report["counts_copies"] == (1, 16, 64)
        assert report["counts_union"] == (1, 19, 112, 192)

    def test_identities_on_path(self):
        report = verify_hardcore_identities(build_named_graph("path", 4), 3)
        assert report["counts_g"] == (1, 4, 3)
        assert report["counts_copies"] == (1, 24, 192, 512)

    def test_zero_copies(self):
        report = verify_hardcore_identities(build_named_graph("complete", 3), 0)
        assert report["counts_copies"] == (1,)
        assert report["counts_union"] == (1, 3)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            verify_hardcore_identities(build_named_graph("complete", 3), 4)

    def test_union_is_g_then_the_copies(self):
        g = build_named_graph("cycle", 5)
        k8 = build_named_graph("complete", 8)
        assert build_hardcore_reduction(g, 2) == disjoint_union(disjoint_union(g, k8), k8)
        assert build_hardcore_reduction(g, 0) == g

    def test_builds_the_copies_once_and_enumerates_g_once(self, monkeypatch):
        g = build_named_graph("complete", 3)
        built, enumerated = [], []
        real_build, real_iter = gadgets.build_named_graph, graphs.iter_independent_sets

        def building(*args):
            built.append(args)
            return real_build(*args)

        def iterating(h, *args, **kwargs):
            if h is g:
                enumerated.append(h)
            return real_iter(h, *args, **kwargs)

        monkeypatch.setattr(gadgets, "build_named_graph", building)
        for module in (gadgets, graphs):
            monkeypatch.setattr(module, "iter_independent_sets", iterating)
        report = verify_hardcore_identities(g, 2)
        assert report["counts_union"] == (1, 19, 112, 192)
        assert built == [("complete", 8)]
        assert len(enumerated) == 1

    def test_enumerates_the_union_once(self, monkeypatch):
        # One pass over the union's independent sets gives both its counts by
        # size and the T_{S,k} levels.
        g = build_named_graph("cycle", 5)
        enumerated = []
        real_iter = graphs.iter_independent_sets

        def iterating(h, *args, **kwargs):
            if h.vertex_count == g.vertex_count + 16:
                enumerated.append(h)
            return real_iter(h, *args, **kwargs)

        for module in (gadgets, graphs):
            monkeypatch.setattr(module, "iter_independent_sets", iterating)
        report = verify_hardcore_identities(g, 2)
        assert report["counts_union"] == (1, 21, 149, 400, 320)
        assert len(enumerated) == 1

    def test_successor_ratio_spot_value(self):
        # i_k(r K8) = C(r, k) 8^k, so i_k / i_(k-1) = 8 (r - k + 1) / k.
        r = 3
        report = verify_hardcore_identities(build_named_graph("complete", 3), r)
        cc = report["counts_copies"]
        assert cc == (1, 24, 192, 512)
        for k in range(1, r + 1):
            assert F(cc[k], cc[k - 1]) == F(8 * (r - k + 1), k)


class TestCriticalThreshold:
    def test_degree_seven(self):
        assert critical_threshold(7) == F(46656, 78125)
        assert critical_threshold(7) < F(3, 5)

    def test_degree_three(self):
        assert critical_threshold(3) == 4

    def test_rejects_small_degree(self):
        with pytest.raises(PreconditionError):
            critical_threshold(2)


class TestIntegerParameters:
    """A parameter that is not equal to an integer is refused by name rather
    than truncated by int(); one equal to an integer is taken as it."""

    def test_long_edge_n(self):
        with pytest.raises(PreconditionError, match="n must be an integer"):
            build_long_edge_instance(5.9)
        assert build_long_edge_instance(5.0).matroid.graph == build_long_edge_instance(5).matroid.graph

    def test_link_gadget_l_and_target_size(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        with pytest.raises(PreconditionError, match="l must be an integer"):
            build_link_gadget(g, 2.7, 2)
        with pytest.raises(PreconditionError, match="target_size must be an integer"):
            build_link_gadget(g, 2, F(3, 2))
        assert build_link_gadget(g, F(2), 2.0).matroid.rank == 11

    def test_field_reduction_m(self):
        g = build_named_graph("cycle", 5)
        with pytest.raises(PreconditionError, match="m must be an integer"):
            build_field_reduction(g, 1.5, 10)
        # The field value stays rational.
        assert build_field_reduction(g, 2.0, F(21, 2)).weights[-1] == F(21, 2)

    def test_counting_sandwich_m_and_l(self):
        c5 = build_named_graph("cycle", 5)
        with pytest.raises(PreconditionError, match="l must be an integer"):
            verify_counting_sandwich(c5, 2, F(41, 2), "facet-count")
        with pytest.raises(PreconditionError, match="m must be an integer"):
            verify_counting_sandwich(c5, 2.5, 20, "partition-function")
        assert verify_counting_sandwich(c5, 2.0, F(20), "facet-count").lower_bound == 2000

    def test_hardcore_reduction_r(self):
        with pytest.raises(PreconditionError, match="r must be an integer"):
            build_hardcore_reduction(build_named_graph("complete", 3), 1.5)

    def test_hardcore_identities_r(self):
        with pytest.raises(PreconditionError, match="r must be an integer"):
            verify_hardcore_identities(build_named_graph("complete", 3), F(3, 2))

    def test_critical_threshold_delta(self):
        with pytest.raises(PreconditionError, match="delta must be an integer"):
            critical_threshold(7.5)
        assert critical_threshold(7.0) == F(46656, 78125)


class TestGadgetInstance:
    def test_complex_is_fresh_but_consistent(self):
        inst = build_long_edge_instance(3)
        a = enumerate_nbc_bases(inst.complex())
        b = enumerate_nbc_bases(inst.complex())
        assert a == b

    def test_link_gadget_gap_close_to_conductance_scale(self):
        g = build_named_graph("complete_bipartite", 2, 2)
        inst = build_link_gadget(g, 4, 2)
        report = gap_certificate(inst)
        assert float(report["conductance"]) <= float(report["neighbor_ratio"])
