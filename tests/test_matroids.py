"""Graphic matroids, truncated or not."""

import itertools
from types import SimpleNamespace

import pytest

from nbcwalk import (
    GraphicMatroid,
    MultiGraph,
    NbcComplex,
    PreconditionError,
    SizeGuardError,
    build_named_graph,
    cli,
    down_up_matrix,
    is_nbc,
    nbc,
)
from helpers import (
    brute_bases,
    brute_circuits,
    brute_nbc_faces,
    graphic_indep,
    random_graph_corpus,
    random_multigraphs,
    random_orders,
    spanning_tree_count,
    theta_graph,
    truncated_indep,
)


def _checked_views(g):
    """The graphic matroid of g and its truncation one below full rank; both
    share one fundamental_circuit argument check."""
    graphic = GraphicMatroid(g)
    return graphic, GraphicMatroid(g, graphic.rank - 1)


class TestGraphicMatroid:
    def test_rank_of_triangle(self):
        assert GraphicMatroid(build_named_graph("complete", 3)).rank == 2
        assert GraphicMatroid(MultiGraph(3, [(0, 1)])).rank == 1
        assert GraphicMatroid(MultiGraph(3, [])).rank == 0

    def test_independence(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        assert mat.is_independent({0, 1})
        assert not mat.is_independent({0, 1, 2})

    def test_parallel_pair_is_circuit(self):
        mat = GraphicMatroid(MultiGraph(2, [(0, 1), (0, 1)]))
        assert mat.fundamental_circuit({0}, 1) == frozenset({0, 1})

    def test_triangle_circuit(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        for e in range(3):
            assert mat.fundamental_circuit({0, 1, 2} - {e}, e) == frozenset({0, 1, 2})

    def test_enumerate_bases_triangle(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        assert [sorted(b) for b in down_up_matrix(mat).index] == [[0, 1], [0, 2], [1, 2]]

    def test_enumerate_bases_square(self):
        mat = GraphicMatroid(build_named_graph("cycle", 4))
        assert down_up_matrix(mat).size == 4

    def test_walk_lists_the_bases_in_order(self):
        """A bare matroid's bases come from nbc's forest walk: at every rank
        r >= 1 they are the brute-force bases in lexicographic order, and at
        full rank a connected graph has as many as Kirchhoff's determinant
        counts.  Rank 0 has only the empty base, which makes no walk."""
        for g in random_multigraphs(count=60) + random_graph_corpus(count=20):
            indep = graphic_indep(g)
            full = GraphicMatroid(g).rank
            for r in range(1, full + 1):
                index = down_up_matrix(GraphicMatroid(g, r)).index
                assert list(index) == sorted(brute_bases(g.edge_count, indep, r), key=sorted), (g, r)
                if r == full and g.is_connected():
                    assert len(index) == spanning_tree_count(g), g
            with pytest.raises(PreconditionError):
                down_up_matrix(GraphicMatroid(g, 0))
        for n in (5, 6, 7):
            g = build_named_graph("complete", n)
            assert down_up_matrix(GraphicMatroid(g)).size == spanning_tree_count(g) == n ** (n - 2)

    def test_fundamental_circuit_none_when_independent(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        assert mat.fundamental_circuit({0}, 1) is None

    def test_fundamental_circuit_triangle(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        assert mat.fundamental_circuit({0, 1}, 2) == frozenset({0, 1, 2})

    def test_fundamental_circuit_rejects_dependent_start(self):
        g = MultiGraph(3, [(0, 1), (0, 1), (1, 2)])
        for mat in _checked_views(g):
            with pytest.raises(PreconditionError):
                mat.fundamental_circuit({0, 1}, 2)

    def test_fundamental_circuit_rejects_member(self):
        for mat in _checked_views(build_named_graph("complete", 3)):
            with pytest.raises(PreconditionError):
                mat.fundamental_circuit({0, 1}, 1)

    def test_fundamental_circuit_rejects_out_of_range(self):
        for mat in _checked_views(build_named_graph("complete", 3)):
            for e in (3, -1):
                with pytest.raises(PreconditionError, match="out of range"):
                    mat.fundamental_circuit({0}, e)

    def test_circuits_match_brute_force(self):
        for g in random_graph_corpus(count=3, max_edges=8):
            _assert_closes_every_circuit(GraphicMatroid(g), brute_circuits(g.edge_count, graphic_indep(g)))

    def test_rank_matches_brute(self):
        for g in random_graph_corpus(count=2, max_edges=7):
            mat = GraphicMatroid(g)
            indep = graphic_indep(g)
            for size in range(4):
                for combo in itertools.combinations(range(g.edge_count), size):
                    expected = max(
                        (len(t) for t in _subsets(combo) if indep(frozenset(t))), default=0
                    )
                    sub = MultiGraph(g.vertex_count, [g.edges[e] for e in combo])
                    assert GraphicMatroid(sub).rank == expected

    def test_check_subset(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        with pytest.raises(PreconditionError):
            mat.is_independent({0, 9})


def _assert_closes_every_circuit(mat, circuits):
    """Each circuit c is the fundamental circuit that any of its elements
    closes on the rest of c."""
    for c in circuits:
        for e in c:
            assert mat.fundamental_circuit(c - {e}, e) == c, (mat, sorted(c), e)


def _subsets(ids):
    out = []
    ids = list(ids)
    for size in range(len(ids) + 1):
        out.extend(itertools.combinations(ids, size))
    return out


class TestTruncatedMatroid:
    """GraphicMatroid(graph, rank) with rank below the graph's rank."""

    def test_rank_clamps(self):
        c5 = build_named_graph("cycle", 5)
        assert GraphicMatroid(c5).rank == 4
        assert GraphicMatroid(c5, 2).rank == 2

    def test_independence_caps_size(self):
        mat = GraphicMatroid(build_named_graph("cycle", 5), 2)
        assert mat.is_independent({0, 1})
        assert not mat.is_independent({0, 1, 2})

    def test_independence_checks_range_before_size(self):
        mat = GraphicMatroid(MultiGraph(3, [(0, 1), (0, 1), (1, 2)]), 1)
        assert mat.is_independent({2}) and not mat.is_independent({0, 2})
        assert not mat.is_independent({0, 1})
        with pytest.raises(PreconditionError, match="element 9 out of range"):
            mat.is_independent({0, 1, 9})

    def test_circuits_add_top_layer(self):
        # C5 has no cycle below 5 edges, so at rank 2 its circuits are the
        # ten 3-sets.
        mat = GraphicMatroid(build_named_graph("cycle", 5), 2)
        _assert_closes_every_circuit(mat, map(frozenset, itertools.combinations(range(5), 3)))

    def test_circuits_keep_small_inner(self):
        g = MultiGraph(3, [(0, 1), (0, 1), (0, 2), (1, 2)])
        mat = GraphicMatroid(g, 2)
        assert mat.fundamental_circuit({0}, 1) == frozenset({0, 1})
        for s in map(frozenset, itertools.combinations(range(4), 2)):
            if mat.is_independent(s):
                for e in set(range(4)) - s:
                    assert len(mat.fundamental_circuit(s, e)) <= 3

    def test_circuits_match_brute_force(self):
        cases = [(build_named_graph("cycle", 5), (1, 2, 3))]
        for name in ("K4", "parallel"):
            g = SMALL_GRAPHS[name]
            cases.append((g, range(GraphicMatroid(g).rank + 1)))
        for g, ranks in cases:
            for rank in ranks:
                mat = GraphicMatroid(g, rank)
                _assert_closes_every_circuit(mat, brute_circuits(g.edge_count, truncated_indep(g, rank)))

    def test_fundamental_circuit_cases(self):
        square = GraphicMatroid(build_named_graph("cycle", 4), 2)
        assert square.fundamental_circuit({0}, 1) is None
        assert square.fundamental_circuit({0, 1}, 2) == frozenset({0, 1, 2})
        triangle = GraphicMatroid(build_named_graph("complete", 3), 2)
        assert triangle.fundamental_circuit({0, 1}, 2) == frozenset({0, 1, 2})

    def test_untruncated_is_identity(self):
        inner = GraphicMatroid(build_named_graph("cycle", 4))
        mat = GraphicMatroid(inner.graph, inner.rank)
        assert down_up_matrix(mat).index == down_up_matrix(inner).index
        for s in map(frozenset, _subsets(range(4))):
            assert mat.is_independent(s) == inner.is_independent(s)

    def test_rank_zero(self):
        mat = GraphicMatroid(build_named_graph("complete", 3), 0)
        assert mat.rank == 0
        assert mat.is_independent(())
        assert not mat.is_independent({0})
        assert all(mat.fundamental_circuit((), e) == frozenset({e}) for e in range(3))

    def test_rejects_a_non_graph(self):
        with pytest.raises(PreconditionError, match="^GraphicMatroid needs a MultiGraph$"):
            GraphicMatroid([(0, 1), (1, 2)])

    def test_rejects_bad_rank(self):
        k3 = build_named_graph("complete", 3)
        for rank in (3, -1):
            with pytest.raises(PreconditionError) as err:
                GraphicMatroid(k3, rank)
            assert str(err.value) == f"rank {rank} outside 0..2 (the graph's rank)"


class TestGuards:
    def test_deep_enumeration_is_size_guard(self):
        mat = GraphicMatroid(build_named_graph("path", 1200))
        with pytest.raises(SizeGuardError, match="MAX_NBC_FACES=2000000 independent sets visited"):
            down_up_matrix(mat)


def _brute_fundamental_circuit(indep, s, e):
    """The minimal dependent subsets of s + e under indep: none when s + e is
    independent, otherwise exactly one, which is returned."""
    grown = sorted(s | {e})
    minimal = [
        c
        for size in range(1, len(grown) + 1)
        for c in map(frozenset, itertools.combinations(grown, size))
        if not indep(c) and all(indep(c - {x}) for x in c)
    ]
    assert len(minimal) <= 1, minimal
    return minimal[0] if minimal else None


SMALL_GRAPHS = {
    "K4": build_named_graph("complete", 4),
    "C5": build_named_graph("cycle", 5),
    "theta7": theta_graph(7),
    "parallel": MultiGraph(3, [(0, 1), (0, 1), (1, 2), (0, 2), (1, 2)]),
}


class TestFundamentalCircuitOracle:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_matches_brute_force_on_every_independent_set(self, name):
        g = SMALL_GRAPHS[name]
        m = g.edge_count
        graphic = GraphicMatroid(g)
        views = [(graphic, graphic_indep(g))]
        for rank in range(graphic.rank + 1):
            views.append((GraphicMatroid(g, rank), truncated_indep(g, rank)))
        for mat, indep in views:
            for size in range(m + 1):
                for combo in itertools.combinations(range(m), size):
                    s = frozenset(combo)
                    if not indep(s):
                        continue
                    for e in range(m):
                        if e not in s:
                            assert mat.fundamental_circuit(s, e) == _brute_fundamental_circuit(
                                indep, s, e
                            ), (name, mat, sorted(s), e)



class TestIsNbcOracle:
    @pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
    def test_matches_brute_force_on_every_subset(self, name):
        """is_nbc on the graphic matroid, plain and at every truncation rank,
        against the brute broken-circuit faces."""
        g = SMALL_GRAPHS[name]
        m = g.edge_count
        graphic = GraphicMatroid(g)
        cases = [(graphic, graphic_indep(g))]
        cases += [(GraphicMatroid(g, rank), truncated_indep(g, rank)) for rank in range(graphic.rank + 1)]
        subsets = [frozenset(c) for size in range(m + 1) for c in itertools.combinations(range(m), size)]
        for ranking in random_orders(m, 3):
            for mat, indep in cases:
                faces = brute_nbc_faces(m, indep, ranking)
                x = NbcComplex(mat, ranking)
                for s in subsets:
                    assert is_nbc(x, s) == (s in faces), (name, mat, ranking, sorted(s))


class TestNbcComplexRefusal:
    def test_refuses_every_other_matroid(self, monkeypatch):
        """Only a GraphicMatroid, truncated or not, makes a complex; a bare
        graph, None or a stand-in with the same attributes is refused before
        an engine is built, with the one-line error the CLI maps to exit 2."""

        def no_engine(x):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(nbc, "_engine", no_engine)
        k4 = build_named_graph("complete", 4)
        graphic = GraphicMatroid(k4)
        stand_in = SimpleNamespace(
            graph=k4, ground_size=6, rank=3, is_independent=graphic.is_independent
        )
        refused = [k4, None, stand_in]
        for matroid in refused:
            with pytest.raises(PreconditionError) as err:
                NbcComplex(matroid)
            assert str(err.value) == "NbcComplex needs a graphic matroid or a truncation of one"
            assert cli._EXIT_CODES[type(err.value)] == 2
