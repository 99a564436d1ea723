"""Graphic matroids, truncations, and the generic matroid machinery."""

import itertools

import pytest

from nbcwalk import (
    GraphicMatroid,
    MultiGraph,
    NbcComplex,
    PreconditionError,
    SizeGuardError,
    TruncatedMatroid,
    build_link_gadget,
    build_named_graph,
    down_up_matrix,
    is_nbc,
    matroids,
)
from helpers import (
    OpaqueMatroid,
    brute_circuits,
    graphic_indep,
    random_graph_corpus,
    theta_graph,
    truncated_indep,
)


def _checked_views(g):
    """The graphic matroid of g, its full-rank truncation and the generic
    oracle path; all three share one fundamental_circuit argument check."""
    graphic = GraphicMatroid(g)
    return graphic, TruncatedMatroid(graphic, graphic.rank), OpaqueMatroid(g)


class TestGraphicMatroid:
    def test_rank_of_triangle(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        assert mat.rank == 2
        assert mat.rank_of({0, 1, 2}) == 2
        assert mat.rank_of({0}) == 1
        assert mat.rank_of(()) == 0

    def test_independence(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        assert mat.is_independent({0, 1})
        assert not mat.is_independent({0, 1, 2})
        assert mat.is_dependent({0, 1, 2})

    def test_parallel_pair_is_circuit(self):
        mat = GraphicMatroid(MultiGraph(2, [(0, 1), (0, 1)]))
        assert mat.circuits() == (frozenset({0, 1}),)

    def test_triangle_circuit(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        assert mat.circuits() == (frozenset({0, 1, 2}),)

    def test_enumerate_bases_triangle(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        assert [sorted(b) for b in mat.enumerate_bases()] == [[0, 1], [0, 2], [1, 2]]

    def test_enumerate_bases_square(self):
        mat = GraphicMatroid(build_named_graph("cycle", 4))
        assert len(mat.enumerate_bases()) == 4

    def test_enumerate_bases_lexicographic(self):
        # enumerate_bases relies on the enumeration preorder for this order.
        for g in random_graph_corpus(count=3):
            graphic = GraphicMatroid(g)
            views = [graphic, OpaqueMatroid(g)]
            views += [TruncatedMatroid(graphic, r) for r in range(graphic.rank + 1)]
            for mat in views:
                bases = mat.enumerate_bases()
                assert list(bases) == sorted(bases, key=sorted), mat

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
            mat = GraphicMatroid(g)
            assert sorted(mat.circuits(), key=sorted) == sorted(
                brute_circuits(g.edge_count, graphic_indep(g)), key=sorted
            )

    def test_rank_matches_brute(self):
        for g in random_graph_corpus(count=2, max_edges=7):
            mat = GraphicMatroid(g)
            indep = graphic_indep(g)
            for size in range(4):
                for combo in itertools.combinations(range(g.edge_count), size):
                    expected = max(
                        (len(t) for t in _subsets(combo) if indep(frozenset(t))), default=0
                    )
                    assert mat.rank_of(combo) == expected

    def test_check_subset(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        with pytest.raises(PreconditionError):
            mat.is_independent({0, 9})


def _subsets(ids):
    out = []
    ids = list(ids)
    for size in range(len(ids) + 1):
        out.extend(itertools.combinations(ids, size))
    return out


class TestTruncatedMatroid:
    def test_rank_clamps(self):
        inner = GraphicMatroid(build_named_graph("cycle", 5))
        mat = TruncatedMatroid(inner, 2)
        assert mat.rank == 2
        assert mat.rank_of(range(5)) == 2
        assert mat.rank_of({0}) == 1

    def test_independence_caps_size(self):
        inner = GraphicMatroid(build_named_graph("cycle", 5))
        mat = TruncatedMatroid(inner, 2)
        assert mat.is_independent({0, 1})
        assert not mat.is_independent({0, 1, 2})

    def test_circuits_add_top_layer(self):
        inner = GraphicMatroid(build_named_graph("cycle", 5))
        mat = TruncatedMatroid(inner, 2)
        circuits = mat.circuits()
        assert len(circuits) == 10
        assert all(len(c) == 3 for c in circuits)

    def test_circuits_keep_small_inner(self):
        g = MultiGraph(3, [(0, 1), (0, 1), (0, 2), (1, 2)])
        mat = TruncatedMatroid(GraphicMatroid(g), 2)
        circuits = set(mat.circuits())
        assert frozenset({0, 1}) in circuits
        assert all(len(c) <= 3 for c in circuits)

    def test_circuits_match_brute_force(self):
        cases = [(build_named_graph("cycle", 5), (1, 2, 3))]
        for name in ("K4", "parallel"):
            g = HOOK_GRAPHS[name]
            cases.append((g, range(GraphicMatroid(g).rank + 1)))
        for g, ranks in cases:
            for rank in ranks:
                mat = TruncatedMatroid(GraphicMatroid(g), rank)
                assert sorted(mat.circuits(), key=sorted) == sorted(
                    brute_circuits(g.edge_count, truncated_indep(g, rank)), key=sorted
                )

    def test_fundamental_circuit_cases(self):
        square = TruncatedMatroid(GraphicMatroid(build_named_graph("cycle", 4)), 2)
        assert square.fundamental_circuit({0}, 1) is None
        assert square.fundamental_circuit({0, 1}, 2) == frozenset({0, 1, 2})
        triangle = TruncatedMatroid(GraphicMatroid(build_named_graph("complete", 3)), 2)
        assert triangle.fundamental_circuit({0, 1}, 2) == frozenset({0, 1, 2})

    def test_untruncated_is_identity(self):
        inner = GraphicMatroid(build_named_graph("cycle", 4))
        mat = TruncatedMatroid(inner, inner.rank)
        assert mat.enumerate_bases() == inner.enumerate_bases()
        assert mat.circuits() == inner.circuits()

    def test_rank_zero(self):
        inner = GraphicMatroid(build_named_graph("complete", 3))
        mat = TruncatedMatroid(inner, 0)
        assert mat.rank == 0
        assert mat.is_independent(())
        assert not mat.is_independent({0})
        assert mat.circuits() == tuple(frozenset({e}) for e in range(3))

    def test_rejects_bad_rank(self):
        inner = GraphicMatroid(build_named_graph("complete", 3))
        with pytest.raises(PreconditionError):
            TruncatedMatroid(inner, 3)
        with pytest.raises(PreconditionError):
            TruncatedMatroid(inner, -1)


class TestGuards:
    def test_circuit_brute_guard(self):
        g = MultiGraph(16, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        mat = GraphicMatroid(g)
        with pytest.raises(SizeGuardError):
            mat.circuits()
        assert mat.circuits(force=True)

    def test_enumeration_budget(self):
        g = build_named_graph("complete", 6)
        mat = GraphicMatroid(g)
        assert sum(1 for _ in mat.iter_independent_sets()) > 100

    def test_deep_enumeration_is_size_guard(self):
        # One recursion level per element added, so a 1199-edge path outruns
        # the interpreter's recursion limit.
        mat = GraphicMatroid(build_named_graph("path", 1200))
        with pytest.raises(SizeGuardError, match="ground size 1199"):
            mat.enumerate_bases()
        with pytest.raises(SizeGuardError, match="ground size 1199"):
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


HOOK_GRAPHS = {
    "K4": build_named_graph("complete", 4),
    "C5": build_named_graph("cycle", 5),
    "theta7": theta_graph(7),
    "parallel": MultiGraph(3, [(0, 1), (0, 1), (1, 2), (0, 2), (1, 2)]),
}


class TestFundamentalCircuitOracle:
    @pytest.mark.parametrize("name", sorted(HOOK_GRAPHS))
    def test_matches_brute_force_on_every_independent_set(self, name):
        g = HOOK_GRAPHS[name]
        m = g.edge_count
        graphic = GraphicMatroid(g)
        views = [(graphic, graphic_indep(g)), (OpaqueMatroid(g), graphic_indep(g))]
        for rank in range(graphic.rank + 1):
            indep = truncated_indep(g, rank)
            views.append((TruncatedMatroid(graphic, rank), indep))
            views.append((TruncatedMatroid(OpaqueMatroid(g), rank), indep))
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

    def test_is_nbc_runs_union_find_once(self, monkeypatch):
        inst = build_link_gadget(build_named_graph("complete_bipartite", 2, 2), 16, 2)
        real, calls = matroids.is_forest, []
        monkeypatch.setattr(matroids, "is_forest", lambda *args: calls.append(args) or real(*args))
        assert is_nbc(inst.complex(), inst.tau)
        assert len(calls) == 1

    def test_is_nbc_builds_one_adjacency_per_call(self, monkeypatch):
        """One forest-path adjacency per is_nbc call serves every element it
        tries, on a truncated and on a plain graphic complex."""
        inst = build_link_gadget(build_named_graph("complete_bipartite", 2, 2), 16, 2)
        k5 = GraphicMatroid(build_named_graph("complete", 5))
        real, calls = matroids._forest_paths, []
        monkeypatch.setattr(matroids, "_forest_paths", lambda *args: calls.append(args) or real(*args))
        assert is_nbc(inst.complex(), inst.tau)
        assert len(calls) == 1
        assert is_nbc(NbcComplex(k5), {0, 1}) and not is_nbc(NbcComplex(k5), {1, 4})
        assert len(calls) == 3
