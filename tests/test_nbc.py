"""Broken-circuit complexes: membership, enumeration, face numbers, links,
extension, and the equivalence of the incremental engine with brute force."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nbcwalk import (
    GraphicMatroid,
    IntPolynomial,
    MultiGraph,
    NbcComplex,
    PreconditionError,
    SizeGuardError,
    VerificationError,
    WeightVector,
    build_link_gadget,
    build_named_graph,
    chromatic_polynomial,
    cli,
    down_up_matrix,
    enumerate_nbc_bases,
    extend_to_nbc_base,
    face_numbers,
    is_log_concave,
    is_nbc,
    link_facets,
    local_spectral_profile,
    local_walk_matrix,
    max_weight_nbc_base,
    nbc,
)
from helpers import (
    SEED,
    brute_bases,
    brute_nbc_faces,
    brute_nbc_facets_through,
    closure_is_nbc,
    closure_nbc_facets_through,
    graphic_indep,
    random_graph_corpus,
    random_multigraphs,
    random_orders,
    subset_acyclic,
    theta_graph,
    truncated_indep,
)


class TestIsNbc:
    def test_triangle_faces(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        expected = {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({0, 1}),
            frozenset({0, 2}),
        }
        for size in range(4):
            for combo in itertools.combinations(range(3), size):
                s = frozenset(combo)
                assert is_nbc(x, s) == (s in expected)

    def test_respects_order(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)), (2, 0, 1))
        assert is_nbc(x, {1, 2})
        assert not is_nbc(x, {0, 1})

    def test_matches_bruteforce_membership(self):
        for g in random_graph_corpus(count=3):
            m = g.edge_count
            x = NbcComplex(GraphicMatroid(g))
            faces = brute_nbc_faces(m, graphic_indep(g), range(m))
            for size in range(4):
                for combo in itertools.combinations(range(m), size):
                    s = frozenset(combo)
                    assert is_nbc(x, s) == (s in faces)

    def test_rejects_bad_elements(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        with pytest.raises(PreconditionError):
            is_nbc(x, {0, 7})


class TestEnumeration:
    def test_triangle_bases(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        assert [sorted(b) for b in enumerate_nbc_bases(x)] == [[0, 1], [0, 2]]

    def test_engine_matches_bruteforce(self):
        for g in random_graph_corpus(count=6):
            for ranking in [tuple(range(g.edge_count))] + random_orders(g.edge_count, 3):
                x = NbcComplex(GraphicMatroid(g), ranking)
                faces = brute_nbc_faces(g.edge_count, graphic_indep(g), ranking)
                rank = x.rank
                expected = tuple(sorted((f for f in faces if len(f) == rank), key=sorted))
                assert enumerate_nbc_bases(x) == expected

    def test_engine_matches_generic_path(self):
        """Against the closure form of the NBC condition, which asks only
        independence, run by the DFS oracle."""
        for g in random_graph_corpus(count=4):
            for ranking in [tuple(range(g.edge_count))] + random_orders(g.edge_count, 2):
                fast = NbcComplex(GraphicMatroid(g), ranking)
                bases = _closure_link(g, fast.rank, ranking, ())
                assert enumerate_nbc_bases(fast) == bases
                assert face_numbers(fast).coefficients == _down_closure_counts(bases, fast.rank)

    def test_truncated_engine_matches_bruteforce(self):
        g = build_named_graph("cycle", 5)
        for rank in (1, 2, 3, 4):
            for ranking in [tuple(range(5))] + random_orders(5, 3):
                mat = GraphicMatroid(g, rank)
                x = NbcComplex(mat, ranking)
                faces = brute_nbc_faces(5, truncated_indep(g, rank), ranking)
                expected = tuple(sorted((f for f in faces if len(f) == rank), key=sorted))
                assert enumerate_nbc_bases(x) == expected


class TestFaceNumbers:
    def test_known_vectors(self):
        cases = [
            ("complete", 3, (1, 3, 2)),
            ("cycle", 4, (1, 4, 6, 3)),
            ("complete", 4, (1, 6, 11, 6)),
            ("cycle", 5, (1, 5, 10, 10, 4)),
        ]
        for kind, n, expected in cases:
            x = NbcComplex(GraphicMatroid(build_named_graph(kind, n)))
            assert face_numbers(x).coefficients == expected

    def test_truncated_pentagon(self):
        mat = GraphicMatroid(build_named_graph("cycle", 5), 2)
        assert face_numbers(NbcComplex(mat)).coefficients == (1, 5, 4)

    def test_counts_match_bruteforce(self):
        for g in random_graph_corpus(count=4):
            x = NbcComplex(GraphicMatroid(g))
            faces = brute_nbc_faces(g.edge_count, graphic_indep(g), tuple(range(g.edge_count)))
            fn = face_numbers(x)
            for k in range(fn.degree + 1):
                assert fn[k] == sum(1 for f in faces if len(f) == k)
            assert fn.total() == len(faces)

    def test_empty_complex(self):
        mat = GraphicMatroid(build_named_graph("complete", 3), 0)
        x = NbcComplex(mat)
        fn = face_numbers(x)
        # Every edge is a loop at rank 0, so the complex has no faces at all.
        assert fn.coefficients == () and fn.degree == -1
        assert [fn[k] for k in range(x.rank + 1)] == [0]
        assert enumerate_nbc_bases(x) == ()

    def test_order_invariance_exhaustive(self):
        g = build_named_graph("cycle", 4)
        seen = {
            face_numbers(NbcComplex(GraphicMatroid(g), p)).coefficients
            for p in itertools.permutations(range(4))
        }
        assert len(seen) == 1

    def test_face_numbers_type(self):
        fn = face_numbers(NbcComplex(GraphicMatroid(build_named_graph("complete", 3))))
        assert isinstance(fn, IntPolynomial) and fn.coefficients == (1, 3, 2)
        assert fn[1] == 3 and fn[9] == 0
        assert fn.total() == 6


class TestLogConcavity:
    def test_accepts_face_numbers(self):
        fn = face_numbers(NbcComplex(GraphicMatroid(build_named_graph("complete", 3))))
        assert is_log_concave(fn.coefficients)
        assert is_log_concave((1, 5, 10, 10, 4))

    def test_detects_violation(self):
        assert not is_log_concave((1, 1, 2))

    def test_short_sequences(self):
        assert is_log_concave((5,))
        assert is_log_concave((1, 2))


class TestLinkFacets:
    def test_whole_complex_at_empty_face(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        assert link_facets(x, ()) == (frozenset({0, 1}), frozenset({0, 2}))

    def test_strips_tau(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 4)))
        facets = link_facets(x, {0})
        assert all(0 not in f for f in facets)
        full = [f for f in enumerate_nbc_bases(x) if 0 in f]
        assert len(facets) == len(full)

    def test_rejects_non_face(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        with pytest.raises(PreconditionError):
            link_facets(x, {1, 2})

    def test_matches_bruteforce(self):
        g = random_graph_corpus(count=1)[0]
        x = NbcComplex(GraphicMatroid(g))
        faces = brute_nbc_faces(g.edge_count, graphic_indep(g), tuple(range(g.edge_count)))
        rank = x.rank
        tau = frozenset({0})
        if tau in faces:
            expected = tuple(
                sorted((f - tau for f in faces if len(f) == rank and tau <= f), key=sorted)
            )
            assert link_facets(x, tau) == expected


class TestExtendToBase:
    def test_triangle_extensions(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        assert extend_to_nbc_base(x, ()) == frozenset({0, 1})
        assert extend_to_nbc_base(x, {1}) == frozenset({0, 1})
        assert extend_to_nbc_base(x, {2}) == frozenset({0, 2})

    def test_returns_superset_facet(self):
        for g in random_graph_corpus(count=3):
            x = NbcComplex(GraphicMatroid(g))
            faces = brute_nbc_faces(g.edge_count, graphic_indep(g), tuple(range(g.edge_count)))
            rank = x.rank
            for face in sorted(faces, key=sorted)[:200]:
                base = extend_to_nbc_base(x, face)
                assert face <= base
                assert len(base) == rank
                assert base in faces

    def test_rejects_non_face(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        with pytest.raises(PreconditionError):
            extend_to_nbc_base(x, {1, 2})

    def test_generic_path(self):
        g = build_named_graph("cycle", 4)
        fast = NbcComplex(GraphicMatroid(g))
        for e in range(4):
            assert extend_to_nbc_base(fast, {e}) == {e} | _closure_link(g, fast.rank, range(4), {e})[0]


class TestThetaGraph:
    def test_matches_long_edge_layout(self):
        g = theta_graph(5)
        x = NbcComplex(GraphicMatroid(g))
        assert enumerate_nbc_bases(x) == (
            frozenset({0, 1, 2}),
            frozenset({0, 1, 3}),
            frozenset({0, 2, 3}),
            frozenset({0, 2, 4}),
        )


class TestComplexConstruction:
    def test_default_order_is_identity(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        assert x.order == (0, 1, 2)
        assert nbc._engine(x).pos == [0, 1, 2]

    def test_engine_inverts_the_ranking(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)), (2, 0, 1))
        assert nbc._engine(x).pos == [1, 2, 0]

    def test_rejects_non_permutations(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        with pytest.raises(PreconditionError, match="^ranking must be a permutation of 0..m-1$"):
            NbcComplex(mat, (0, 0, 1))
        with pytest.raises(PreconditionError, match="^ranking must be a permutation of 0..m-1$"):
            NbcComplex(mat, (0, 2))
        # The integer rule comes first, and the permutation before the length.
        with pytest.raises(PreconditionError, match="^a ranking entry must be an integer"):
            NbcComplex(mat, (0, 1.5))

    def test_order_length_must_match(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        with pytest.raises(PreconditionError, match="^order length must equal the matroid ground size$"):
            NbcComplex(mat, (0, 1))

    def test_accepts_ranking_sequence(self):
        mat = GraphicMatroid(build_named_graph("complete", 3))
        x = NbcComplex(mat, iter([2, 0, 1]))
        assert x.order == (2, 0, 1)

    def test_facets_cached(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("cycle", 5)))
        assert x.facets() is x.facets()


class TestDeepFaces:
    def test_extend_along_long_path(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("path", 1200)))
        assert extend_to_nbc_base(x, ()) == frozenset(range(1199))

    def test_extension_examines_each_candidate_once(self, monkeypatch):
        """The first base is one ascending pass over the ids: candidates
        examined, as list entries filtered plus can_add calls, stay linear in
        the depth (filtering each level's whole list costs about 7e5 here)."""
        examined = [0]
        can_add, extensions = nbc._GraphicEngine.can_add, nbc._GraphicEngine.extensions

        def counted_can_add(self, e):
            examined[0] += 1
            return can_add(self, e)

        def counted_extensions(self, a, cand):
            examined[0] += len(cand)
            return extensions(self, a, cand)

        monkeypatch.setattr(nbc._GraphicEngine, "can_add", counted_can_add)
        monkeypatch.setattr(nbc._GraphicEngine, "extensions", counted_extensions)
        x = NbcComplex(GraphicMatroid(build_named_graph("path", 1200)))
        assert extend_to_nbc_base(x, ()) == frozenset(range(1199))
        assert examined[0] <= 2 * 1199


def _parallel_theta():
    """Theta graph with doubled edges, so 2-cycles sit beside longer ones."""
    g = theta_graph(7)
    return MultiGraph(g.vertex_count, g.edges + ((0, 1), (0, 2), (0, 2)))


def _pruning_cases():
    """(graph, truncation rank, order) over every rank, random orders only."""
    for g in random_graph_corpus(count=3) + [_parallel_theta()]:
        for rank in range(GraphicMatroid(g).rank + 1):
            for ranking in random_orders(g.edge_count, 2, seed=SEED + rank):
                yield g, rank, ranking


def _brute_and_engine(g, rank, ranking):
    """Brute-force faces and the graphic engine's complex."""
    faces = brute_nbc_faces(g.edge_count, truncated_indep(g, rank), ranking)
    return faces, NbcComplex(GraphicMatroid(g, rank), ranking)


def _closure_link(g, rank, ranking, tau):
    """sigma minus tau for every NBC base sigma holding tau, lexicographic, by
    the closure-form oracle over g's graphic matroid truncated to rank."""
    facets = closure_nbc_facets_through(g.edge_count, truncated_indep(g, rank), ranking, tau, rank)
    return _sorted_sets(f - frozenset(tau) for f in facets)


def _down_closure_counts(bases, rank):
    """Faces by size, sizes 0..rank, of the pure complex with these facets."""
    faces = {frozenset(c) for b in bases for k in range(rank + 1) for c in itertools.combinations(b, k)}
    return tuple(sum(1 for f in faces if len(f) == k) for k in range(rank + 1))


class TestPruningRules:
    """The cone-apex walk and the candidate filter, against brute force and
    the closure-form oracle, on every truncation under random orders."""

    def test_face_numbers_and_bases_at_every_rank(self):
        for g, rank, ranking in _pruning_cases():
            faces, fast = _brute_and_engine(g, rank, ranking)
            oracle = _closure_link(g, rank, ranking, ())
            counts = tuple(sum(1 for f in faces if len(f) == k) for k in range(rank + 1))
            fn = face_numbers(fast)
            assert tuple(fn[k] for k in range(rank + 1)) == counts == _down_closure_counts(oracle, rank)
            bases = tuple(sorted((f for f in faces if len(f) == rank), key=sorted))
            assert enumerate_nbc_bases(fast) == bases == oracle

    def test_rooted_links_and_extension_at_random_sets(self):
        rng = random.Random(SEED)
        for g, rank, ranking in _pruning_cases():
            faces, fast = _brute_and_engine(g, rank, ranking)
            taus = rng.sample(sorted(faces, key=sorted), min(4, len(faces)))
            taus += [frozenset(rng.sample(range(g.edge_count), rng.randint(0, rank))) for _ in range(4)]
            for tau in taus:
                oracle = _closure_link(g, rank, ranking, tau)
                if tau not in faces:
                    with pytest.raises(PreconditionError):
                        link_facets(fast, tau)
                    with pytest.raises(PreconditionError):
                        extend_to_nbc_base(fast, tau)
                    assert oracle == ()
                    continue
                above = sorted((f for f in faces if len(f) == rank and tau <= f), key=sorted)
                link = tuple(sorted((f - tau for f in above), key=sorted))
                assert link_facets(fast, tau) == link == oracle
                assert extend_to_nbc_base(fast, tau) == above[0] == tau | oracle[0]


def _long_theta(arms, length):
    """Vertices 0 and 1 joined by `arms` disjoint paths of `length` edges."""
    edges, nv = [], 2
    for _ in range(arms):
        path = [0] + list(range(nv, nv + length - 1)) + [1]
        nv += length - 1
        edges.extend(zip(path, path[1:]))
    return MultiGraph(nv, edges)


def _chorded_cycle():
    """A 10-cycle with three crossing chords."""
    g = build_named_graph("cycle", 10)
    return MultiGraph(10, g.edges + ((0, 5), (2, 7), (3, 8)))


LONG_PATH_GRAPHS = (_long_theta(3, 4), _chorded_cycle())


def _sorted_sets(sets):
    return tuple(sorted(sets, key=sorted))


class TestLongForestPaths:
    """Faces whose forest components have long paths, so a candidate's cycle
    runs far up the rooted trees, against brute force and the closure-form
    oracle."""

    def test_faces_bases_and_links(self):
        rng = random.Random(SEED)
        for g in LONG_PATH_GRAPHS:
            top = GraphicMatroid(g).rank
            for rank in (top, top - 1, top // 2):
                (ranking,) = random_orders(g.edge_count, 1, seed=SEED + rank)
                faces, fast = _brute_and_engine(g, rank, ranking)
                counts = tuple(sum(1 for f in faces if len(f) == k) for k in range(rank + 1))
                assert face_numbers(fast).coefficients == counts
                bases = _sorted_sets(f for f in faces if len(f) == rank)
                assert enumerate_nbc_bases(fast) == bases
                # the closure oracle walks from each tau slowly, so it checks links only
                for tau in rng.sample(sorted(faces, key=sorted), 4):
                    link = _sorted_sets(f - tau for f in bases if tau <= f)
                    assert link_facets(fast, tau) == link == _closure_link(g, rank, ranking, tau)

    @pytest.mark.parametrize("base", ["complete_bipartite:2:2", "cycle:5"])
    def test_rooted_gadget_links(self, base):
        """Links of the link gadget at tau and at faces above it, in the
        gadget's own order and in random ones."""
        kind, *params = base.split(":")
        rng = random.Random(SEED)
        for l in (1, 2):
            inst = build_link_gadget(build_named_graph(kind, *map(int, params)), l, 2)
            g, rank, tau = inst.matroid.graph, inst.matroid.rank, inst.tau
            for ranking in [tuple(range(g.edge_count))] + random_orders(g.edge_count, 1):
                fast = NbcComplex(inst.matroid, ranking)
                link = link_facets(fast, tau)
                assert link == _closure_link(g, rank, ranking, tau)
                if l == 1:
                    indep = truncated_indep(g, rank)
                    facets = brute_nbc_facets_through(g.edge_count, indep, ranking, tau, rank)
                    assert link == _sorted_sets(f - tau for f in facets)
                else:
                    facets = {tau | f for f in link}
                facets = sorted(facets, key=sorted)
                for _ in range(3):
                    extra = sorted(rng.choice(facets) - tau)
                    face = tau | frozenset(rng.sample(extra, rng.randint(1, len(extra))))
                    expected = _sorted_sets(f - face for f in facets if face <= f)
                    assert link_facets(fast, face) == expected == _closure_link(g, rank, ranking, face)


def _forest_state(eng):
    return eng.label, eng.comp


def _engine_state(eng):
    """A copy of everything the engine keeps about its face."""
    return [list(c) for c in eng.comp], list(eng.label), list(eng.members), list(eng.path), list(eng.inc)


def _check_masks(eng, g, order):
    """path[x] ^ path[y] is the position mask of the forest path between x
    and y, found by a search over the face, and the incidence mask of every
    live label is the mask of the elements with an endpoint in its component.
    A merged component keeps its mask; either every lone vertex keeps one or
    none does, so a pop leaves no lone vertex's mask behind."""
    bit = {e: 1 << i for i, e in enumerate(order)}
    adjacent = [[] for _ in range(g.vertex_count)]
    for e in eng.members:
        u, v = g.edges[e]
        adjacent[u].append((v, bit[e]))
        adjacent[v].append((u, bit[e]))
    for x in range(g.vertex_count):
        found, queue = {x: 0}, [x]
        for y in queue:
            for z, b in adjacent[y]:
                if z not in found:
                    found[z] = found[y] | b
                    queue.append(z)
        assert set(found) == {y for y, lab in enumerate(eng.label) if lab == eng.label[x]}
        for y, mask in found.items():
            assert eng.path[x] ^ eng.path[y] == mask, (x, y)
    lone = {lab for lab in eng.label if eng.label.count(lab) == 1}
    assert len({eng.inc[lab] is None for lab in lone}) <= 1
    for lab in set(eng.label):
        touching = [e for e, (u, v) in enumerate(g.edges) if lab in (eng.label[u], eng.label[v])]
        assert lab in lone or eng.inc[lab] is not None
        assert eng._inc(lab) == sum(bit[e] for e in touching)


class TestEngineUndo:
    @pytest.mark.parametrize(
        "g", LONG_PATH_GRAPHS + (build_named_graph("complete", 6),), ids=["theta", "chorded", "k6"]
    )
    def test_push_pop_matches_a_fresh_engine(self, g):
        """After any run of pushes and pops, the component labels and member
        lists are the ones a fresh engine reaches by pushing the same members,
        the path and incidence masks describe the face (the paths' rooting
        depends on the history), and can_add still agrees with the
        closure-form oracle on every NBC face along the way."""
        rng = random.Random(SEED)
        rank = GraphicMatroid(g).rank
        indep = graphic_indep(g)
        rerooted = False
        for ranking in random_orders(g.edge_count, 3):
            eng = nbc._GraphicEngine(g, ranking, rank)
            for _ in range(150):
                label = eng.label
                joins = [e for e, (u, v) in enumerate(g.edges) if label[u] != label[v]]
                if rng.random() < 0.5:
                    joins = [e for e in joins if eng.can_add(e)]
                if eng.members and (not joins or rng.random() < 0.35):
                    eng.pop()
                else:
                    e = rng.choice(joins)
                    eng.push(e)
                    # k holds more than e's own bit when an endpoint of e was no root
                    rerooted |= eng._merges[-1][-1] != 1 << eng.pos[e]
                fresh = nbc._GraphicEngine(g, ranking, rank)
                for e in eng.members:
                    fresh.push(e)
                assert _forest_state(eng) == _forest_state(fresh)
                _check_masks(eng, g, ranking)
                face = frozenset(eng.members)
                if closure_is_nbc(indep, ranking, face):
                    for e in range(g.edge_count):
                        expected = e not in face and closure_is_nbc(indep, ranking, face | {e})
                        assert eng.can_add(e) == expected, (face, e)
        assert rerooted


class TestCanAddKeepsTheFace:
    @pytest.mark.parametrize(
        "g", LONG_PATH_GRAPHS + (build_named_graph("complete", 6),), ids=["theta", "chorded", "k6"]
    )
    def test_can_add_changes_only_the_rooting(self, g):
        """can_add reads the engine and changes nothing, not even the rooting
        behind the path masks: labels, member lists, face and masks stay as
        they were, and the masks still describe the face."""
        rng = random.Random(SEED)
        rank = GraphicMatroid(g).rank
        for ranking in random_orders(g.edge_count, 3):
            eng = nbc._GraphicEngine(g, ranking, rank)
            for _ in range(40):
                accepted = [e for e in range(g.edge_count) if eng.can_add(e)]
                if eng.members and (not accepted or rng.random() < 0.3):
                    eng.pop()
                    continue
                eng.push(rng.choice(accepted))
                before = _engine_state(eng)
                for e in rng.sample(range(g.edge_count), g.edge_count):
                    eng.can_add(e)
                    assert _engine_state(eng) == before, e
                _check_masks(eng, g, ranking)


def _candidate_list_cases():
    """(graph, truncation rank, order): the long-path graphs and K6 at three
    ranks, then every truncation of the pruning corpus."""
    for g in LONG_PATH_GRAPHS + (build_named_graph("complete", 6),):
        top = GraphicMatroid(g).rank
        for rank in (top, top - 1, top // 2):
            for ranking in [tuple(range(g.edge_count))] + random_orders(g.edge_count, 1, seed=SEED + rank):
                yield g, rank, ranking
    yield from _pruning_cases()


class TestCandidateLists:
    """A face's extensions come from its parent's accepted list; at every
    child the walk reaches, that list filtered by the engine before the
    child's push must be exactly what can_add accepts once it is pushed."""

    def test_inherited_extensions_match_can_add(self, monkeypatch):
        original = nbc._GraphicEngine.extensions
        checked = [0]

        def checking(self, a, cand):
            got = original(self, a, cand)
            self.push(a)
            assert got == [e for e in cand if self.can_add(e)], (self.members, cand)
            self.pop()
            checked[0] += 1
            return got

        monkeypatch.setattr(nbc._GraphicEngine, "extensions", checking)
        rng = random.Random(SEED)
        for g, rank, ranking in _candidate_list_cases():
            x = NbcComplex(GraphicMatroid(g, rank), ranking)
            face_numbers(x)
            bases = enumerate_nbc_bases(x)
            for base in rng.sample(bases, min(3, len(bases))):
                tau = frozenset(rng.sample(sorted(base), rng.randint(0, len(base))))
                assert base - tau in link_facets(x, tau)
        assert checked[0] > 10_000

    def test_k8_face_numbers_halve_the_cycle_scans(self, monkeypatch):
        # Every candidate the walk tries: each element of a list passed to
        # extensions, and each root-level can_add call.
        can_add, extensions = nbc._GraphicEngine.can_add, nbc._GraphicEngine.extensions
        tried = [0]

        def counted_can_add(self, e):
            tried[0] += 1
            return can_add(self, e)

        def counted_extensions(self, a, cand):
            tried[0] += len(cand)
            return extensions(self, a, cand)

        monkeypatch.setattr(nbc._GraphicEngine, "can_add", counted_can_add)
        monkeypatch.setattr(nbc._GraphicEngine, "extensions", counted_extensions)
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 8)))
        assert face_numbers(x).coefficients == (1, 28, 322, 1960, 6769, 13132, 13068, 5040)
        # Trying every element above the last one pushed costs 177476 tries here.
        assert tried[0] <= 177476 // 2


def _parallel_multigraphs(count=8, seed=SEED):
    """Seeded random multigraphs on 4 to 7 vertices, each with parallel
    edges: 7 to 11 edges drawn with replacement, connected or not."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rng.randint(4, 7)
        pairs = list(itertools.combinations(range(nv), 2))
        edges = [rng.choice(pairs) for _ in range(rng.randint(7, 11))]
        if len(set(edges)) < len(edges):
            out.append(MultiGraph(nv, edges))
    return out


def _fresh_engine(x, members):
    """An engine built anew for the face members[:-1] and then pushed the
    last member, so it shares no labels, masks or rooting with a walk's."""
    eng = nbc._root_engine(x, frozenset(members[:-1]))
    eng.push(members[-1])
    return eng


def _checked_extensions(x, eng, a, cand, extensions=nbc._GraphicEngine.extensions):
    """extensions(eng, a, cand), asserted equal to what a fresh engine holding
    the face eng.members + a accepts of cand, and to leave eng as it was."""
    before = _engine_state(eng)
    got = extensions(eng, a, cand)
    assert _engine_state(eng) == before
    fresh = _fresh_engine(x, [*eng.members, a])
    assert got == [e for e in cand if fresh.can_add(e)], (eng.members, a, cand)
    return got, fresh


class TestExtensionsAgainstAFreshEngine:
    """extensions(a, cand) reads the child's list before a is pushed: it
    tests only the cycles through both a and the candidate, and tells a's
    two sides apart by their labels; a fresh engine that pushed a tests
    every cycle with can_add."""

    def test_every_face_the_walk_reaches(self, monkeypatch):
        original = nbc._GraphicEngine.extensions
        current, calls, cut = [None], [0], [0]

        def checking(self, a, cand):
            got, fresh = _checked_extensions(current[0], self, a, cand, original)
            label, ends = fresh.label, fresh.ends
            cut[0] += sum(1 for e in cand if e not in got and label[ends[e][0]] != label[ends[e][1]])
            calls[0] += 1
            return got

        monkeypatch.setattr(nbc._GraphicEngine, "extensions", checking)
        rng = random.Random(SEED)
        for g in _parallel_multigraphs() + [_parallel_theta()]:
            for rank in range(GraphicMatroid(g).rank + 1):
                for ranking in random_orders(g.edge_count, 4, seed=SEED + rank):
                    x = NbcComplex(GraphicMatroid(g, rank), ranking)
                    current[0] = x
                    faces = brute_nbc_faces(g.edge_count, truncated_indep(g, rank), ranking)
                    bases = _sorted_sets(f for f in faces if len(f) == rank)
                    assert enumerate_nbc_bases(x) == bases
                    face_numbers(x)
                    e0 = ranking[0]
                    for base in rng.sample(bases, min(3, len(bases))):
                        tau = frozenset(rng.sample(sorted(base), rng.randint(0, len(base))))
                        for root in (tau | {e0}, tau - {e0}):
                            link = _sorted_sets(f - root for f in bases if root <= f)
                            assert link_facets(x, root) == link
        assert calls[0] > 2500
        assert cut[0] > 200  # candidates rejected by a new cycle through the pushed edge

    def test_a_push_after_a_pop_reads_only_its_own_side_bit(self):
        """Push a and pop it: extensions of b still agrees with a fresh
        engine.  Push b: the paths holding b's bit are exactly those of the
        vertices b's push relabelled, no path holds a's bit, and extensions
        of a child of the face with b agrees with a fresh engine too."""
        rng = random.Random(SEED)
        checked = 0
        for g in _parallel_multigraphs() + [build_named_graph("complete", 6)]:
            rank = GraphicMatroid(g).rank
            for ranking in random_orders(g.edge_count, 2):
                x = NbcComplex(GraphicMatroid(g), ranking)
                eng = nbc._root_engine(x, frozenset())
                for _ in range(40):
                    accepted = [e for e in range(g.edge_count) if eng.can_add(e)]
                    if len(eng.members) + 1 >= rank or len(accepted) < 2:
                        if len(eng.members) == 1:
                            break
                        eng.pop()
                        continue
                    a, b = rng.sample(accepted, 2)
                    labels = list(eng.label)
                    eng.push(a)
                    eng.pop()
                    rest, _ = _checked_extensions(x, eng, b, [e for e in accepted if e != b])
                    eng.push(b)
                    relabelled = {y for y, lab in enumerate(eng.label) if lab != labels[y]}
                    bit_a, bit_b = (1 << eng.pos[e] for e in (a, b))
                    assert not any(p & bit_a for p in eng.path)
                    assert {y for y, p in enumerate(eng.path) if p & bit_b} == relabelled
                    if rest and len(eng.members) + 1 < rank:
                        c = rng.choice(rest)
                        _checked_extensions(x, eng, c, [e for e in rest if e != c])
                    checked += 1
        assert checked > 300


class TestScanWork:
    def test_k8_extensions_test_fewer_candidate_bits(self, monkeypatch):
        """On K8's face numbers, the candidate bits extensions(a, cand) hands
        to rule 3 (the cycles through a) are far fewer than the ones can_add
        would hand it once a is pushed (every cycle through the candidate)
        for the candidates with one end in a's two components."""
        extensions, rule3 = nbc._GraphicEngine.extensions, nbc._GraphicEngine._no_absent_minimum
        tested, full, inside = [0], [0], [False]

        def counted_rule3(self, pu, pv, lu, cand):
            tested[0] += inside[0] * cand.bit_count()
            return rule3(self, pu, pv, lu, cand)

        def counted_extensions(self, a, cand):
            label, inc = self.label, self._inc
            sides = [label[x] for x in self.ends[a]]
            merged = inc(sides[0]) | inc(sides[1])
            for e in cand:
                lu, lv = (label[x] for x in self.ends[e])
                if (lu in sides) != (lv in sides):
                    other = lv if lu in sides else lu
                    full[0] += (merged & inc(other) & ((1 << self.pos[e]) - 1)).bit_count()
            inside[0] = True
            try:
                return extensions(self, a, cand)
            finally:
                inside[0] = False

        monkeypatch.setattr(nbc._GraphicEngine, "_no_absent_minimum", counted_rule3)
        monkeypatch.setattr(nbc._GraphicEngine, "extensions", counted_extensions)
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 8)))
        assert face_numbers(x).coefficients == (1, 28, 322, 1960, 6769, 13132, 13068, 5040)
        # can_add would hand rule 3 113699 candidate bits here; the cycles
        # through a alone take 54137.
        assert tested[0] < full[0] // 2


class TestFacetExtraction:
    """Facets are cut from the walk's member list, which starts with e0 and
    the sorted root."""

    def test_links_at_every_face_match_brute_force(self):
        g = build_named_graph("complete", 5)
        for ranking in random_orders(g.edge_count, 2):
            x = NbcComplex(GraphicMatroid(g), ranking)
            faces = brute_nbc_faces(g.edge_count, graphic_indep(g), ranking)
            bases = [f for f in faces if len(f) == x.rank]
            e0 = ranking[0]
            kinds = set()
            for tau in faces:
                link = _sorted_sets(f - tau for f in bases if tau <= f)
                assert link_facets(x, tau) == link, tau
                kinds.add((e0 in tau, len(tau) == x.rank))
            assert kinds == {(True, True), (True, False), (False, False)}
            base = min(bases, key=sorted)
            assert link_facets(x, base) == (frozenset(),)
            assert link_facets(x, base - {e0}) == (frozenset({e0}),)

    def test_empty_ground_set(self):
        g = MultiGraph(3, [])
        x = NbcComplex(GraphicMatroid(g))
        assert brute_nbc_faces(0, graphic_indep(g), ()) == {frozenset()}
        assert link_facets(x, ()) == (frozenset(),)

    def test_facets_take_compact_tables(self):
        """Each facet's hash table is no larger than a compacted copy's, so
        the many facets a walk keeps stay small."""
        k45 = NbcComplex(GraphicMatroid(build_named_graph("complete_bipartite", 4, 5), 5))
        gadget = build_link_gadget(build_named_graph("complete_bipartite", 2, 2), 16, 2)
        k8 = NbcComplex(GraphicMatroid(build_named_graph("complete", 8)))
        runs = (
            enumerate_nbc_bases(k45),
            link_facets(k45, {0}),
            link_facets(k8, {0}),  # e0 in the root: 6 elements cut from the member list
            link_facets(k45, {1, 7}),
            link_facets(gadget.complex(), gadget.tau),
        )
        assert len(runs[0]) == 3016
        for facets in runs:
            assert facets
            for f in facets:
                assert sys.getsizeof(f) <= sys.getsizeof(frozenset(sorted(f)) - frozenset()), f


class TestFaceBudget:
    """MAX_NBC_FACES counts every face containing the walk's root, facets
    included, and trips as soon as that count passes it."""

    def _k5(self):
        g = build_named_graph("complete", 5)
        faces = brute_nbc_faces(g.edge_count, graphic_indep(g), tuple(range(g.edge_count)))
        return NbcComplex(GraphicMatroid(g)), faces

    def test_face_numbers(self, monkeypatch):
        x, faces = self._k5()
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", len(faces))
        assert face_numbers(x).total() == len(faces)
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", len(faces) - 1)
        with pytest.raises(SizeGuardError):
            face_numbers(x)
        assert face_numbers(x, force=True).total() == len(faces)

    def test_link_facets(self, monkeypatch):
        x, faces = self._k5()
        tau = frozenset({1, 8})  # edges 02 and 24: three bases, eight faces above
        through = sum(1 for f in faces if tau <= f)
        assert through == 8
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", through)
        assert len(link_facets(x, tau)) == 3
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", through - 1)
        with pytest.raises(SizeGuardError):
            link_facets(x, tau)

    def test_extension_stops_at_its_first_base(self, monkeypatch):
        x, _ = self._k5()
        # The path holds the empty face and one face per level down to the base.
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", x.rank + 1)
        assert extend_to_nbc_base(x, ()) == frozenset({0, 1, 2, 3})
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", x.rank)
        with pytest.raises(SizeGuardError):
            extend_to_nbc_base(x, ())


def _walk_pushes(monkeypatch):
    """The elements each engine pushes after _root_engine has set up the
    walk's root face, one entry per push."""
    real, pushes = nbc._root_engine, []

    def rooted(x, root):
        eng = real(x, root)
        if eng is not None:
            push = eng.push

            def counting(e):
                pushes.append(e)
                push(e)

            eng.push = counting
        return eng

    monkeypatch.setattr(nbc, "_root_engine", rooted)
    return pushes


class TestFaceBudgetUpFront:
    """The complex is pure, so a root face with k levels below it lies under
    2^k faces; the walk refuses before its first step when that already
    passes MAX_NBC_FACES.  That needs only the rank, so it comes before an
    engine is built, and so before the root is checked: a root that is no
    face exits 3 then, not 2."""

    REFUSAL = f"error: more than MAX_NBC_FACES={nbc.MAX_NBC_FACES} NBC faces visited\n"
    DEEP_TAU = ",".join(map(str, range(199798, 199998)))  # the last 200 edges but one

    @pytest.mark.parametrize(
        "argv",
        [
            "face-numbers --graph path:1200",
            "face-numbers --graph path:22",
            "link --graph path:300 --tau 0",
            "link --graph complete:25 --tau 0,1,24",  # a triangle tau, so no face
        ],
    )
    def test_refuses_without_a_push(self, argv, monkeypatch, capsys):
        built = []  # no engine, so no push
        monkeypatch.setattr(nbc, "_engine", built.append)
        assert cli.main(argv.split()) == 3
        assert capsys.readouterr().err == self.REFUSAL
        assert built == []

    def test_extension_refuses_before_the_face_check(self, monkeypatch):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 25)))
        triangle = {0, 1, 24}  # edges 01, 02 and 12
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", x.rank - len(triangle))
        with pytest.raises(SizeGuardError):
            extend_to_nbc_base(x, triangle)
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", x.rank - len(triangle) + 1)
        with pytest.raises(PreconditionError, match="not an NBC face"):
            extend_to_nbc_base(x, triangle)

    @pytest.mark.parametrize(
        "argv",
        [
            "face-numbers --graph path:200000",
            "link --graph path:200000 --tau 0",
            "face-numbers --graph path:200000 --truncate 3",
            f"link --graph path:200000 --truncate 203 --tau {DEEP_TAU}",
        ],
        ids=["full", "link", "truncated", "deep-tau"],
    )
    def test_a_long_path_refuses_within_a_gigabyte(self, argv):
        """A child interpreter under a 1 GiB address-space limit and a time
        limit, one at a time.  The first two refuse up front.  The truncated
        walk and the walk below a 200-edge tau pass that check, build an
        engine and walk until the face budget refuses: an incidence mask for
        every vertex of path:200000 would take gigabytes there, so its lone
        vertices keep none."""
        limit = 1 << 30
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from nbcwalk import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(nbc.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code, *argv.split()], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stderr, done.stdout) == (3, self.REFUSAL, "")

    def test_boundary(self, monkeypatch):
        pushes = _walk_pushes(monkeypatch)
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", 2**6)
        path7 = NbcComplex(GraphicMatroid(build_named_graph("path", 7)))
        assert face_numbers(path7).total() == 2**6
        assert link_facets(path7, {0}) == (frozenset(range(1, 6)),)
        walked = len(pushes)
        assert walked > 0
        path8 = NbcComplex(GraphicMatroid(build_named_graph("path", 8)))
        with pytest.raises(SizeGuardError):
            face_numbers(path8)
        assert len(pushes) == walked
        assert face_numbers(path8, force=True).total() == 2**7


class TestPrunedWalk:
    """_walk's children hook: children(eng, accepted) gives the indices of
    accepted whose children the face eng.members gets, in the order reached,
    and a child it leaves out is skipped with its subtree, without a push."""

    @pytest.mark.parametrize("rank", [None, 3], ids=["graphic", "truncated"])
    def test_pruning_nothing_asks_once_per_face(self, rank):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 5), rank), random_orders(10, 1)[0])
        asked = []

        def keep(eng, accepted):
            for i, e in enumerate(accepted):
                asked.append((*eng.members, e))
                yield i

        faces = [tuple(face) for face in nbc._walk(x, children=keep)]
        assert faces == [tuple(face) for face in nbc._walk(x)]
        assert asked == faces[1:]

    def test_a_pruned_child_is_never_pushed(self, monkeypatch):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 5)))
        without = [tuple(face) for face in nbc._walk(x) if 3 not in face]
        pushes = _walk_pushes(monkeypatch)

        def skip_3(eng, accepted):
            return (i for i, e in enumerate(accepted) if e != 3)

        faces = [tuple(face) for face in nbc._walk(x, children=skip_3)]
        assert faces == without
        assert pushes and 3 not in pushes

    def test_children_reached_in_descending_id(self):
        # Reversing every face's children reverses the order of the facets.
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 5), 3), random_orders(10, 1)[0])

        def descending(eng, accepted):
            return reversed(range(len(accepted)))

        facets = [frozenset(face) for face in nbc._walk(x, children=descending) if len(face) == x.rank]
        assert facets == list(reversed(enumerate_nbc_bases(x)))


class TestHeaviestAgainstBruteForce:
    """heaviest_nbc_bases, counting ties or not, against the heaviest of the
    brute-force NBC bases on seeded multigraphs at every rank and under
    random orders: the walk's children hook sees its parent's forest at a
    face that is not pushed, and the branch and bound must still reach the
    lexicographically greatest heaviest base."""

    def test_both_tie_modes_match_a_brute_force_maximum(self):
        rng = random.Random(SEED + 41)
        checked, tied = 0, 0
        for g in random_multigraphs(count=30, max_vertices=7, max_edges=10, seed=SEED + 41):
            m = g.edge_count
            for rank in range(1, GraphicMatroid(g).rank + 1):
                for ranking in random_orders(m, 2, seed=SEED + 41 + rank):
                    spread = rng.choice((1, 3))
                    weights = [rng.randint(-spread, spread) for _ in range(m)]
                    faces = brute_nbc_faces(m, truncated_indep(g, rank), ranking)
                    bases = {f: sum(weights[e] for e in f) for f in faces if len(f) == rank}
                    best = max(bases.values())
                    top = [f for f, w in bases.items() if w == best]
                    greatest = max(top, key=sorted)
                    x = NbcComplex(GraphicMatroid(g, rank), ranking)
                    assert nbc.heaviest_nbc_bases(x, weights) == (greatest, best, len(top)), (g.edges, rank)
                    assert nbc.heaviest_nbc_bases(x, weights, ties=False) == (greatest, best, None)
                    checked += 1
                    tied += len(top) > 1
        assert checked > 150 and tied > 30


class TestCompletionGreedy:
    """engine.completions(accepted, nums, need), the bound pass at a face F
    the walk reaches, gives at index i the greatest weight of need elements
    of the tail accepted[i + 1:] independent with F + accepted[i], or None
    exactly when no need of them are: checked at every child against every
    need-subset of the tail under the DFS independence oracle, with weights
    of both signs."""

    @pytest.mark.parametrize(
        "rank", [None, 3, 2], ids=["graphic", "graphic-truncated", "graphic-truncated-2"]
    )
    def test_greedy_is_a_max_weight_completion(self, rank):
        g = build_named_graph("complete", 5)
        matroid = GraphicMatroid(g, rank)
        indep = graphic_indep(g)
        rng = random.Random(SEED)
        weight = [rng.randint(-4, 6) for _ in range(g.edge_count)]
        ranking = random_orders(g.edge_count, 1)[0]
        x = NbcComplex(matroid, ranking)
        checked = []

        def check(eng, accepted):
            need = matroid.rank - len(eng.members) - 1
            extras = eng.completions(accepted, weight, need)
            for i, e in enumerate(accepted):
                face, tail = [*eng.members, e], accepted[i + 1 :]
                fits = [c for c in itertools.combinations(tail, need) if indep([*face, *c])]
                if fits:
                    assert extras[i] == max(sum(weight[f] for f in c) for c in fits), (face, tail)
                else:
                    assert extras[i] is None, (face, tail)
                checked.append(need)
                yield i

        assert sum(1 for _ in nbc._walk(x, children=check)) == len(checked) + 1
        assert 0 in checked and max(checked) == matroid.rank - 2  # at the root's children

    def test_completions_on_random_multigraphs(self):
        # Parallel edges close two-element cycles in the forest the pass
        # keeps, and small weights tie, at every rank and under random orders.
        rng = random.Random(SEED + 37)
        needs = set()
        for g in random_multigraphs(count=20, max_vertices=6, max_edges=11, seed=SEED + 37):
            m, indep = g.edge_count, graphic_indep(g)
            weight = [rng.randint(-2, 2) for _ in range(m)]
            for rank in range(1, GraphicMatroid(g).rank + 1):
                x = NbcComplex(GraphicMatroid(g, rank), random_orders(m, 1, seed=SEED + rank)[0])

                def check(eng, accepted):
                    need = rank - len(eng.members) - 1
                    extras = eng.completions(accepted, weight, need)
                    face = eng.members
                    for i, e in enumerate(accepted):
                        fits = [
                            sum(weight[f] for f in c)
                            for c in itertools.combinations(accepted[i + 1 :], need)
                            if indep([*face, e, *c])
                        ]
                        assert extras[i] == (max(fits) if fits else None), (g, face, e)
                        needs.add(need)
                        yield i

                assert sum(1 for _ in nbc._walk(x, children=check)) == sum(1 for _ in nbc._walk(x))
        assert needs >= {0, 1, 2, 3}


class TestConeApex:
    """The NBC complex is a cone with apex e0, the order-smallest element, so
    every walk holds e0 from its root on."""

    def test_brute_force_faces_form_a_cone(self):
        for g, rank, ranking in _pruning_cases():
            faces = brute_nbc_faces(g.edge_count, truncated_indep(g, rank), ranking)
            e0 = ranking[0]
            for f in faces:
                if len(f) < rank:
                    assert f | {e0} in faces, (f, e0)
                else:
                    assert e0 in f, (f, e0)

    def test_every_pushed_face_holds_e0(self, monkeypatch):
        apex, pushes = [None], [0]
        push = nbc._GraphicEngine.push

        def checking(self, e):
            push(self, e)
            assert apex[0] in self.members, (self.members, e)
            pushes[0] += 1

        monkeypatch.setattr(nbc._GraphicEngine, "push", checking)
        rng = random.Random(SEED)
        for g, rank, ranking in _pruning_cases():
            faces, x = _brute_and_engine(g, rank, ranking)
            apex[0] = ranking[0]
            taus = rng.sample(sorted(faces, key=sorted), min(4, len(faces)))
            face_numbers(x)
            enumerate_nbc_bases(x)
            for tau in taus:
                link_facets(x, tau)
                extend_to_nbc_base(x, tau)
        assert pushes[0] > 1000

    def test_k7_bases_push_only_faces_holding_e0(self, monkeypatch):
        original = nbc._GraphicEngine.push
        pushes = [0]

        def counted(self, e):
            pushes[0] += 1
            original(self, e)

        monkeypatch.setattr(nbc._GraphicEngine, "push", counted)
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 7)))
        assert len(enumerate_nbc_bases(x)) == 720
        # 2520 of K7's 5040 faces hold e0.  Only those with two levels and two
        # accepted elements below them are pushed, the root {e0} among them:
        # not the 720 facets, the 1044 faces one short of them, or the faces
        # further down that accept no element (310) or one (73).  A walk from
        # the bare root pushes 964.
        assert pushes[0] == 2520 - 720 - 1044 - 310 - 73 == 373
        pushes[0] = 0
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 8)))
        assert face_numbers(x).coefficients == (1, 28, 322, 1960, 6769, 13132, 13068, 5040)
        # 20160 faces hold e0: 5040 facets, 8028 faces one short of them, and
        # further down 3338 faces that accept no element and 621 that accept
        # one.
        assert pushes[0] == 20160 - 5040 - 8028 - 3338 - 621 == 3133

    def test_edgeless_graph(self):
        g = MultiGraph(3, [])
        for matroid in (GraphicMatroid(g), GraphicMatroid(g, 0)):
            x = NbcComplex(matroid)
            assert face_numbers(x).coefficients == (1,)
            assert enumerate_nbc_bases(x) == (frozenset(),)
        assert brute_nbc_faces(0, graphic_indep(g), ()) == {frozenset()}
        assert closure_nbc_facets_through(0, graphic_indep(g), (), (), 0) == {frozenset()}


class TestWalkSkipsUnreadWork:
    """A child with nothing after it in its parent's accepted list takes the
    empty list with no extensions call, and besides the root the walk pushes
    only a face with at least two levels below it and at least two accepted
    elements, the only faces whose children read the forest."""

    def test_no_empty_extensions_and_no_push_without_two_children_below(self, monkeypatch):
        extensions, last = nbc._GraphicEngine.extensions, [None]
        calls, pushes = [0], [0]

        def checking_extensions(self, a, cand):
            assert cand, (self.members, a)
            got = extensions(self, a, cand)
            last[0] = (a, len(self.members), got)
            calls[0] += 1
            return got

        real = nbc._root_engine

        def rooted(x, root):
            eng = real(x, root)
            if eng is not None:
                push = eng.push

                def checking_push(e):
                    # a push follows the extensions call of its own child
                    a, size, got = last[0]
                    last[0] = None
                    assert a == e and size == len(eng.members), (eng.members, e)
                    assert len(got) >= 2 and eng.full - size - 1 >= 2, (eng.members, e, got)
                    pushes[0] += 1
                    push(e)

                eng.push = checking_push
            return eng

        monkeypatch.setattr(nbc._GraphicEngine, "extensions", checking_extensions)
        monkeypatch.setattr(nbc, "_root_engine", rooted)
        rng = random.Random(SEED + 41)
        faces = 0
        for g in random_multigraphs(count=30, max_vertices=7, max_edges=11, seed=SEED + 41):
            m = g.edge_count
            for rank in range(GraphicMatroid(g).rank + 1):
                weights = [rng.randint(-2, 2) for _ in range(m)]
                kinds = [NbcComplex(GraphicMatroid(g, rank), r) for r in random_orders(m, 2, seed=SEED + rank)]
                for x in [GraphicMatroid(g, rank), *kinds]:
                    walked = [frozenset(face) for face in nbc._walk(x)]
                    faces += len(walked)
                    for root in rng.sample(walked, min(2, len(walked))):
                        assert sum(1 for _ in nbc._walk(x, root)) >= 1
                    if rank and walked:
                        for ties in (True, False):
                            nbc.heaviest_nbc_bases(x, weights, ties=ties)
        assert faces > 8000 and calls[0] > 4500 and pushes[0] > 1500


class TestTruncatedWalk:
    """Bases, face numbers, links and the max-weight base of a truncation at
    every rank, under the identity order and a random one, against the brute
    broken-circuit faces."""

    def test_matches_brute_force(self):
        rng = random.Random(SEED)
        for g in (build_named_graph("complete", 5), _parallel_theta()):
            m, top = g.edge_count, GraphicMatroid(g).rank
            weights = [rng.randint(-3, 5) for _ in range(m)]
            for rank in range(1, top + 1):
                for ranking in [tuple(range(m))] + random_orders(m, 1, seed=SEED + rank):
                    faces = brute_nbc_faces(m, truncated_indep(g, rank), ranking)
                    bases = _sorted_sets(f for f in faces if len(f) == rank)
                    x = NbcComplex(GraphicMatroid(g, rank), ranking)
                    assert enumerate_nbc_bases(x) == bases
                    counts = tuple(sum(1 for f in faces if len(f) == k) for k in range(rank + 1))
                    assert face_numbers(x).coefficients == counts
                    for tau in rng.sample(sorted(faces, key=sorted), min(3, len(faces))):
                        assert link_facets(x, tau) == _sorted_sets(f - tau for f in bases if tau <= f)
                    # ties go to the lexicographically greatest base
                    heaviest = max(bases, key=lambda b: (sum(weights[e] for e in b), sorted(b)))
                    assert max_weight_nbc_base(x, weights) == (heaviest, sum(weights[e] for e in heaviest))


def _wide_multigraphs(count=8, seed=SEED):
    """Seeded random multigraphs on 5 to 7 vertices with 65 to 200 edges,
    drawn with replacement from a random set of vertex pairs, so an engine's
    masks span several machine words; some are disconnected."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(5, 7)
        pairs = list(itertools.combinations(range(nv), 2))
        pairs = rng.sample(pairs, rng.randint(3, len(pairs)))
        out.append(MultiGraph(nv, [rng.choice(pairs) for _ in range(rng.randint(65, 200))]))
    return out


class TestWideMasks:
    """Multigraphs of 65 to 200 edges under random orders and truncations,
    against oracles that share no code with the engine."""

    def test_face_numbers_are_whitney_numbers(self):
        """At full rank the face numbers are the absolute coefficients of the
        chromatic polynomial (Whitney); truncated to rank k they keep
        n_0..n_{k-1}, and n_k counts the faces of size k holding e0, which
        the pairing F <-> F + e0 makes sum_{j<k} (-1)^(k-1-j) n_j."""
        rng = random.Random(SEED)
        for g in _wide_multigraphs():
            top = GraphicMatroid(g).rank
            chi = chromatic_polynomial(g, force=True)
            whitney = tuple(abs(chi[g.vertex_count - k]) for k in range(top + 1))
            for ranking in random_orders(g.edge_count, 2):
                x = NbcComplex(GraphicMatroid(g), ranking)
                assert face_numbers(x).coefficients == whitney
                k = rng.randint(1, top - 1)
                x = NbcComplex(GraphicMatroid(g, k), ranking)
                apex = sum((-1) ** (k - 1 - j) * whitney[j] for j in range(k))
                assert face_numbers(x).coefficients == (*whitney[:k], apex)

    def test_is_nbc_matches_the_closure_form(self):
        rng = random.Random(SEED)
        seen = []
        for g in _wide_multigraphs():
            top = GraphicMatroid(g).rank
            for ranking in random_orders(g.edge_count, 2):
                # the order-smallest copy of each vertex pair, so that longer
                # cycles, not parallel pairs, decide most verdicts
                first = {}
                for e in reversed(ranking):
                    first[g.edges[e]] = e
                for rank in (top, rng.randint(1, top - 1)):
                    x = NbcComplex(GraphicMatroid(g, rank), ranking)
                    indep = truncated_indep(g, rank)
                    for _ in range(40):
                        pool = sorted(first.values()) if rng.random() < 0.75 else range(g.edge_count)
                        s = rng.sample(pool, min(len(pool), rng.randint(1, rank + 1)))
                        verdict = is_nbc(x, s)
                        assert verdict == closure_is_nbc(indep, ranking, s), (ranking, s)
                        seen.append(verdict)
        assert sum(seen) > len(seen) // 4 and not all(seen)  # 525 of 1280 are faces


class TestLoneMasks:
    """An engine keeps an incidence mask for every lone vertex from the start
    only when together they take no more bits than the position lists take
    words; on a large sparse graph they would cost O(n * m) bits, and there
    a lone vertex keeps none and its cycles are read off its position list."""

    def test_only_cheap_lone_masks_are_kept(self):
        k8 = build_named_graph("complete", 8)
        assert None not in nbc._GraphicEngine(k8, tuple(range(28)), 7).inc
        g = build_named_graph("path", 1000)
        eng = nbc._GraphicEngine(g, tuple(range(g.edge_count)), 3)
        assert eng.inc == [None] * 1000
        for e in (5, 7, 6):
            eng.push(e)
        assert sum(mask is not None for mask in eng.inc) == 2  # the merged label and one stale small one
        for _ in range(3):
            eng.pop()
        assert eng.inc == [None] * 1000

    def test_face_numbers_of_a_long_truncated_path(self):
        """A truncation to rank 3 of a tree: every set of at most 3 edges is
        independent, and the 3-faces are the 3-sets holding e0."""
        g = build_named_graph("path", 300)
        m = g.edge_count
        for ranking in [tuple(range(m))] + random_orders(m, 2):
            x = NbcComplex(GraphicMatroid(g, 3), ranking)
            assert nbc._engine(x).inc == [None] * 300
            assert face_numbers(x).coefficients == (1, m, m * (m - 1) // 2, (m - 1) * (m - 2) // 2)


class _LoneVerticesKeepNoMask:
    """Runs the inherited tests with engines whose lone vertices keep no
    incidence mask, as on a large sparse graph."""

    @pytest.fixture(autouse=True)
    def _keep_no_lone_mask(self, monkeypatch):
        init = nbc._GraphicEngine.__init__

        def keeping_none(self, *args):
            init(self, *args)
            self.inc = [None] * len(self.inc)

        monkeypatch.setattr(nbc._GraphicEngine, "__init__", keeping_none)


class TestEngineUndoKeepingNoLoneMask(_LoneVerticesKeepNoMask, TestEngineUndo):
    pass


class TestCanAddKeepsTheFaceKeepingNoLoneMask(_LoneVerticesKeepNoMask, TestCanAddKeepsTheFace):
    pass


class TestExtensionsKeepingNoLoneMask(_LoneVerticesKeepNoMask, TestExtensionsAgainstAFreshEngine):
    pass


class TestWideMasksKeepingNoLoneMask(_LoneVerticesKeepNoMask, TestWideMasks):
    pass


def _subsets(m):
    return itertools.chain.from_iterable(itertools.combinations(range(m), k) for k in range(m + 1))


def _preorder(faces, start, m):
    """The member lists of a walk from the face start over the set faces, by
    recursion over that set alone: a face's children add, in ascending id,
    each element that keeps it a face, and each child tries only the
    elements after its own."""
    out = []

    def visit(members, cands):
        out.append(members)
        kids = [e for e in cands if frozenset(members) | {e} in faces]
        for i, e in enumerate(kids):
            visit([*members, e], kids[i + 1 :])

    if frozenset(start) in faces:
        visit(list(start), [e for e in range(m) if e not in start])
    return out


class TestWalkPreorder:
    """_walk's face sequence, as the member lists it yields, against a
    preorder over brute-force faces, for complexes and bare matroids on
    random multigraphs at random ranks and orders, from the empty root and
    from faces and non-faces."""

    def test_face_sequence_matches_a_brute_force_preorder(self):
        rng = random.Random(SEED)
        walked = 0
        for g in random_multigraphs(count=80, max_vertices=7, max_edges=12, seed=SEED + 36):
            m = g.edge_count
            rank = rng.randint(0, GraphicMatroid(g).rank)
            (ranking,) = random_orders(m, 1, seed=SEED + m + rank)
            indep = truncated_indep(g, rank)
            complexes = (
                (NbcComplex(GraphicMatroid(g, rank), ranking), brute_nbc_faces(m, indep, ranking), ranking[:1]),
                (GraphicMatroid(g, rank), {f for f in map(frozenset, _subsets(m)) if indep(f)}, ()),
            )
            for x, faces, apex in complexes:
                roots = [frozenset()] + rng.sample(sorted(faces, key=sorted), min(3, len(faces)))
                roots.append(frozenset(rng.sample(range(m), rng.randint(0, min(m, rank + 1)))))
                for root in roots:
                    start = [*apex, *sorted(root.difference(apex))]
                    got = [list(face) for face in nbc._walk(x, root)]
                    assert got == _preorder(faces, start, m), (g.edges, rank, ranking, root)
                    walked += len(got)
        assert walked > 4000


def _kruskal(g, rank, weights):
    """A max-weight base of g's graphic matroid truncated to rank: the edges
    in descending weight, each kept when it joins two components of those
    kept before, until rank are kept."""
    comp = list(range(g.vertex_count))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    kept = []
    for e in sorted(range(g.edge_count), key=lambda e: -weights[e]):
        u, v = map(find, g.edges[e])
        if len(kept) < rank and u != v:
            comp[u] = v
            kept.append(e)
    return frozenset(kept)


class TestBareMatroid:
    """Every nbc entry point takes a bare GraphicMatroid too: its faces are
    the independent sets, and its walk has no apex.  The oracles are the
    depth-first acyclicity test and brute-force bases, at every rank."""

    def _cases(self):
        rng = random.Random(SEED)
        for g in random_multigraphs(count=25, max_vertices=7, max_edges=10, seed=SEED + 37):
            for rank in range(GraphicMatroid(g).rank + 1):
                yield rng, g, rank

    def test_face_numbers_tally_the_acyclic_subsets(self):
        for _, g, rank in self._cases():
            counts = [0] * (rank + 1)
            for s in _subsets(g.edge_count):
                if len(s) <= rank and subset_acyclic(g, s):
                    counts[len(s)] += 1
            assert face_numbers(GraphicMatroid(g, rank)) == IntPolynomial(tuple(counts))

    def test_heaviest_base_is_kruskals(self):
        for rng, g, rank in self._cases():
            m = g.edge_count
            distinct = rng.sample(range(-m, 2 * m), m)
            base, best, ties = nbc.heaviest_nbc_bases(GraphicMatroid(g, rank), distinct)
            assert (base, best, ties) == (_kruskal(g, rank, distinct), sum(distinct[e] for e in base), 1)
            tied = [rng.randint(-2, 2) for _ in range(m)]
            base, best, ties = nbc.heaviest_nbc_bases(GraphicMatroid(g, rank), tied)
            assert best == sum(tied[e] for e in _kruskal(g, rank, tied)) == sum(tied[e] for e in base)
            bases = [frozenset(s) for s in itertools.combinations(range(m), rank) if subset_acyclic(g, s)]
            assert ties == sum(1 for b in bases if sum(tied[e] for e in b) == best)
            assert base == max((b for b in bases if sum(tied[e] for e in b) == best), key=sorted)

    def test_k6_visits_few_faces(self, monkeypatch):
        # The bound is exact on a bare matroid, since its walk below a face
        # holds every independent completion from the tail: with distinct
        # weights the walk visits a few dozen of K6's 2932 forests.
        k6 = GraphicMatroid(build_named_graph("complete", 6))
        assert face_numbers(k6).total() == 2932
        weights = random.Random(SEED).sample(range(-15, 15), 15)
        walk, visited = nbc._walk, []

        def counting(*args, **kwargs):
            for face in walk(*args, **kwargs):
                visited.append(len(face))
                yield face

        monkeypatch.setattr(nbc, "_walk", counting)
        base, best, ties = nbc.heaviest_nbc_bases(k6, weights)
        assert (base, best, ties) == (_kruskal(k6.graph, 5, weights), sum(weights[e] for e in base), 1)
        assert len(visited) == 25
        visited.clear()
        assert nbc.heaviest_nbc_bases(k6, weights, ties=False) == (base, best, None)
        assert len(visited) == 13

    def test_is_nbc_tests_independence(self):
        for rng, g, rank in self._cases():
            m = GraphicMatroid(g, rank)
            subsets = list(_subsets(g.edge_count))
            for s in rng.sample(subsets, min(40, len(subsets))):
                assert is_nbc(m, s) == (len(s) <= rank and subset_acyclic(g, s)), (g.edges, rank, s)

    def test_enumeration_lists_the_brute_bases(self):
        for _, g, rank in self._cases():
            bases = brute_bases(g.edge_count, truncated_indep(g, rank), rank)
            assert list(enumerate_nbc_bases(GraphicMatroid(g, rank))) == bases, (g.edges, rank)

    def test_links_and_extensions_against_the_brute_bases(self):
        for rng, g, rank in self._cases():
            m = GraphicMatroid(g, rank)
            indep = truncated_indep(g, rank)
            bases = brute_bases(g.edge_count, indep, rank)
            subsets = list(map(frozenset, _subsets(g.edge_count)))
            for tau in rng.sample(subsets, min(12, len(subsets))):
                if indep(tau):
                    assert list(link_facets(m, tau)) == [b - tau for b in bases if tau <= b]
                    assert extend_to_nbc_base(m, tau) == next(b for b in bases if tau <= b)
                    continue
                with pytest.raises(PreconditionError, match="^tau is not an independent set$"):
                    link_facets(m, tau)
                with pytest.raises(PreconditionError, match="^the given set is not an independent set$"):
                    extend_to_nbc_base(m, tau)

    def test_refusals_name_bases_and_independent_sets(self, monkeypatch):
        g = build_named_graph("complete", 4)
        monkeypatch.setattr(nbc, "MAX_NBC_BASES", 2)
        with pytest.raises(SizeGuardError, match="^more than MAX_NBC_BASES=2 bases$"):
            enumerate_nbc_bases(GraphicMatroid(g))
        with pytest.raises(SizeGuardError, match="^more than MAX_NBC_BASES=2 NBC bases$"):
            enumerate_nbc_bases(NbcComplex(GraphicMatroid(g)))
        for x in (GraphicMatroid(g), NbcComplex(GraphicMatroid(g))):
            with pytest.raises(SizeGuardError, match="^more than MAX_NBC_BASES=2 link facets$"):
                link_facets(x, {0})
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", 4)
        with pytest.raises(SizeGuardError, match="^more than MAX_NBC_FACES=4 independent sets visited$"):
            face_numbers(GraphicMatroid(g, 2))
        with pytest.raises(SizeGuardError, match="^more than MAX_NBC_FACES=4 NBC faces visited$"):
            face_numbers(NbcComplex(GraphicMatroid(g, 2)))
        monkeypatch.setattr(nbc, "MAX_NBC_FACES", 1)
        with pytest.raises(SizeGuardError, match="^more than MAX_NBC_FACES=1 independent sets visited$"):
            extend_to_nbc_base(GraphicMatroid(g), {0})
        with pytest.raises(SizeGuardError, match="^more than MAX_NBC_FACES=1 NBC faces visited$"):
            extend_to_nbc_base(NbcComplex(GraphicMatroid(g)), {0})

    def test_max_weight_base_of_a_triangle(self):
        k3 = GraphicMatroid(build_named_graph("complete", 3))
        assert max_weight_nbc_base(k3, WeightVector([1, 2, 3])) == (frozenset({1, 2}), Fraction(5))
        with pytest.raises(PreconditionError, match="one weight per element"):
            nbc.heaviest_nbc_bases(k3, [1, 2])


_ENTRY_POINTS = {
    "is_nbc": lambda x: is_nbc(x, ()),
    "enumerate_nbc_bases": enumerate_nbc_bases,
    "face_numbers": face_numbers,
    "heaviest_nbc_bases": lambda x: nbc.heaviest_nbc_bases(x, []),
    "link_facets": lambda x: link_facets(x, ()),
    "extend_to_nbc_base": lambda x: extend_to_nbc_base(x, ()),
    "down_up_matrix": down_up_matrix,
    "local_walk_matrix": lambda x: local_walk_matrix(x, ()),
    "local_spectral_profile": local_spectral_profile,
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_entry_points_refuse_what_is_no_complex(name):
    # A graph, a number, None or a list of numbers is no complex, matroid or
    # facet list: each entry point refuses it before reading an attribute.
    for x in (build_named_graph("complete", 3), 3, None, [0, 1]):
        with pytest.raises(PreconditionError, match="^need an NbcComplex"):
            _ENTRY_POINTS[name](x)


class TestWalkPreorderKeepingNoLoneMask(_LoneVerticesKeepNoMask, TestWalkPreorder):
    pass
