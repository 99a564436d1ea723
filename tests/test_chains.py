"""Walk matrices, exact spectral gaps, local profiles, and conductance."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from nbcwalk import (
    GraphicMatroid,
    MultiGraph,
    NbcComplex,
    PreconditionError,
    SizeGuardError,
    build_link_gadget,
    build_named_graph,
    chains,
    cli,
    conductance,
    down_up_matrix,
    enumerate_nbc_bases,
    link_facets,
    local_spectral_profile,
    local_to_global_bound,
    local_walk_matrix,
    neighbor_ratio,
    partition_link_facets,
    spectral_gap,
)
from helpers import brute_bases, graphic_indep, random_graph_corpus, random_orders

F = Fraction


def _matrix(p):
    return [[p.entry(i, j) for j in range(p.size)] for i in range(p.size)]


def _oracle_down_up(facets):
    """{(S, T): P(S, T)} for the down-up walk, straight from its definition:
    facets sharing d - 1 elements step to each other with probability
    1 / (d * number of facets containing the shared part), and the diagonal
    holds what each row leaves over."""
    facets = [frozenset(f) for f in facets]
    d = len(facets[0])
    holders = {}
    out = {}
    for s in facets:
        left = F(1)
        for t in facets:
            shared = s & t
            if s != t and len(shared) == d - 1:
                if shared not in holders:
                    holders[shared] = sum(1 for f in facets if shared <= f)
                out[s, t] = F(1, d * holders[shared])
                left -= out[s, t]
        out[s, s] = left
    return out


def _oracle_gap(facets):
    """1 - second-largest eigenvalue of the dense down-up matrix of
    _oracle_down_up, by numpy's eigvalsh."""
    oracle = _oracle_down_up(facets)
    where = {frozenset(f): i for i, f in enumerate(facets)}
    dense = np.zeros((len(where), len(where)))
    for (s, t), v in oracle.items():
        dense[where[s], where[t]] = float(v)
    return float(1.0 - np.linalg.eigvalsh(dense)[-2])


def _oracle_local_walk(facets, tau):
    """(states, {(a, b): P(a, b)}) for the element walk of the link of tau,
    from pair counts over the facets containing tau: a steps to b with
    probability #facets containing tau + {a, b} over (d - |tau| - 1) times
    #facets containing tau + {a}."""
    tau = frozenset(tau)
    denom = len(next(iter(facets))) - len(tau) - 1
    cnt = {}
    paircnt = {}
    for f in facets:
        if not tau <= f:
            continue
        rest = sorted(f - tau)
        for a, xel in enumerate(rest):
            cnt[xel] = cnt.get(xel, 0) + 1
            for yel in rest[a + 1 :]:
                paircnt[xel, yel] = paircnt.get((xel, yel), 0) + 1
    out = {}
    for (a, b), c in paircnt.items():
        out[a, b] = F(c, denom * cnt[a])
        out[b, a] = F(c, denom * cnt[b])
    return sorted(cnt), out


def _small_faces(facets):
    """Every face of size at most d - 2, the faces that have a local walk."""
    d = len(next(iter(facets)))
    return {
        frozenset(tau)
        for f in facets
        for k in range(d - 1)
        for tau in itertools.combinations(sorted(f), k)
    }


def _oracle_corpus():
    """Facet lists of NBC complexes, their truncations and spanning trees."""
    out = []
    for g in random_graph_corpus(count=3):
        matroid = GraphicMatroid(g)
        out.append(NbcComplex(matroid).facets())
        out.append(brute_bases(g.edge_count, graphic_indep(g), matroid.rank))
        for r in range(2, matroid.rank):
            out.append(NbcComplex(GraphicMatroid(g, r)).facets())
    return out


def _cone_corpus():
    """Facet lists with and without an apex A, the elements in every facet:
    NBC complexes and truncations under random orders, whose apex is the
    order-smallest edge; graphs with pendant edges, which are coloops and
    lie in every base too; raw lists that are cones at a label that is not
    the least, and lists with no apex; a single facet, rank 1 and rank 2;
    and two facets that share only the apex, so that every ridge of the
    reduced complex lies in one facet."""
    out = []
    for g in random_graph_corpus(count=3, max_edges=8):
        m = GraphicMatroid(g)
        for order in random_orders(m.ground_size, 2):
            out.append(NbcComplex(m, order).facets())
            out.append(NbcComplex(GraphicMatroid(g, 3), order).facets())
    for spec in (("complete", 5), ("complete_bipartite", 3, 3)):
        m = GraphicMatroid(build_named_graph(*spec))
        out.append(NbcComplex(m, random_orders(m.ground_size, 1)[0]).facets())
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    for pendants in ([(0, 4)], [(0, 4), (4, 5)], [(1, 4), (2, 5), (3, 6)]):
        m = GraphicMatroid(MultiGraph(7, cycle + pendants))
        for order in random_orders(m.ground_size, 2):
            out.append(NbcComplex(m, order).facets())
    out += [
        [{7, 1, 2}, {7, 1, 3}, {7, 2, 3}, {7, 3, 9}],
        [{7, 2**40, 1, 2}, {7, 2**40, 1, 3}, {7, 2**40, 2, 3}, {7, 2**40, 4, 1}],
        [{1, 2}, {2, 3}, {1, 3}],
        [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}, {2, 4, 5}],
        [{0, 1, 2}],
        [{5, 9}],
        [{4}],
        [{3}, {8}, {1}],
        [{1, 2}, {1, 3}],
        [{1, 2}, {3, 4}],
        [{50, 1, 2, 3}, {50, 4, 5, 6}],
    ]
    return [[frozenset(f) for f in facets] for facets in out]


class TestDownUpMatrix:
    def test_triangle_nbc_values(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        p = down_up_matrix(x)
        assert _matrix(p) == [[F(3, 4), F(1, 4)], [F(1, 4), F(3, 4)]]

    def test_triangle_all_bases_values(self):
        p = down_up_matrix(GraphicMatroid(build_named_graph("complete", 3)))
        expected = [
            [F(1, 2), F(1, 4), F(1, 4)],
            [F(1, 4), F(1, 2), F(1, 4)],
            [F(1, 4), F(1, 4), F(1, 2)],
        ]
        assert _matrix(p) == expected

    def test_accepts_raw_facets(self):
        p = down_up_matrix([{0, 1}, {0, 2}])
        assert p.size == 2
        assert p.entry(0, 1) == F(1, 4)

    def test_always_symmetric(self):
        for g in random_graph_corpus(count=3):
            p = down_up_matrix(NbcComplex(GraphicMatroid(g)))
            cells = _matrix(p)
            assert cells == [list(col) for col in zip(*cells)]
            assert all(sum(row) == 1 for row in cells)

    def test_positions_of_rejects_strangers(self):
        p = down_up_matrix([{0, 1}])
        assert p.positions_of([frozenset({0, 1})]) == [0]
        for stranger in (frozenset({0, 2}), 0, [[0], 1]):
            with pytest.raises(PreconditionError, match="is not in the matrix index"):
                p.positions_of([stranger])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(PreconditionError):
            down_up_matrix([{0, 1}, {0}])

    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            down_up_matrix([])


class TestDownUpAgainstOracle:
    def test_entries_match(self):
        for facets in _oracle_corpus():
            p = down_up_matrix(facets)
            oracle = _oracle_down_up(facets)
            assert set(p.index) == {frozenset(f) for f in facets}
            for i, s in enumerate(p.index):
                for j, t in enumerate(p.index):
                    assert p.entry(i, j) == oracle.get((s, t), 0)

    def test_rows_match(self):
        for facets in _oracle_corpus()[:3]:
            p = down_up_matrix(facets)
            oracle = _oracle_down_up(facets)
            for i, row in enumerate(p.rows):
                s = p.index[i]
                assert dict(row) == {
                    j: oracle[s, t] for j, t in enumerate(p.index) if (s, t) in oracle
                }

    def test_rows_match_on_every_case(self):
        for facets in _oracle_corpus():
            p = down_up_matrix(facets)
            oracle = _oracle_down_up(facets)
            assert [dict(row) for row in p.rows] == [
                {j: oracle[s, t] for j, t in enumerate(p.index) if (s, t) in oracle}
                for s in p.index
            ]

    def test_conductance_and_neighbors_match(self):
        rng = random.Random(11)
        for facets in _oracle_corpus():
            p = down_up_matrix(facets)
            if p.size < 2:
                continue
            oracle = _oracle_down_up(facets)
            states = list(p.index)
            for _ in range(10):
                s = set(rng.sample(states, rng.randint(1, len(states) - 1)))
                crossing = sum(
                    (v for (a, b), v in oracle.items() if a in s and b not in s), F(0)
                )
                outside = {b for (a, b), v in oracle.items() if a in s and b not in s and v}
                assert conductance(p, s) == crossing / len(s)
                assert neighbor_ratio(p, s) == F(len(outside), len(s))

    def test_ridge_incidence_matches_the_facets(self):
        """Ridge ids against the sets f - {e} themselves, e outside the apex A,
        the elements in every facet: the ridge sizes are the multiplicities
        of those sets, and two facets share a ridge id exactly when they
        share d - 1 elements."""
        rng = random.Random(19)
        labels = [2, 7, 10, 64, 999, 2**31, 2**40]
        raw = [
            [{10, 7, 2**40}, {10, 7, 3}, {7, 3, 2**40}, {10, 3, 2**40}, {10, 7, 99}],
            [set(c) for c in rng.sample(list(itertools.combinations(labels, 4)), 20)],
            [{5, 9, 1}, {5, 9, 2}, {5, 9, 3}],
        ]
        for facets in _oracle_corpus() + raw:
            p = down_up_matrix(facets)
            d = p.d
            apex = frozenset.intersection(*p.index)
            assert p.apex == len(apex)
            held = Counter(f - {e} for f in p.index for e in f - apex)
            assert sorted(p.ridge_sizes.tolist()) == sorted(held.values())
            assert p.facet_ridges.shape == (p.size, d - p.apex)
            for i, f in enumerate(p.index):
                mine = p.facet_ridges[i].tolist()
                assert len(set(mine)) == d - p.apex
                assert sorted(p.ridge_sizes[mine].tolist()) == sorted(
                    held[f - {e}] for e in f - apex
                )
            for i, j in itertools.combinations(range(p.size), 2):
                shares = bool(set(p.facet_ridges[i].tolist()) & set(p.facet_ridges[j].tolist()))
                assert shares == (len(p.index[i] & p.index[j]) == d - 1)


class TestRowSupport:
    """A down-up row holds the diagonal and |r| - 1 other facets per ridge r,
    since two facets share at most one ridge; the tracer reports the total as
    chains.nnz."""

    @pytest.mark.parametrize(
        "spec,rank,nnz", [("complete:8", 4, 82457), ("complete_bipartite:4:5", 5, 152816)]
    )
    def test_nonzeros(self, spec, rank, nnz):
        g = build_named_graph(*spec.split(":"))
        walk = down_up_matrix(NbcComplex(GraphicMatroid(g, rank)))
        assert walk.size + sum(m * (m - 1) for m in walk.ridge_sizes.tolist()) == nnz
        assert sum(len(row) for row in walk.rows) == nnz


class TestReducedComplex:
    """Walks solved on the reduced complex K = {F - A} against oracles that
    do not strip the apex A."""

    def test_corpus_covers_every_apex_shape(self):
        apexes = [frozenset.intersection(*facets) for facets in _cone_corpus()]
        assert any(a and 0 not in a for a in apexes)
        assert any(len(a) >= 2 for a in apexes)
        assert any(not a for a in apexes)

    def test_profile_against_the_walk_of_every_face(self):
        for facets in _cone_corpus():
            d = len(facets[0])
            prof = local_spectral_profile(facets)
            assert len(prof) == max(d - 1, 0)
            faces = _small_faces(facets)
            for k in range(d - 1):
                worst = max(
                    1.0 - spectral_gap(local_walk_matrix(facets, tau))
                    for tau in faces
                    if len(tau) == k
                )
                assert abs(prof[k] - worst) <= 1e-12, (sorted(map(sorted, facets)), k)

    def test_gap_against_the_dense_oracle(self):
        for facets in _cone_corpus():
            p = down_up_matrix(facets)
            assert p.apex == len(frozenset.intersection(*facets))
            if p.size == 1:
                assert spectral_gap(p) == 1.0
                continue
            assert abs(spectral_gap(p) - _oracle_gap(facets)) <= 1e-12

    def test_entries_and_rows_equal_the_oracle(self):
        for facets in _cone_corpus():
            p = down_up_matrix(facets)
            oracle = _oracle_down_up(facets)
            rows = p.rows
            for i, s in enumerate(p.index):
                assert rows[i] == {
                    j: oracle[s, t] for j, t in enumerate(p.index) if (s, t) in oracle
                }
                for j, t in enumerate(p.index):
                    assert p.entry(i, j) == oracle.get((s, t), 0)


class TestOneReducedComplex:
    """The local profile reads the reduced complex off a DownUpWalk, so a
    caller that wants both the gap and the profile derives K once."""

    def test_profile_of_the_walk_equals_the_profile_of_the_facets(self):
        corpus = _cone_corpus() + _oracle_corpus()
        assert any(len(facets) == 1 for facets in corpus)
        assert any(not frozenset.intersection(*facets) for facets in corpus)
        for facets in corpus:
            walk = down_up_matrix(facets)
            assert (
                local_spectral_profile(walk) == local_spectral_profile(facets)
            ), sorted(map(sorted, facets))

    def test_a_walk_passes_the_face_subset_guard(self, monkeypatch):
        walk = down_up_matrix(NbcComplex(GraphicMatroid(build_named_graph("complete", 4))))
        expected = local_spectral_profile(walk)
        monkeypatch.setattr(chains, "MAX_FACE_SUBSETS", 40)
        with pytest.raises(SizeGuardError, match="6 facets of size 3"):
            local_spectral_profile(walk)
        assert local_spectral_profile(walk, force=True) == expected

    def test_walk_gap_strips_the_apex_once(self, capsys, monkeypatch):
        original = chains._reduced
        calls = []

        def counted(facets):
            calls.append(len(facets))
            return original(facets)

        monkeypatch.setattr(chains, "_reduced", counted)
        argv = ["walk-gap", "--graph", "complete_bipartite:4:5", "--truncate", "5"]
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert calls == [3016]


class TestLocalWalk:
    def test_triangle_at_empty_face(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        p = local_walk_matrix(x, ())
        assert p.index == (0, 1, 2)
        assert _matrix(p) == [
            [F(0), F(1, 2), F(1, 2)],
            [F(1), F(0), F(0)],
            [F(1), F(0), F(0)],
        ]

    def test_zero_diagonal_and_row_sums(self):
        for g in random_graph_corpus(count=3):
            x = NbcComplex(GraphicMatroid(g))
            p = local_walk_matrix(x, ())
            for i in range(p.size):
                assert p.entry(i, i) == 0

    def test_requires_small_tau(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        with pytest.raises(PreconditionError):
            local_walk_matrix(x, {0})

    def test_rejects_non_face(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("cycle", 4)))
        with pytest.raises(PreconditionError):
            local_walk_matrix(x, {0, 1, 2})

    def test_rejects_a_broken_circuit(self):
        # {1, 4} is small enough, but it is the broken circuit of K5's
        # triangle {0, 1, 4}, so no facet holds it.
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 5)))
        with pytest.raises(PreconditionError, match="^tau is not a face of the complex$"):
            local_walk_matrix(x, {1, 4})

    def test_size_guard(self, monkeypatch):
        # The bound counts 2^(d - |tau|) per link facet, the ids of the link's
        # whole face lattice; the walk builds only levels 0 to 2 of it.  K4
        # at the empty face has 6 link facets of size 3, so the bound reads 48.
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 4)))
        monkeypatch.setattr(chains, "MAX_FACE_SUBSETS", 47)
        with pytest.raises(SizeGuardError, match="MAX_FACE_SUBSETS"):
            local_walk_matrix(x, ())
        monkeypatch.setattr(chains, "MAX_FACE_SUBSETS", 48)
        assert local_walk_matrix(x, ()).size == 6

    def test_link_walk_on_bigger_complex(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 4)))
        p = local_walk_matrix(x, {0})
        assert p.size >= 2
        gap = spectral_gap(p)
        assert 0.0 <= gap <= 2.0


class TestLocalWalkAgainstOracle:
    """Every local walk of the corpus, at every face of size at most d - 2,
    against pair counts taken straight from the facets."""

    def test_entries_match(self):
        for facets in _oracle_corpus():
            for tau in _small_faces(facets):
                p = local_walk_matrix(facets, tau)
                states, oracle = _oracle_local_walk(facets, tau)
                assert list(p.index) == states
                for i, a in enumerate(states):
                    for j, b in enumerate(states):
                        assert p.entry(i, j) == oracle.get((a, b), 0)
                # The tracer counts the rows' entries as nonzeros.
                assert list(p.rows) == [
                    {j: oracle[a, b] for j, b in enumerate(states) if (a, b) in oracle}
                    for a in states
                ]

    def test_detailed_balance(self):
        for facets in _oracle_corpus():
            for tau in _small_faces(facets):
                p = local_walk_matrix(facets, tau)
                count = [sum(1 for f in facets if tau | {a} <= f) for a in p.index]
                for i in range(p.size):
                    for j in range(p.size):
                        assert count[i] * p.entry(i, j) == count[j] * p.entry(j, i)

    def test_gap_matches_eigvals_of_the_oracle(self):
        for facets in _oracle_corpus():
            for tau in _small_faces(facets):
                states, oracle = _oracle_local_walk(facets, tau)
                dense = np.array([[float(oracle.get((a, b), 0)) for b in states] for a in states])
                second = sorted(np.linalg.eigvals(dense).real)[-2]
                gap = spectral_gap(local_walk_matrix(facets, tau))
                assert abs(gap - (1.0 - second)) <= 1e-9


def _check_stacks(facets, elements, lattice, k):
    """The stacks of level k of a face lattice against the oracle, in
    integers: each face of size k comes out once, with its states
    ascending, c[t, a, b] = count(tau + a + b), and row sums
    denom * count(tau + a).  elements maps the lattice's positions back to
    the facets' labels."""
    denom = len(facets[0]) - k - 1
    seen = []
    for faces, states, c in chains._pair_count_stacks(lattice, k):
        assert c.dtype.kind == "i"
        for t in range(len(c)):
            tau = frozenset(elements[i] for i in faces[t])
            seen.append(tau)
            mine = [elements[i] for i in states[t]]
            assert mine == sorted(mine)
            oracle_states, oracle = _oracle_local_walk(facets, tau)
            assert mine == oracle_states
            count = [sum(1 for f in facets if tau | {a} <= f) for a in mine]
            for i, a in enumerate(mine):
                for j, b in enumerate(mine):
                    pair = oracle.get((a, b), 0) * denom * count[i]
                    assert pair.denominator == 1
                    assert c[t, i, j] == pair
            sums = c[t].sum(axis=1)
            assert list(sums % denom) == [0] * len(mine)
            assert list(sums // denom) == count
    assert len(seen) == len(set(seen))
    assert set(seen) == {tau for tau in _small_faces(facets) if len(tau) == k}


def _raw_facet_lists(count, seed):
    """Seeded random same-size facet lists over sparse labels, some far past
    2^64, with and without elements common to every facet."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        size = rng.randint(4, 9)
        labels = sorted({rng.randrange(1, 2 ** rng.choice((8, 40, 70))) for _ in range(size)})
        d = rng.randint(2, min(5, len(labels)))
        combos = list(itertools.combinations(labels, d))
        facets = rng.sample(combos, rng.randint(1, min(12, len(combos))))
        if rng.random() < 0.3:
            facets = [f + (0,) for f in facets]
        out.append([frozenset(f) for f in facets])
    return out


class TestPairCountStacks:
    def test_stacks_match_the_oracle_at_every_face(self):
        """The profile's builder, at every level of the corpus."""
        for facets in _oracle_corpus():
            d = len(facets[0])
            elements, rows = chains._element_positions(facets)
            lattice = chains._face_lattice(rows, d)
            for k in range(d - 1):
                _check_stacks(facets, elements, lattice, k)

    def test_wide_keys_give_the_same_stacks(self):
        # Spread positions push the face keys past 2^31 from level 1 on, so
        # the lattice keys faces in 64 bits instead of 32; levels 0 and d are
        # not keyed.
        for facets in _oracle_corpus()[:3]:
            d = len(facets[0])
            _, rows = chains._element_positions(facets)
            wide = rows.astype(np.int64) << 30
            assert len(rows) * (int(wide.max()) + 1) >= 2**31
            lattice = chains._face_lattice(rows, d)
            wide_lattice = chains._face_lattice(wide, d)
            assert all(level[0].dtype == np.int32 for level in lattice[1:d])
            assert any(level[0].dtype == np.int64 for level in wide_lattice[1:d])
            for k in range(d - 1):
                narrow_stacks = list(chains._pair_count_stacks(lattice, k))
                wide_stacks = list(chains._pair_count_stacks(wide_lattice, k))
                assert len(narrow_stacks) == len(wide_stacks)
                for (faces, states, c), (wide_faces, wide_states, wide_c) in zip(
                    narrow_stacks, wide_stacks
                ):
                    assert np.array_equal(wide_faces, faces.astype(np.int64) << 30)
                    assert np.array_equal(wide_states, states.astype(np.int64) << 30)
                    assert np.array_equal(wide_c, c)


class TestFaceLattice:
    """The one face lattice of the reduced complex K that the profile builds,
    with K's ridges from its DownUpWalk, against the oracle at every level."""

    def _cases(self):
        out = _raw_facet_lists(12, seed=7)
        for g in random_graph_corpus(count=3, max_edges=8):
            m = GraphicMatroid(g)
            for order in random_orders(m.ground_size, 2):
                out.append(NbcComplex(m, order).facets())
                for r in range(2, m.rank):
                    out.append(NbcComplex(GraphicMatroid(g, r), order).facets())
            out.append(m)
        return out

    def test_every_level_against_the_oracle(self):
        cases = self._cases()
        assert any(isinstance(x, GraphicMatroid) for x in cases)
        for x in cases:
            walk = down_up_matrix(x)
            elements = sorted(set().union(*walk.index))
            apex = frozenset.intersection(*walk.index)
            reduced = [f - apex for f in walk.index]
            dk = walk.d - walk.apex
            if dk < 2:
                continue
            lattice = chains._face_lattice(walk.positions, dk, walk.facet_ridges)
            for j, (ids, counts, below, faces) in enumerate(lattice):
                # Dense lexicographic ids, each face's facet count, and the
                # faces one level down.
                named = [tuple(elements[i] for i in face) for face in faces.tolist()]
                assert named == sorted(named) and len(set(named)) == len(named)
                subsets = {t for f in reduced for t in itertools.combinations(sorted(f), j)}
                assert set(named) == subsets
                lower = [tuple(elements[i] for i in f) for f in lattice[j - 1][3].tolist()] if j else []
                for face, count, down in zip(named, counts.tolist(), below.tolist()):
                    assert count == sum(1 for f in reduced if set(face) <= f)
                    assert [lower[i] for i in down] == [face[:p] + face[p + 1 :] for p in range(j)]
                for row, facet_ids in zip(walk.positions.tolist(), ids.tolist()):
                    subsets = itertools.combinations(row, j)
                    assert [faces[i].tolist() for i in facet_ids] == [list(t) for t in subsets]
            for k in range(dk - 1):
                _check_stacks(reduced, elements, lattice, k)

    def test_one_sort_per_level(self, monkeypatch):
        """The profile of K4,4's reduced complex (dk = 6) sorts at most once
        per lattice level and once per profile level: ids at each lattice
        level come from the level below, and each profile level reads its
        slots off one argsort.  Of the lattice's levels 0..dk, the empty
        face, the walk's ridges and the facets need no sort.  Keying every
        level's faces column by column sorts k + 2 times at level k."""
        x = NbcComplex(GraphicMatroid(build_named_graph("complete_bipartite", 4, 4)))
        walk = down_up_matrix(x)
        dk = walk.d - walk.apex
        assert dk == 6
        calls = []
        for name in ("unique", "argsort", "sort"):
            original = getattr(np, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        profile = local_spectral_profile(walk)
        monkeypatch.undo()
        assert profile == local_spectral_profile(walk)
        assert len(calls) <= (dk - 2) + (dk - 1), Counter(calls)


class TestSpectralGap:
    def test_single_state_convention(self):
        p = down_up_matrix([{0, 1}])
        assert spectral_gap(p) == 1.0

    def test_identity_has_zero_gap(self):
        p = down_up_matrix([{0, 1}, {2, 3}])
        assert _matrix(p) == [[F(1), F(0)], [F(0), F(1)]]
        assert abs(spectral_gap(p)) <= 1e-12

    def test_disconnected_has_zero_gap(self):
        triangles = [{base + a, base + b} for base in (0, 10) for a, b in ((0, 1), (0, 2), (1, 2))]
        p = down_up_matrix(triangles)
        assert p.size == 6
        assert abs(spectral_gap(p)) <= 1e-12

    def test_triangle_values(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        assert abs(spectral_gap(down_up_matrix(x)) - 0.5) <= 1e-9
        full = down_up_matrix(GraphicMatroid(build_named_graph("complete", 3)))
        assert abs(spectral_gap(full) - 0.75) <= 1e-9

    def test_reversible_weighted_chain(self):
        # The C4 local walk at the empty face is reversible but not symmetric:
        # its stationary weights are the facet counts (3, 2, 2, 2).
        x = NbcComplex(GraphicMatroid(build_named_graph("cycle", 4)))
        p = local_walk_matrix(x, ())
        assert p.entry(0, 1) == F(1, 3) and p.entry(1, 0) == F(1, 2)
        assert abs(spectral_gap(p) - 1.25) <= 1e-9

    def test_local_gap_bits_pinned(self):
        """Single-link gaps bit for bit as the face-mask table computed them."""
        pins = [
            ("complete_bipartite", (4, 4), (), "0x1.027d4964867e8p+0"),
            ("complete", (5,), {0}, "0x1.ffffffffffffep-1"),
            ("cycle", (4,), (), "0x1.4000000000000p+0"),
        ]
        for kind, params, tau, hexed in pins:
            x = NbcComplex(GraphicMatroid(build_named_graph(kind, *params)))
            assert spectral_gap(local_walk_matrix(x, tau)).hex() == hexed, (kind, params, tau)

    def test_sparse_matches_dense_above_desk_size(self):
        facets = NbcComplex(GraphicMatroid(build_named_graph("complete", 8), 4)).facets()
        p = down_up_matrix(facets)
        assert p.size == 1665
        sparse = spectral_gap(p)
        assert spectral_gap(p) == sparse
        assert abs(_oracle_gap(facets) - sparse) <= 1e-12

    def test_sparse_disconnected_has_zero_gap(self):
        blocks = [
            {base + a, base + b}
            for base in (0, 100)
            for a, b in itertools.combinations(range(40), 2)
        ]
        p = down_up_matrix(blocks)
        assert p.size == 1560
        assert spectral_gap(p) == 0.0

    def test_disconnected_gap_is_exactly_zero_at_every_size(self):
        # Two disjoint blocks of the 2-subsets of b elements: eigenvalue 1
        # twice, which floating point alone reports as rounding noise.
        for b in range(3, 41):
            blocks = [
                {base + a, base + c}
                for base in (0, 100)
                for a, c in itertools.combinations(range(b), 2)
            ]
            assert spectral_gap(down_up_matrix(blocks)) == 0.0, b

    def test_sparse_matches_dense_on_small_walks(self):
        """The solve against a dense eigvalsh of the oracle matrix on the
        corpus walks of at least 20 states and the link gadget walks on K2,2;
        conductance and neighbor ratios stay those of the oracle."""
        walks = [(f, None) for f in _oracle_corpus() if len(f) >= 20]
        for l in range(4, 9):
            inst = build_link_gadget(build_named_graph("complete_bipartite", 2, 2), l, 2)
            facets = link_facets(inst.complex(), inst.tau)
            walks.append((facets, partition_link_facets(inst, facets).s_a))
        assert len(walks) == 11
        rng = random.Random(23)
        for facets, s_a in walks:
            p = down_up_matrix(facets)
            assert abs(spectral_gap(p) - _oracle_gap(facets)) <= 1e-12
            oracle = _oracle_down_up(facets)
            states = list(p.index)
            subsets = [set(rng.sample(states, rng.randint(1, len(states) - 1))) for _ in range(3)]
            for s in subsets + ([set(s_a)] if s_a else []):
                crossing = sum(
                    (v for (a, b), v in oracle.items() if a in s and b not in s), F(0)
                )
                outside = {b for (a, b), v in oracle.items() if a in s and b not in s and v}
                assert conductance(p, s) == crossing / len(s)
                assert neighbor_ratio(p, s) == F(len(outside), len(s))

    def test_matches_numpy_on_symmetric(self):
        for g in random_graph_corpus(count=3):
            p = down_up_matrix(NbcComplex(GraphicMatroid(g)))
            dense = np.array(_matrix(p), dtype=float)
            vals = np.linalg.eigvalsh(dense)
            assert abs(spectral_gap(p) - (1.0 - vals[-2])) <= 1e-9

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_graph_gap_anchor(self, n):
        """Under the default edge order the NBC bases of K_n pick one edge
        into each vertex v >= 1 from a smaller vertex, so the walk resamples
        a uniform one of n - 1 blocks of sizes 1..n-1 and its gap is
        1/(n - 1).  The facets are built from that product, not by the
        engine; K8 has 5040 states."""
        blocks = [[(u, v) for u in range(v)] for v in range(1, n)]
        facets = [frozenset(pick) for pick in itertools.product(*blocks)]
        assert abs(spectral_gap(down_up_matrix(facets), force=True) - 1 / (n - 1)) <= 1e-12
        if n <= 6:
            g = build_named_graph("complete", n)
            bases = enumerate_nbc_bases(NbcComplex(GraphicMatroid(g)))
            assert {frozenset(g.edges[e] for e in f) for f in bases} == set(facets)

    @pytest.mark.parametrize("l", [2, 8, 16, 32, 64])
    def test_link_gadget_gap_anchor(self, l):
        """The K2,2 link gadget's walk has gap 4/(3(l + 4)), a pin measured
        at l = 1..64; l = 64 has 9222 states, past MAX_EIG_STATES."""
        inst = build_link_gadget(build_named_graph("complete_bipartite", 2, 2), l, 2)
        p = down_up_matrix(link_facets(inst.complex(), inst.tau, force=True))
        assert abs(spectral_gap(p, force=True) - 4 / (3 * (l + 4))) <= 1e-12


class TestConductance:
    def test_triangle_single_facet(self):
        p = down_up_matrix(GraphicMatroid(build_named_graph("complete", 3)))
        s = [p.index[0]]
        assert conductance(p, s) == F(1, 2)
        assert neighbor_ratio(p, s) == F(2)

    def test_state_spellings_agree(self):
        """A state is any iterable of element ids: a set, list or tuple names
        the same facet as its frozenset."""
        p = down_up_matrix(NbcComplex(GraphicMatroid(build_named_graph("complete", 3))))
        gap = spectral_gap(p)
        for s in (frozenset({0, 1}), {0, 1}, [0, 1], (0, 1)):
            assert conductance(p, [s]) == F(1, 4)
            assert neighbor_ratio(p, [s]) == F(1)
            assert chains.cheeger_chain(p, [s], gap) == (F(1, 4), F(1), True)

    def test_requires_doubly_stochastic(self):
        p = local_walk_matrix(NbcComplex(GraphicMatroid(build_named_graph("complete", 3))), ())
        with pytest.raises(PreconditionError, match="conductance needs a doubly stochastic"):
            conductance(p, [0])
        with pytest.raises(PreconditionError, match="neighbor_ratio needs a doubly stochastic"):
            neighbor_ratio(p, [0])

    def test_rejects_improper_subsets(self):
        p = down_up_matrix(GraphicMatroid(build_named_graph("complete", 3)))
        with pytest.raises(PreconditionError):
            conductance(p, [])
        with pytest.raises(PreconditionError):
            conductance(p, list(p.index))

    def test_cheeger_chain_on_random_subsets(self):
        import random

        rng = random.Random(7)
        for g in random_graph_corpus(count=3):
            p = down_up_matrix(NbcComplex(GraphicMatroid(g)))
            gap = spectral_gap(p)
            states = list(p.index)
            for _ in range(20):
                size = rng.randint(1, max(1, len(states) // 2))
                s = rng.sample(states, size)
                phi = conductance(p, s)
                assert gap / 2 <= float(phi) + 1e-7
                assert phi <= neighbor_ratio(p, s)


class TestLocalProfile:
    def test_triangle_profile(self):
        x = NbcComplex(GraphicMatroid(build_named_graph("complete", 3)))
        prof = local_spectral_profile(x)
        assert type(prof) is tuple and len(prof) == 1
        assert abs(prof[0]) <= 1e-9

    def test_single_facet_profile(self):
        prof = local_spectral_profile([{0, 1, 2}])
        assert len(prof) == 2
        assert abs(prof[0] + 0.5) <= 1e-9
        assert abs(prof[1] + 1.0) <= 1e-9
        assert abs(local_to_global_bound(prof) - 1.0) <= 1e-9

    def test_profile_matches_direct_walks(self):
        cases = []
        for g in random_graph_corpus(count=2, max_edges=8):
            m = GraphicMatroid(g)
            for x in [NbcComplex(m)] + [NbcComplex(GraphicMatroid(g, r)) for r in range(2, m.rank)]:
                cases.append((x, enumerate_nbc_bases(x)))
            cases.append((m, brute_bases(g.edge_count, graphic_indep(g), m.rank)))
        # Sparse labels, some far past 64, exercise the element-to-bit map.
        labels = [0, 3, 64, 70, 128, 200, 999, 2**70]
        rng = random.Random(11)
        sparse = [set(c) for c in rng.sample(list(itertools.combinations(labels, 3)), 14)]
        cases.append((sparse, sparse))
        for x, facets in cases:
            facets = [frozenset(f) for f in facets]
            d = len(facets[0])
            prof = local_spectral_profile(x)
            assert len(prof) == d - 1
            faces = set()
            for facet in facets:
                for size in range(d - 1):
                    faces.update(map(frozenset, itertools.combinations(sorted(facet), size)))
            for k in range(d - 1):
                second = []
                for tau in (f for f in faces if len(f) == k):
                    p = local_walk_matrix(facets, tau)
                    if p.size < 2:
                        continue
                    second.append(1.0 - spectral_gap(p))
                if second:
                    assert abs(prof[k] - max(second)) <= 1e-9

    def test_profile_bits_depend_only_on_label_order(self):
        # Elements enter each local matrix in label order, so any
        # order-preserving relabelling gives the same gammas bit for bit.
        x = NbcComplex(GraphicMatroid(build_named_graph("complete_bipartite", 3, 4)))
        facets = enumerate_nbc_bases(x)
        rng = random.Random(5)
        labels = sorted(rng.sample(range(10**6), 11)) + [2**80]
        sparse = [{labels[e] for e in f} for f in facets]
        assert local_spectral_profile(sparse) == local_spectral_profile(x)

    def test_profile_bits_pinned(self):
        """Every gamma bit for bit as the reduced-complex route computes it,
        and within 1e-15 of the bits the one-eigvalsh-per-face implementation
        over a frozenset face table computed on the whole complex."""
        pins = {
            ("complete", (8,), 4): (
                ["0x1.d88062d1521edp-56", "0x1.87d913ff0b642p-54", "0x1.87d913ff0b642p-53"],
                ["0x1.13ab933bca71cp-54", "0x1.c3fa0f8c22e7ap-53", "0x1.87d913ff0b642p-53"],
            ),
            ("complete_bipartite", (4, 5), 5): (
                [
                    "-0x1.497011fa5d8d2p-6", "0x1.928e240eeb44ep-4", "0x1.2dea9b0b3073bp-3",
                    "0x1.a017072eb63fdp-3",
                ],
                [
                    "-0x1.497011fa5d8c3p-6", "0x1.928e240eeb446p-4", "0x1.2dea9b0b3073bp-3",
                    "0x1.a017072eb63fdp-3",
                ],
            ),
            ("complete_bipartite", (4, 4), None): (
                [
                    "-0x1.3ea4b2433f444p-7", "0x1.53166c3ea2b6fp-4", "0x1.20fd41866e18dp-3",
                    "0x1.8151acb33d767p-3", "0x1.e3e86629d9399p-3", "0x1.8440a65c91479p-2",
                ],
                [
                    "-0x1.3ea4b2433f3ddp-7", "0x1.53166c3ea2b68p-4", "0x1.20fd41866e188p-3",
                    "0x1.8151acb33d767p-3", "0x1.e3e86629d9399p-3", "0x1.8440a65c91479p-2",
                ],
            ),
        }
        for (kind, params, truncate), (hexes, whole) in pins.items():
            m = GraphicMatroid(build_named_graph(kind, *params), truncate)
            prof = local_spectral_profile(NbcComplex(m))
            assert [g.hex() for g in prof] == hexes, (kind, params, truncate)
            for g, old in zip(prof, whole, strict=True):
                assert abs(g - float.fromhex(old)) <= 1e-15, (kind, params, truncate)

    def test_profile_bits_pinned_past_64_elements(self):
        """K12 truncated to 3 has 66 elements, more than a 64-bit face mask
        holds; its gammas bit for bit as the reduced-complex route computes
        them, and within 1e-15 of the face-mask table's bits."""
        m = GraphicMatroid(build_named_graph("complete", 12), 3)
        x = NbcComplex(m)
        assert m.ground_size == 66 and len(x.facets()) == 1860
        prof = local_spectral_profile(x)
        assert [g.hex() for g in prof] == ["0x1.994d7de0e49d4p-54", "0x1.994d7de0e49d4p-53"]
        whole = ["0x1.4ed8474686678p-54", "0x1.994d7de0e49d4p-53"]
        for g, old in zip(prof, whole, strict=True):
            assert abs(g - float.fromhex(old)) <= 1e-15

    def test_one_eigvalsh_per_level_state_count(self, monkeypatch):
        """The profile solves the local walks of the reduced complex K, the
        bases less the cone apex 0, each once: fewer than the 4297 links of
        the whole complex."""
        x = NbcComplex(GraphicMatroid(build_named_graph("complete_bipartite", 4, 4)))
        d = x.rank
        # The state set of every face's local walk in K, straight from the facets.
        links = {}
        for f in enumerate_nbc_bases(x):
            f = f - {0}
            for k in range(d - 2):
                for tau in itertools.combinations(sorted(f), k):
                    links.setdefault(frozenset(tau), set()).update(f.difference(tau))
        assert len(links) < 4297
        groups = {}
        for tau, states in links.items():
            key = (len(tau), len(states))
            groups[key] = groups.get(key, 0) + 1
        shapes = []
        original = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        local_spectral_profile(x)
        assert len(shapes) == len(groups) < len(links)
        assert all(len(s) == 3 for s in shapes)
        assert sorted(s[0] for s in shapes) == sorted(groups.values())

    def test_independence_complex_profiles_nonpositive(self):
        for g in random_graph_corpus(count=3):
            prof = local_spectral_profile(GraphicMatroid(g))
            assert all(gamma <= 1e-9 for gamma in prof)

    def test_rank_one_bound(self):
        assert local_to_global_bound(()) == 1.0

    def test_bound_below_gap(self):
        for g in random_graph_corpus(count=4):
            x = NbcComplex(GraphicMatroid(g))
            prof = local_spectral_profile(x)
            bound = local_to_global_bound(prof)
            gap = spectral_gap(down_up_matrix(x))
            assert gap >= bound - 1e-7
