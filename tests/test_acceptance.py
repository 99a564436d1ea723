"""Acceptance gate: twelve exact end-to-end checks covering the NBC oracle,
Whitney identities, order invariance, purity, log-concavity, spectral
certificates, the Cheeger chain, the gadget constructions, and the reductions.

Each check prints one CRITERION nn PASS/FAIL line; run with -s to see them.
Checks with a stated time budget assert it.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from nbcwalk import (
    ElementOrder,
    GraphicMatroid,
    MultiGraph,
    NbcComplex,
    build_link_gadget,
    build_long_edge_instance,
    build_named_graph,
    build_opt_reduction,
    chromatic_polynomial,
    conductance,
    count_acyclic_orientations,
    critical_threshold,
    down_up_matrix,
    extend_to_nbc_base,
    face_numbers,
    gap_certificate,
    is_log_concave,
    is_nbc,
    link_facets,
    local_spectral_profile,
    local_to_global_bound,
    max_weight_independent_set,
    max_weight_nbc_base,
    neighbor_ratio,
    partition_link_facets,
    spectral_gap,
    verify_counting_sandwich,
    verify_hardcore_identities,
)
from nbcwalk.gadgets import WeightVector

from helpers import (
    SEED,
    brute_circuits,
    edge_witness,
    random_graph_corpus,
    random_orders,
    subset_acyclic,
    theta_graph,
)

_BUDGETS = {1: 60.0, 2: 30.0, 6: 120.0, 8: 600.0, 10: 300.0}


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        budget = _BUDGETS.get(number)
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"took {elapsed:.1f}s, over the {budget:.0f}s budget")
    except BaseException as exc:
        print(f"CRITERION {number:02d} FAIL: {label} [{type(exc).__name__}: {exc}]")
        raise
    print(f"CRITERION {number:02d} PASS: {label} ({time.perf_counter() - start:.1f}s)")


def _named_graphs():
    return [
        ("K3", build_named_graph("complete", 3)),
        ("C4", build_named_graph("cycle", 4)),
        ("C5", build_named_graph("cycle", 5)),
        ("K4", build_named_graph("complete", 4)),
        ("K23", build_named_graph("complete_bipartite", 2, 3)),
        ("theta5", theta_graph(5)),
    ]


CORPUS = _named_graphs() + [(f"R{i}", g) for i, g in enumerate(random_graph_corpus())]

# Face-number sequences produced along the way, re-checked for log-concavity.
_SEQUENCES = []


def _face_numbers(x):
    f = face_numbers(x)
    _SEQUENCES.append((tuple(f), x.matroid.ground_size))
    return f


def test_criterion_01_oracle_equivalence():
    with criterion(1, "is_nbc matches the brute broken-circuit test on every subset"):
        for name, g in CORPUS:
            m = g.edge_count
            subsets = [
                frozenset(c)
                for size in range(m + 1)
                for c in itertools.combinations(range(m), size)
            ]
            indep_of = {s: subset_acyclic(g, s) for s in subsets}
            circuits = brute_circuits(m, indep_of.__getitem__)
            matroid = GraphicMatroid(g)
            for order in random_orders(m, 10):
                pos = {e: i for i, e in enumerate(order)}
                broken = [c - {min(c, key=pos.__getitem__)} for c in circuits]
                x = NbcComplex(matroid, ElementOrder(order))
                for s in subsets:
                    expected = indep_of[s] and not any(b <= s for b in broken)
                    assert is_nbc(x, s) == expected, (name, order, sorted(s))


def test_criterion_02_whitney_orientation_identities():
    with criterion(2, "face numbers match chromatic coefficients and orientation counts"):
        for name, g in CORPUS:
            assert g.is_connected()
            f = _face_numbers(NbcComplex(GraphicMatroid(g)))
            chi = chromatic_polynomial(g)
            nv = g.vertex_count
            for k, n_k in enumerate(f):
                assert n_k == abs(chi.coefficients[nv - k]), (name, k)
            total = sum(f)
            ao = count_acyclic_orientations(g)
            assert total == ao == abs(chi(-1)), name


def test_criterion_03_order_invariance():
    with criterion(3, "face numbers are identical under every element order"):
        for name, g in CORPUS:
            m = g.edge_count
            matroid = GraphicMatroid(g)
            reference = tuple(_face_numbers(NbcComplex(matroid)))
            if m <= 5:
                orders = list(itertools.permutations(range(m)))
            else:
                assert m <= 12, name
                orders = random_orders(m, 50)
            for order in orders:
                f = face_numbers(NbcComplex(matroid, ElementOrder(order)))
                assert tuple(f) == reference, (name, order)


def test_criterion_04_purity():
    with criterion(4, "every NBC face extends to an NBC base"):
        for name, g in CORPUS:
            m = g.edge_count
            x = NbcComplex(GraphicMatroid(g))
            indep_of = lambda s: subset_acyclic(g, s)
            circuits = brute_circuits(m, indep_of)
            broken = [c - {min(c)} for c in circuits]
            is_face = lambda s: indep_of(s) and not any(b <= s for b in broken)
            rank = x.rank
            for size in range(m + 1):
                for combo in itertools.combinations(range(m), size):
                    s = frozenset(combo)
                    if not is_face(s):
                        continue
                    base = extend_to_nbc_base(x, s)
                    assert s <= base and len(base) == rank and is_face(base), (name, sorted(s))


def test_criterion_05_log_concavity():
    with criterion(5, "every computed face-number sequence is log-concave"):
        for name, g in CORPUS:
            _face_numbers(NbcComplex(GraphicMatroid(g)))
        c5 = build_named_graph("cycle", 5)
        k4 = build_named_graph("complete", 4)
        for g, ranks in ((c5, range(1, 5)), (k4, range(1, 4))):
            for r in ranks:
                _face_numbers(NbcComplex(GraphicMatroid(g, r)))
        assert len(_SEQUENCES) >= len(CORPUS)
        for seq, ground in _SEQUENCES:
            assert is_log_concave(seq), seq
            assert all(n >= 0 for n in seq)


def test_criterion_06_spectral_certificates():
    with criterion(6, "exact gaps, zero local expansion, and the local-to-global bound"):
        k3 = build_named_graph("complete", 3)
        gap_nbc = spectral_gap(down_up_matrix(NbcComplex(GraphicMatroid(k3)).facets()))
        gap_all = spectral_gap(down_up_matrix(GraphicMatroid(k3)))
        assert abs(gap_nbc - 0.5) <= 1e-9, gap_nbc
        assert abs(gap_all - 0.75) <= 1e-9, gap_all
        for name, g in CORPUS:
            matroid = GraphicMatroid(g)
            profile = local_spectral_profile(matroid)
            assert all(gamma <= 1e-9 for gamma in profile), (name, tuple(profile))
            gap = spectral_gap(down_up_matrix(matroid))
            assert gap >= local_to_global_bound(profile) - 1e-7, name
            x = NbcComplex(matroid)
            nbc_profile = local_spectral_profile(x)
            nbc_gap = spectral_gap(down_up_matrix(x.facets()))
            assert nbc_gap >= local_to_global_bound(nbc_profile) - 1e-7, name


def test_criterion_07_cheeger_chain():
    with criterion(7, "gap/2 <= conductance <= neighbor ratio on random subsets"):
        rng = random.Random(SEED + 7)
        for name, g in CORPUS:
            p = down_up_matrix(NbcComplex(GraphicMatroid(g)).facets())
            half = p.size // 2
            assert half >= 1, name
            gap = spectral_gap(p)
            for _ in range(100):
                size = rng.randint(1, half)
                states = [p.index[i] for i in rng.sample(range(p.size), size)]
                phi = conductance(p, states)
                ratio = neighbor_ratio(p, states)
                assert gap / 2 <= float(phi) + 1e-7, (name, size)
                assert phi <= ratio, (name, size)


def test_criterion_08_link_gadget_bottleneck():
    with criterion(8, "link-gadget partition claims hold and the gap shrinks with l"):
        base = build_named_graph("complete_bipartite", 2, 2)
        gaps = {}
        for l in (2, 4, 8):
            inst = build_link_gadget(base, l, 2)
            facets = link_facets(inst.complex(), inst.tau)
            part = partition_link_facets(inst, facets)
            # f-edge e ends at base vertex (e - f_start) // l; K2,2's sides are {0, 1} and {2, 3}.
            f_start = min(inst.marked_sets["f_edges"])
            f_a = {e for e in inst.marked_sets["f_edges"] if (e - f_start) // l < 2}
            f_b = inst.marked_sets["f_edges"] - f_a
            for f in facets:
                assert 0 in f, l
                assert not (f & f_a and f & f_b), l
            assert part.count_a(2) == l * l, l
            cert = gap_certificate(inst)
            assert cert["s_a_at_most_half"], l
            assert cert["facet_count"] == len(facets)
            gaps[l] = cert["measured_gap"]
        assert gaps[8] < gaps[2], gaps


def test_criterion_09_opt_reduction():
    with criterion(9, "max independent-set weight equals max NBC base weight"):
        rng = random.Random(SEED + 9)
        for _ in range(200):
            nv = rng.randint(2, 7)
            possible = list(itertools.combinations(range(nv), 2))
            k = rng.randint(1, min(len(possible), 10))
            g = MultiGraph(nv, sorted(rng.sample(possible, k)))
            inst = build_opt_reduction(g, [0] * nv)
            x = inst.complex()
            x.facets()
            for _ in range(20):
                wv = WeightVector([rng.randint(0, 10) for _ in range(nv)])
                ind_set, ind_val = max_weight_independent_set(g, wv)
                edge_w = WeightVector([Fraction(0)] * g.edge_count + list(wv))
                base, base_val = max_weight_nbc_base(x, edge_w)
                assert ind_val == base_val, (g, tuple(wv))
                recovered = frozenset(e - g.edge_count for e in base if e >= g.edge_count)
                assert wv.weight_of(recovered) == base_val
                assert not any(
                    u in recovered and v in recovered for u, v in g.edges
                ), (g, sorted(recovered))


def test_criterion_10_counting_sandwiches():
    with criterion(10, "gadget counts sandwich the independent-set counts"):
        c5 = build_named_graph("cycle", 5)
        facet_report = verify_counting_sandwich(c5, 2, 20, "facet-count")
        assert facet_report.verdict
        assert facet_report.target_quantity == 2510
        assert 2000 <= facet_report.target_quantity <= 4000
        field_report = verify_counting_sandwich(c5, 2, 10, "partition-function")
        assert field_report.verdict
        assert field_report.target_quantity == 760
        assert 500 <= field_report.target_quantity <= 1000
        rng = random.Random(SEED + 10)
        possible = list(itertools.combinations(range(6), 2))
        graphs = []
        while len(graphs) < 10:
            g = MultiGraph(6, sorted(rng.sample(possible, rng.randint(5, 7))))
            if g.is_connected():
                graphs.append(g)
        for i, g in enumerate(graphs):
            mode = "facet-count" if i < 5 else "partition-function"
            report = verify_counting_sandwich(g, 2, 2 * g.edge_count, mode)
            assert report.verdict, (i, g)
            assert report.lower_bound <= report.target_quantity <= report.upper_bound


def test_criterion_11_hardcore_identities():
    with criterion(11, "hardcore count identities and the critical threshold"):
        graphs = [
            build_named_graph("complete", 3),
            build_named_graph("cycle", 5),
            build_named_graph("path", 4),
        ]
        for g in graphs:
            for r in range(4):
                result = verify_hardcore_identities(g, r)
                assert len(result["counts_copies"]) == r + 1
        assert critical_threshold(7) == Fraction(46656, 78125)


def test_criterion_12_long_edge_witness():
    with criterion(12, "edge-weight witnesses separate exactly the long-edge pair"):
        for n in (3, 5, 7, 9, 11):
            inst = build_long_edge_instance(n)
            bases = inst.complex().facets()
            b = inst.marked_sets["B"]
            b_prime = inst.marked_sets["B_prime"]
            assert edge_witness(bases, list(inst.weights), b, b_prime)
            assert len(b ^ b_prime) == n - 1, n
