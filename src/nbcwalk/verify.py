"""Named self-check suites re-deriving the package's key identities on desk-
scale instances.  Each check recomputes a quantity two independent ways and
records an exact comparison; a crash inside a check marks it failed rather
than aborting the suite."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .chains import (
    cheeger_chain,
    down_up_matrix,
    local_spectral_profile,
    local_to_global_bound,
    local_walk_matrix,
    spectral_gap,
)
from .errors import PreconditionError
from .gadgets import (
    WeightVector,
    build_link_gadget,
    build_long_edge_instance,
    build_opt_reduction,
    critical_threshold,
    gap_certificate,
    max_weight_independent_set,
    max_weight_nbc_base,
    verify_counting_sandwich,
    verify_hardcore_identities,
)
from .graphs import (
    build_named_graph,
    chromatic_polynomial,
    count_acyclic_orientations,
    count_g_parking_functions,
)
from .matroids import GraphicMatroid
from .nbc import (
    NbcComplex,
    enumerate_nbc_bases,
    extend_to_nbc_base,
    face_numbers,
    is_log_concave,
)


@dataclass
class Check:
    """One named pass/fail record with a human-readable detail line."""

    name: str
    passed: bool
    detail: str = ""


def _run(checks, name, fn):
    try:
        passed, detail = fn()
    except Exception as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    checks.append(Check(name, bool(passed), str(detail)))


def _named_corpus():
    return [
        ("K3", build_named_graph("complete", 3)),
        ("C4", build_named_graph("cycle", 4)),
        ("K4", build_named_graph("complete", 4)),
        ("C5", build_named_graph("cycle", 5)),
    ]


def run_core_suite() -> list:
    """Counting identities: chromatic coefficients, orientations, orders,
    truncation, and the parking-function comparison."""
    checks = []

    def whitney():
        details = []
        for label, g in _named_corpus():
            x = NbcComplex(GraphicMatroid(g))
            fn = face_numbers(x)
            chi = chromatic_polynomial(g)
            coeffs = [abs(chi.coefficients[g.vertex_count - k]) for k in range(fn.degree + 1)]
            if list(fn.coefficients) != coeffs:
                return False, f"{label}: face numbers {fn.coefficients} vs coefficients {coeffs}"
            ao = count_acyclic_orientations(g)
            if fn.total() != ao or ao != abs(chi(-1)):
                return False, f"{label}: totals {fn.total()}, {ao}, {abs(chi(-1))} disagree"
            details.append(f"{label}:{fn.coefficients}")
        return True, "; ".join(details)

    _run(checks, "whitney-face-numbers", whitney)

    def order_invariance():
        import itertools

        for label, g in [("K3", build_named_graph("complete", 3)), ("C4", build_named_graph("cycle", 4))]:
            m = g.edge_count
            seen = set()
            for perm in itertools.permutations(range(m)):
                x = NbcComplex(GraphicMatroid(g), perm)
                seen.add(face_numbers(x).coefficients)
            if len(seen) != 1:
                return False, f"{label}: face numbers vary across orders: {sorted(seen)}"
        return True, "all element orders of K3 and C4 give identical face numbers"

    _run(checks, "order-invariance", order_invariance)

    def fundamental_none():
        g = build_named_graph("complete", 3)
        mat = GraphicMatroid(g)
        if mat.fundamental_circuit(frozenset({0}), 1) is not None:
            return False, "independent extension should give no circuit"
        c = mat.fundamental_circuit(frozenset({0, 1}), 2)
        if c != frozenset({0, 1, 2}):
            return False, f"triangle circuit came out as {c}"
        return True, "independent extension -> none; triangle closes {0,1,2}"

    _run(checks, "fundamental-circuit", fundamental_none)

    def truncation_purity():
        g = build_named_graph("cycle", 5)
        mat = GraphicMatroid(g, 2)
        x = NbcComplex(mat)
        fn = face_numbers(x)
        if fn.degree != 2:
            return False, f"truncated complex has face numbers {fn.coefficients}"
        for e in range(g.edge_count):
            base = extend_to_nbc_base(x, frozenset({e}))
            if len(base) != 2:
                return False, f"extension of {{{e}}} has size {len(base)}"
        return True, f"rank-2 truncation of C5 is pure with face numbers {fn.coefficients}"

    _run(checks, "truncation-purity", truncation_purity)

    def parking():
        g = build_named_graph("complete", 3)
        parked = count_g_parking_functions(g, 0)
        nbc_count = len(enumerate_nbc_bases(NbcComplex(GraphicMatroid(g))))
        if parked == 3 and nbc_count == 2:
            return True, "K3: 3 parking functions vs 2 NBC bases (mismatch recorded, not asserted equal)"
        return False, f"unexpected counts: {parked} parking functions, {nbc_count} NBC bases"

    _run(checks, "parking-vs-nbc-mismatch", parking)

    def log_concave():
        for label, g in _named_corpus():
            fn = face_numbers(NbcComplex(GraphicMatroid(g)))
            if not is_log_concave(fn.coefficients):
                return False, f"{label}: {fn.coefficients} is not log-concave"
        return True, "face numbers log-concave on the named corpus"

    _run(checks, "log-concavity", log_concave)
    return checks


def run_spectral_suite() -> list:
    """Walk matrices, exact gaps, the local-to-global bound, and Cheeger."""
    checks = []

    def k3_gaps():
        g = build_named_graph("complete", 3)
        x = NbcComplex(GraphicMatroid(g))
        p = down_up_matrix(x)
        cells = [[p.entry(i, j) for j in range(p.size)] for i in range(p.size)]
        if any(sum(line) != 1 for line in cells + list(zip(*cells))):
            return False, "down-up matrix is not doubly stochastic"
        gap = spectral_gap(p)
        if abs(gap - 0.5) > 1e-9:
            return False, f"NBC down-up gap {gap} != 0.5"
        full = down_up_matrix(GraphicMatroid(g))
        gap_full = spectral_gap(full)
        if abs(gap_full - 0.75) > 1e-9:
            return False, f"spanning-tree down-up gap {gap_full} != 0.75"
        return True, f"NBC gap {gap:.12g}, all-bases gap {gap_full:.12g}"

    _run(checks, "k3-down-up-gaps", k3_gaps)

    def k3_local():
        g = build_named_graph("complete", 3)
        x = NbcComplex(GraphicMatroid(g))
        p = local_walk_matrix(x, frozenset())
        gap = spectral_gap(p)
        if abs(gap - 1.0) > 1e-9:
            return False, f"local walk at the empty face has gap {gap} != 1.0"
        prof = local_spectral_profile(x)
        if len(prof) != 1 or abs(prof[0]) > 1e-9:
            return False, f"profile {prof} differs from (0.0,)"
        bound = local_to_global_bound(prof)
        if abs(bound - 0.5) > 1e-9:
            return False, f"local-to-global bound {bound} != 0.5"
        return True, f"profile {prof}, bound {bound} (tight against gap 0.5)"

    _run(checks, "k3-local-walk", k3_local)

    def ltg_bounds():
        for label in ("complete", "cycle"):
            g = build_named_graph(label, 4 if label == "complete" else 5)
            x = NbcComplex(GraphicMatroid(g))
            walk = down_up_matrix(x)
            prof = local_spectral_profile(walk)
            bound = local_to_global_bound(prof)
            gap = spectral_gap(walk)
            if gap < bound - 1e-7:
                return False, f"{label}: gap {gap} below bound {bound}"
        return True, "measured down-up gap dominates the local-to-global bound on K4 and C5"

    _run(checks, "local-to-global", ltg_bounds)

    def cheeger():
        g = build_named_graph("cycle", 5)
        x = NbcComplex(GraphicMatroid(g))
        p = down_up_matrix(x)
        s = p.index[: p.size // 2]
        gap = spectral_gap(p)
        phi, ratio, _ = cheeger_chain(p, s, gap)
        return True, f"gap/2 {gap / 2:.6f} <= phi {phi} <= neighbor ratio {ratio}"

    _run(checks, "cheeger-chain", cheeger)

    def stationary():
        g = build_named_graph("cycle", 4)
        x = NbcComplex(GraphicMatroid(g))
        p = local_walk_matrix(x, frozenset())
        gap = spectral_gap(p)
        if not 0.0 <= gap <= 2.0:
            return False, f"local walk gap {gap} out of range"
        return True, f"C4 local walk reversible with gap {gap:.6f}"

    _run(checks, "local-walk-reversible", stationary)
    return checks


def run_gadget_suite() -> list:
    """Gadget constructions and the four reductions on frozen desk examples."""
    checks = []

    def long_edge():
        inst = build_long_edge_instance(5)
        b1 = inst.marked_sets["B"]
        b2 = inst.marked_sets["B_prime"]
        dist_sq = len(b1 ^ b2)
        common = inst.weights.weight_of(b1)
        if common != 2:
            return False, f"common value {common} != 2"
        if dist_sq != 4:
            return False, f"indicator distance squared {dist_sq} != 4"
        return True, f"n=5: common value 2, |B xor B'| = {dist_sq}"

    _run(checks, "long-edge-witness", long_edge)

    @functools.cache
    def k22_link_certificate():
        # Shared by the two link checks, so the link is enumerated once; a
        # raise is not cached, and fails each check that asks.
        g = build_named_graph("complete_bipartite", 2, 2)
        return gap_certificate(build_link_gadget(g, 2, 2))

    def link_partition():
        cert = k22_link_certificate()
        part = cert["partition"]
        if cert["facet_count"] != 46:
            return False, f"link facet count {cert['facet_count']} != 46"
        if part.count_a(2) != 4 or len(part.neutral) != 6:
            return False, f"counts |S_A,2|={part.count_a(2)}, |S_0|={len(part.neutral)}"
        return True, "K_{2,2}, l=2: 46 link facets, |S_A,2| = 4 = l^2, |S_0| = 6"

    _run(checks, "link-partition", link_partition)

    def link_gap():
        report = k22_link_certificate()
        if report["paper_bound"] != 12:
            return False, f"paper_bound {report['paper_bound']} != 12"
        return True, (
            f"gap {report['measured_gap']:.6f}, conductance {report['conductance']}, "
            f"bound {report['paper_bound']}"
        )

    _run(checks, "link-gap-certificate", link_gap)

    def opt():
        g = build_named_graph("cycle", 4)
        w = WeightVector([1, 2, 3, 4])
        inst = build_opt_reduction(g, w)
        base, base_val = max_weight_nbc_base(inst.complex(), inst.weights)
        ind, ind_val = max_weight_independent_set(g, w)
        if base_val != ind_val:
            return False, f"NBC optimum {base_val} != independent-set optimum {ind_val}"
        recovered = frozenset(e - g.edge_count for e in base if e >= g.edge_count)
        if recovered != ind:
            return False, f"recovered set {sorted(recovered)} != {sorted(ind)}"
        return True, f"C4 with weights (1,2,3,4): optimum {ind_val} at {sorted(ind)}"

    _run(checks, "opt-reduction", opt)

    def count_facet():
        g = build_named_graph("cycle", 5)
        report = verify_counting_sandwich(g, 2, 20, "facet-count")
        if not report.verdict or report.target_quantity != 2510:
            return False, f"target {report.target_quantity}, verdict {report.verdict}"
        return True, f"C5, m=2, l=20: facet count {report.target_quantity} in [2000, 4000]"

    _run(checks, "counting-facet-mode", count_facet)

    def count_field():
        g = build_named_graph("cycle", 5)
        report = verify_counting_sandwich(g, 2, 10, "partition-function")
        if not report.verdict or report.target_quantity != 760:
            return False, f"target {report.target_quantity}, verdict {report.verdict}"
        return True, f"C5, m=2, l=10: partition function {report.target_quantity} in [500, 1000]"

    _run(checks, "counting-field-mode", count_field)

    def hardcore():
        g = build_named_graph("complete", 3)
        report = verify_hardcore_identities(g, 2)
        if report["counts_copies"] != (1, 16, 64):
            return False, f"2 K8 counts {report['counts_copies']}"
        return True, f"K3 with 2 K8 copies: union counts {report['counts_union']}"

    _run(checks, "hardcore-identities", hardcore)

    def threshold():
        if critical_threshold(7) != Fraction(46656, 78125):
            return False, f"threshold(7) = {critical_threshold(7)}"
        if critical_threshold(3) != 4:
            return False, f"threshold(3) = {critical_threshold(3)}"
        flag = "below" if critical_threshold(7) < Fraction(3, 5) else "at least"
        return True, f"threshold(7) = 46656/78125 ({flag} 3/5); threshold(3) = 4"

    _run(checks, "critical-threshold", threshold)
    return checks


SUITES = {
    "core": run_core_suite,
    "spectral": run_spectral_suite,
    "gadgets": run_gadget_suite,
}


def run_suite(name: str) -> list:
    """Run one named suite, or all of them concatenated."""
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    if name not in SUITES:
        raise PreconditionError(f"unknown suite {name!r}; choose core, spectral, gadgets, or all")
    return SUITES[name]()
