"""Three reductions from independent sets to NBC bases.

Optimization: vertex weights copied onto apex edges make max-weight NBC
bases recover max-weight independent sets.  Counting: gadget facet counts
and field-weighted partition functions sandwich i_m(g) between l^m * i_m
and twice that.  Hardcore: padding with K8 copies produces the convolution
identities behind the fugacity-threshold hardness.
"""

from fractions import Fraction

from nbcwalk import (
    build_named_graph,
    build_opt_reduction,
    critical_threshold,
    max_weight_independent_set,
    max_weight_nbc_base,
    verify_counting_sandwich,
    verify_hardcore_identities,
)

# Optimization on the square with weights 1,2,3,4.
g = build_named_graph("cycle", 4)
weights = [1, 2, 3, 4]
inst = build_opt_reduction(g, weights)
ind_set, ind_val = max_weight_independent_set(g, weights)
base, base_val = max_weight_nbc_base(inst.complex(), inst.weights)
recovered = sorted(e - g.edge_count for e in base if e >= g.edge_count)
print(f"square, weights {weights}: best independent set {sorted(ind_set)} (value {ind_val})")
print(f"  best NBC base recovers {recovered} (value {base_val})")
assert ind_val == base_val == 6 and recovered == [1, 3]

# Counting on the pentagon, both gadget modes.
c5 = build_named_graph("cycle", 5)
for mode, l in (("facet-count", 20), ("partition-function", 10)):
    report = verify_counting_sandwich(c5, 2, l, mode)
    print(
        f"pentagon m=2, {mode} at l={l}: target {report.target_quantity} in "
        f"[{report.lower_bound}, {report.upper_bound}] -> verdict {report.verdict}"
    )
    assert report.verdict and report.source_quantity == 5

# Hardcore identities for the path on four vertices padded with 3 K8 copies.
path4 = build_named_graph("path", 4)
result = verify_hardcore_identities(path4, 3)
print(f"path4 + 3*K8: i_m of the copies {result['counts_copies']}")
assert result["counts_copies"] == (1, 24, 192, 512)

lam7 = critical_threshold(7)
print(f"critical fugacity at degree 7: {lam7} = {float(lam7):.6f} (below 3/5)")
assert lam7 == Fraction(46656, 78125) and lam7 < Fraction(3, 5)
print(f"critical fugacity at degree 3: {critical_threshold(3)}")
assert critical_threshold(3) == 4
print("reductions verified")
