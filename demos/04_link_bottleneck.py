"""A link whose down-up walk has a certified bottleneck.

Attach l two-edge chains from an apex to every vertex of K_{2,2}, truncate,
and look at the link of the chain edges touching the apex.  Its facets split
by which bipartition side their chain edges point to; crossing sides forces
the rare neutral configurations, so conductance — and with it the gap —
decays as l grows.
"""

from nbcwalk import build_link_gadget, build_named_graph, gap_certificate

base = build_named_graph("complete_bipartite", 2, 2)
print(f"base graph K_{{2,2}}: edges {list(base.edges)}")

for l in (2, 4, 8):
    cert = gap_certificate(build_link_gadget(base, l, 2))
    part = cert["partition"]
    print(
        f"l={l}: {cert['facet_count']} link facets, |S_A| = {len(part.s_a)}, "
        f"all-A level {part.count_a(2)} = l^2, neutral {len(part.neutral)}"
    )
    print(
        f"  gap {cert['measured_gap']:.6f}, conductance {cert['conductance']} "
        f"(= {float(cert['conductance']):.6f})"
    )
    assert part.count_a(2) == l * l
    # Cheeger: half the gap is at most the A-side conductance.
    assert cert["measured_gap"] / 2 <= float(cert["conductance"]) + 1e-7

g2 = gap_certificate(build_link_gadget(base, 2, 2))["measured_gap"]
g8 = gap_certificate(build_link_gadget(base, 8, 2))["measured_gap"]
print(f"gap at l=8 ({g8:.6f}) < gap at l=2 ({g2:.6f})")
assert g8 < g2
print("bottleneck certified")
