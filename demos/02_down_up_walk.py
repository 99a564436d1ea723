"""The down-up walk on NBC bases, with its exact transition matrix.

Drop a uniform element of the current base, then move to a uniform base
containing the remainder.  The matrix is symmetric and doubly stochastic,
so the uniform distribution is stationary and the spectral gap controls
mixing.
"""

from fractions import Fraction

from nbcwalk import (
    GraphicMatroid,
    NbcComplex,
    build_named_graph,
    down_up_matrix,
    spectral_gap,
)

g = build_named_graph("complete", 3)
x = NbcComplex(GraphicMatroid(g))
facets = x.facets()
print(f"NBC bases of the triangle: {[sorted(f) for f in facets]}")

p = down_up_matrix(facets)
for i in range(p.size):
    print(f"  row {sorted(p.index[i])}: {[str(p.entry(i, j)) for j in range(p.size)]}")
assert p.entry(0, 0) == Fraction(3, 4) and p.entry(0, 1) == Fraction(1, 4)
cells = [[p.entry(i, j) for j in range(p.size)] for i in range(p.size)]
assert cells == [list(col) for col in zip(*cells)] and all(sum(row) == 1 for row in cells)

gap = spectral_gap(p)
print(f"spectral gap on NBC bases: {gap}")
assert abs(gap - 0.5) <= 1e-9

# The walk on all three spanning trees (no broken-circuit restriction)
# mixes faster: each pair of trees shares an edge, so the chain is close
# to uniform resampling.
q = down_up_matrix(GraphicMatroid(g))
gap_all = spectral_gap(q)
print(f"spectral gap on all spanning trees: {gap_all}")
assert abs(gap_all - 0.75) <= 1e-9

# On the pentagon the same machinery gives a 4-state chain.
c5 = build_named_graph("cycle", 5)
x5 = NbcComplex(GraphicMatroid(c5))
p5 = down_up_matrix(x5.facets())
print(f"pentagon: {p5.size} NBC bases, gap {spectral_gap(p5):.6f}")
assert p5.size == 4
print("down-up walks verified")
