"""Local walks, the spectral profile, and the local-to-global bound.

For each face tau, the local walk steps from element a of the link to b with
probability proportional to the number of facets containing tau + {a, b}; the
number containing tau + {a} is its stationary weight, so every local walk, and
its spectrum, is read from one table of facet counts.  Independence complexes
of matroids have every local second eigenvalue at most 0, and the product
formula (1/d) * prod(1 - gamma_j) lower-bounds the down-up gap.
"""

from nbcwalk import (
    GraphicMatroid,
    NbcComplex,
    build_named_graph,
    down_up_matrix,
    local_spectral_profile,
    local_to_global_bound,
    local_walk_matrix,
    spectral_gap,
)

g = build_named_graph("complete", 4)
matroid = GraphicMatroid(g)

# The matroid's own independence complex: every local walk is a 0-expander.
profile = local_spectral_profile(matroid)
print(f"K4 independence complex profile: {tuple(round(v, 12) for v in profile)}")
assert all(v <= 1e-9 for v in profile)

bound = local_to_global_bound(profile, matroid.rank)
gap = spectral_gap(down_up_matrix(matroid))
print(f"local-to-global bound {bound:.6f} <= measured gap {gap:.6f}")
assert gap >= bound - 1e-7

# One concrete local walk: the link of a single edge of the NBC complex.
x = NbcComplex(matroid)
walk = local_walk_matrix(x, frozenset({0}))
print(f"local walk at tau={{0}}: states {walk.index}")
assert all(walk.entry(i, i) == 0 for i in range(walk.size))

nbc_profile = local_spectral_profile(x)
nbc_bound = local_to_global_bound(nbc_profile, x.rank)
nbc_gap = spectral_gap(down_up_matrix(x.facets()))
print(f"NBC complex: profile {tuple(round(v, 6) for v in nbc_profile)}")
print(f"  bound {nbc_bound:.6f} <= gap {nbc_gap:.6f}")
assert nbc_gap >= nbc_bound - 1e-7

# A single-facet complex is a worst case in the other direction: each local
# walk is complete-graph-like with eigenvalue -1/(d-k-1), and the product
# formula telescopes to exactly 1.
single = [frozenset({0, 1, 2})]
sp = local_spectral_profile(single)
print(f"single facet: profile {tuple(round(v, 9) for v in sp)}, bound {local_to_global_bound(sp, 3):.9f}")
assert abs(sp[0] + 0.5) <= 1e-9 and sp[1] == -1.0
assert abs(local_to_global_bound(sp, 3) - 1.0) <= 1e-9
print("local expansion verified")
