"""Broken circuits by hand on the triangle, then the Whitney connection.

A circuit minus its smallest edge is a broken circuit; independent sets
avoiding all broken circuits form a complex whose face counts are the
absolute coefficients of the chromatic polynomial.  That complex is a cone
over the order-smallest edge, so every NBC base contains it.
"""

from nbcwalk import (
    GraphicMatroid,
    NbcComplex,
    build_named_graph,
    chromatic_polynomial,
    count_acyclic_orientations,
    enumerate_nbc_bases,
    face_numbers,
)

g = build_named_graph("complete", 3)
print(f"triangle: {g.vertex_count} vertices, edges {list(g.edges)}")

x = NbcComplex(GraphicMatroid(g))
circuit = x.matroid.fundamental_circuit({0, 1}, 2)
broken = circuit - {min(circuit, key=x.order.index)}
print(f"circuits: {[sorted(circuit)]}")
print(f"broken circuits: {[sorted(broken)]}")

# The only circuit is {0,1,2}; dropping its smallest edge leaves {1,2},
# so exactly one of the three 2-subsets is forbidden.
f = face_numbers(x)
print(f"face numbers: {f.coefficients}")
assert f.coefficients == (1, 3, 2)

chi = chromatic_polynomial(g)
print(f"chromatic coefficients (low to high): {chi.coefficients}")
assert [abs(chi.coefficients[g.vertex_count - k]) for k in range(f.degree + 1)] == list(f.coefficients)

total = f.total()
print(f"total faces {total} = acyclic orientations {count_acyclic_orientations(g)}")
assert total == count_acyclic_orientations(g) == abs(chi(-1))

# The same identities on a graph with more structure.
k23 = build_named_graph("complete_bipartite", 2, 3)
f23 = face_numbers(NbcComplex(GraphicMatroid(k23)))
chi23 = chromatic_polynomial(k23)
print(f"K_{{2,3}} face numbers: {f23.coefficients}")
assert all(
    n == abs(chi23.coefficients[k23.vertex_count - k]) for k, n in enumerate(f23.coefficients)
)
assert f23.total() == count_acyclic_orientations(k23)

# No broken circuit contains the order-smallest edge, and a cycle through it
# would leave a broken circuit behind, so adding that edge to an NBC face
# keeps it NBC: the complex is a cone over it, whichever order picks it.
k4 = build_named_graph("complete", 4)
for ranking in (range(6), range(5, -1, -1)):
    x = NbcComplex(GraphicMatroid(k4), ranking)
    bases = enumerate_nbc_bases(x)
    smallest = x.order[0]
    print(f"K4 under order {list(x.order)}: {len(bases)} NBC bases, all holding edge {smallest}")
    assert len(bases) == 6 and all(smallest in b for b in bases)
print("all identities check out")
