"""Shared test oracles, all deliberately independent of the package's own
algorithms: acyclicity and components by depth-first search (not union-find),
spanning trees, counted or weighted, by matrix-tree with exact rationals,
colorings, orientations, bases and broken circuits by direct brute force,
parking functions by Dhar's burning test on every candidate, NBC membership
and NBC bases also by the closure form.  None of them reads the Tutte
polynomial."""

import itertools
import random
from fractions import Fraction

from nbcwalk import MultiGraph

SEED = 20260816


def random_graph_corpus(count=20, vertices=6, min_edges=6, max_edges=10, seed=SEED):
    """Seeded connected random graphs with distinct simple edges."""
    rng = random.Random(seed)
    possible = list(itertools.combinations(range(vertices), 2))
    out = []
    while len(out) < count:
        m = rng.randint(min_edges, max_edges)
        g = MultiGraph(vertices, sorted(rng.sample(possible, m)))
        if g.is_connected():
            out.append(g)
    return out


def random_orders(m, count, seed=SEED):
    rng = random.Random(seed + m)
    return [tuple(rng.sample(range(m), m)) for _ in range(count)]


def subset_acyclic(g, ids):
    """Acyclic iff every component spanned by the subset has |E| = |V| - 1."""
    ids = list(ids)
    verts = set()
    adj = {}
    for e in ids:
        u, v = g.edges[e]
        verts.update((u, v))
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    comps = 0
    for r in verts:
        if r in seen:
            continue
        comps += 1
        seen.add(r)
        stack = [r]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(ids) == len(verts) - comps


def component_count(vertex_count, pairs):
    """Connected components of the graph on vertices 0..vertex_count-1 with
    the given endpoint pairs, by depth-first search."""
    adj = [[] for _ in range(vertex_count)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * vertex_count
    comps = 0
    for r in range(vertex_count):
        if seen[r]:
            continue
        comps += 1
        seen[r] = True
        stack = [r]
        while stack:
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return comps


def random_multigraphs(count=30, max_vertices=7, max_edges=10, seed=SEED):
    """Seeded random multigraphs, drawn with replacement from the vertex
    pairs: parallel edges, isolated vertices and disconnected graphs occur."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_vertices)
        pairs = list(itertools.combinations(range(n), 2))
        out.append(MultiGraph(n, [rng.choice(pairs) for _ in range(rng.randint(0, max_edges))]))
    return out


def brute_bases(m, indep, rank):
    """Every independent subset of 0..m-1 of size rank, by brute force over
    all of them, in lexicographic order."""
    return [s for s in map(frozenset, itertools.combinations(range(m), rank)) if indep(s)]


def brute_circuits(m, indep):
    """Minimal dependent subsets of 0..m-1 under the given independence test."""
    circuits = []
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(m), size):
            s = frozenset(combo)
            if any(c <= s for c in circuits):
                continue
            if not indep(s):
                circuits.append(s)
    return circuits


def brute_nbc_faces(m, indep, ranking):
    """All subsets that are independent and contain no broken circuit."""
    pos = {e: i for i, e in enumerate(ranking)}
    broken = [c - {min(c, key=pos.__getitem__)} for c in brute_circuits(m, indep)]
    faces = set()
    for size in range(m + 1):
        for combo in itertools.combinations(range(m), size):
            s = frozenset(combo)
            if indep(s) and not any(b <= s for b in broken):
                faces.add(s)
    return faces


def closure_is_nbc(indep, ranking, s):
    """NBC membership by the closure form of the definition (Björner 1992):
    s is independent and, for every f outside s, f plus the elements of s
    above f in the order is independent."""
    s = frozenset(s)
    if not indep(s):
        return False
    above = set()
    for f in reversed(ranking):
        if f in s:
            above.add(f)
        elif not indep(above | {f}):
            return False
    return True


def closure_nbc_facets_through(m, indep, ranking, tau, rank):
    """Every NBC base containing tau, by an explicit-stack walk from tau that
    adds ids in ascending order and keeps a set only when closure_is_nbc
    accepts it.  NBC sets are closed under subsets, so each base through tau
    is reached once, along its own ascending path; empty when tau is not NBC."""
    tau = frozenset(tau)
    if not closure_is_nbc(indep, ranking, tau):
        return set()
    out, stack = set(), [(tau, 0)]
    while stack:
        face, start = stack.pop()
        if len(face) == rank:
            out.add(face)
            continue
        for e in range(start, m):
            if e not in face and closure_is_nbc(indep, ranking, face | {e}):
                stack.append((face | {e}, e + 1))
    return out


def brute_nbc_facets_through(m, indep, ranking, tau, rank):
    """Every NBC base containing tau, straight from the definition without
    enumerating all circuits: a base F contains a broken circuit iff some
    e outside F and some T inside F make T + e a circuit whose smallest
    element is e."""
    pos = {e: i for i, e in enumerate(ranking)}
    tau = frozenset(tau)
    rest = [e for e in range(m) if e not in tau]

    def is_circuit(c):
        return not indep(c) and all(indep(c - {x}) for x in c)

    def has_broken_circuit(face):
        inner = sorted(face)
        for e in range(m):
            if e in face:
                continue
            for size in range(1, len(inner) + 1):
                for t in itertools.combinations(inner, size):
                    c = frozenset(t) | {e}
                    if min(c, key=pos.__getitem__) == e and is_circuit(c):
                        return True
        return False

    out = set()
    for extra in itertools.combinations(rest, rank - len(tau)):
        face = tau | frozenset(extra)
        if indep(face) and not has_broken_circuit(face):
            out.add(face)
    return out


def graphic_indep(g):
    return lambda s: subset_acyclic(g, s)


def truncated_indep(g, rank):
    return lambda s: len(s) <= rank and subset_acyclic(g, s)


def kirchhoff_tree_sum(g, weights):
    """Sum over the spanning trees of g of the product of their edge weights,
    weights[e] being edge e's, by the weighted matrix-tree theorem: the
    cofactor of the weighted Laplacian at its first vertex, by exact
    Fraction elimination.  0 on a graph with no vertex."""
    n = g.vertex_count
    if n == 0:
        return Fraction(0)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), w in zip(g.edges, weights):
        lap[u][u] += w
        lap[v][v] += w
        lap[u][v] -= w
        lap[v][u] -= w
    mat = [row[1:] for row in lap[1:]]
    size = n - 1
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor:
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    return det


def spanning_tree_count(g):
    """Matrix-tree determinant with exact rational elimination."""
    det = kirchhoff_tree_sum(g, [1] * g.edge_count)
    assert det.denominator == 1
    return int(det)


def proper_colorings(g, q):
    """Count proper q-colorings by direct enumeration."""
    count = 0
    for coloring in itertools.product(range(q), repeat=g.vertex_count):
        if all(coloring[u] != coloring[v] for u, v in g.edges):
            count += 1
    return count


def acyclic_orientations(g):
    """Orientations with no directed cycle, by trying all 2^m of them and
    peeling sources (Kahn's algorithm) off each."""
    n, m = g.vertex_count, g.edge_count
    count = 0
    for mask in range(1 << m):
        out = [[] for _ in range(n)]
        indeg = [0] * n
        for k, (u, v) in enumerate(g.edges):
            if mask >> k & 1:
                u, v = v, u
            out[u].append(v)
            indeg[v] += 1
        queue = [x for x in range(n) if indeg[x] == 0]
        done = 0
        while queue:
            x = queue.pop()
            done += 1
            for y in out[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    queue.append(y)
        count += done == n
    return count


def dhar_parking_functions(g, root):
    """G-parking functions of a connected graph by Dhar's burning test (Dhar,
    PRL 64, 1990) on every candidate f with 0 <= f(v) < deg(v): fire starts at
    the root, and a vertex catches once more than f(v) of its edges lead to
    burnt vertices.  f counts iff every vertex burns; otherwise the unburnt
    set is a subset S in which every v has f(v) at least its edges leaving S."""
    n = g.vertex_count
    adj = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    limits = [len(a) for a in adj]
    limits[root] = 1
    count = 0
    for f in itertools.product(*map(range, limits)):
        # Each edge to a burnt vertex takes one from fuel[v], and v catches
        # as its fuel drops below zero; the root is alight from the start.
        fuel = list(f)
        fuel[root] = -1
        fire = [root]
        for x in fire:
            for y in adj[x]:
                if fuel[y] == 0:
                    fire.append(y)
                fuel[y] -= 1
        count += len(fire) == n
    return count


def theta_graph(n):
    """The odd-n theta graph used by the long-edge construction."""
    half = (n - 1) // 2
    edges = []
    for i in range(1, half + 1):
        edges.append((0, 1 + i))
        edges.append((1 + i, 1))
    edges.append((0, 1))
    return MultiGraph(2 + half, edges)


def edge_witness(bases, weights, b1, b2):
    """True iff the distinct listed bases b1 and b2 tie for the strict
    maximum of the weight sum: every other listed base weighs strictly less.
    Plain Fraction sums over the weights, a sequence indexed by element."""
    bases = [frozenset(b) for b in bases]
    b1, b2 = frozenset(b1), frozenset(b2)
    if b1 == b2 or b1 not in bases or b2 not in bases:
        raise ValueError("b1 and b2 must be distinct bases from the list")

    def weight(b):
        return sum((Fraction(weights[e]) for e in b), Fraction(0))

    top = weight(b1)
    return weight(b2) == top and all(weight(b) < top for b in bases if b not in (b1, b2))
