"""Broken-circuit complexes: membership, enumeration, face numbers, links.

A circuit with its order-smallest element removed is a broken circuit; the NBC
complex holds every independent set containing none of them.  Membership has
one test: is_nbc asks the walker's engine to build the face from e0 up (see
below for why e0 may be added).

Face numbers, facets and links come from one explicit-stack walker, so face
depth is bounded by memory, not by the recursion limit.  Face numbers are
by-size counts, a graphs.SizeCounts.  The walker drives an engine with a
can_add/extensions/push/pop protocol: can_add(e) decides exactly whether an NBC
face holding e0 stays NBC with e added, and extensions(cand) filters, right
after a push, a list that the face before it accepted in full.

Every walk holds e0, the order-smallest element, from its root on.  The NBC
complex is a cone with apex e0 (Brylawski, "The broken-circuit complex",
1977): no broken circuit holds e0, and a circuit through e0 has e0 as its
minimum, so F + e0 is a face whenever F is.  Hence every NBC base holds e0,
the faces without e0 pair off with the faces F + e0, and the walk visits only
the faces that hold e0; face_numbers counts the rest through the pairing.  The
walk rests on the NBC complex being a simplicial complex (Björner, "Homology
and shellability of matroids and geometric lattices", 1992): if F + e is not a
face, no F + f + e is one either.  So a face F works out its accepted list
A(F) once, and its child F + A[i] tries only A[i+1:], which holds every
e > A[i] with F + A[i] + e a face; the preorder is the one a walk trying every
element id in turn would take.  Facets are appended to the member list and
yielded without an engine push.  Extension to a base scans the ids once, along
the walk's first path.  A consumer may prune the walk: it is asked before each
child is pushed, and the engines' greedy, Edmonds' algorithm in the
contraction by that child, bounds what the child's subtree can add.

Graphic and truncated graphic matroids get a pure-Python engine that keeps the
face as a forest with component labels and parent pointers whose rooting is
free: push hangs the smaller tree under the larger, and pop cuts the edge
again.  can_add re-examines only the cycles the new edge closes.  It finds
their closing edges by scanning the smaller component's incidences, kept in
order position, up to the new edge's position, and re-roots the two trees at
the new edge's endpoints, so each cycle's minimum takes two climbs to the
roots, never a sweep of a component.  An inherited candidate whose components
the last push left alone skips the cycles altogether; any other inherited
candidate scans only the cycles through both itself and the pushed edge, since
every other cycle through it closes the same forest path as before the push,
where it was already checked.  A push stamps the vertices it relabels with a
count that is never reused, so telling the pushed edge's two sides apart is
one comparison.  Any other matroid gets an engine that asks only
is_independent, through the closure form of the NBC condition (Björner 1992):
an independent F is NBC iff, for every f outside F, f plus the elements of F
above f stay independent.
"""

from __future__ import annotations

from .errors import PreconditionError, SizeGuardError, VerificationError
from .graphs import SizeCounts, _integer
from .matroids import GraphicMatroid, Matroid, TruncatedMatroid

MAX_NBC_BASES = 1_000_000
MAX_NBC_FACES = 2_000_000


class ElementOrder:
    """Total order on ground elements: ranking[0] is the smallest element."""

    __slots__ = ("ranking", "_pos")

    def __init__(self, ranking):
        ranking = tuple(_integer(x, "a ranking entry") for x in ranking)
        if sorted(ranking) != list(range(len(ranking))):
            raise PreconditionError("ranking must be a permutation of 0..m-1")
        self.ranking = ranking
        pos = [0] * len(ranking)
        for i, e in enumerate(ranking):
            pos[e] = i
        self._pos = tuple(pos)

    @classmethod
    def identity(cls, m: int) -> "ElementOrder":
        return cls(range(m))

    def positions(self) -> tuple:
        """positions()[e] = rank of element e (0 = smallest)."""
        return self._pos

    def smallest(self, subset) -> int:
        items = list(subset)
        if not items:
            raise PreconditionError("smallest() needs a nonempty subset")
        return min(items, key=self._pos.__getitem__)

    def __len__(self):
        return len(self.ranking)

    def __eq__(self, other):
        return isinstance(other, ElementOrder) and self.ranking == other.ranking

    def __hash__(self):
        return hash(self.ranking)

    def __repr__(self):
        return f"ElementOrder({list(self.ranking)})"


class NbcComplex:
    """A matroid plus an element order; faces are the NBC independent sets."""

    def __init__(self, matroid: Matroid, order=None):
        if not isinstance(matroid, Matroid):
            raise PreconditionError("NbcComplex needs a Matroid")
        if order is None:
            order = ElementOrder.identity(matroid.ground_size)
        elif not isinstance(order, ElementOrder):
            order = ElementOrder(order)
        if len(order) != matroid.ground_size:
            raise PreconditionError("order length must equal the matroid ground size")
        self.matroid = matroid
        self.order = order
        self._facet_cache = None
        self._broken_cache = None

    @property
    def rank(self) -> int:
        return self.matroid.rank

    def facets(self, force: bool = False):
        if self._facet_cache is None:
            self._facet_cache = enumerate_nbc_bases(self, force=force)
        return self._facet_cache

    def broken_circuits(self, force: bool = False):
        """Every circuit minus its order-smallest element; cached."""
        if self._broken_cache is None:
            self._broken_cache = tuple(
                c - {self.order.smallest(c)} for c in self.matroid.circuits(force=force)
            )
        return self._broken_cache

    def __repr__(self):
        return f"NbcComplex({self.matroid!r}, {self.order!r})"


def is_nbc(x: NbcComplex, s) -> bool:
    """True iff s is an NBC face: the engine builds it from e0 up."""
    return _root_engine(x, x.matroid.check_subset(s)) is not None


def is_log_concave(f) -> bool:
    """n_i^2 >= n_{i-1} * n_{i+1} at every interior index."""
    seq = list(f)
    return all(seq[i] * seq[i] >= seq[i - 1] * seq[i + 1] for i in range(1, len(seq) - 1))


class _GraphicEngine:
    """Incremental NBC-face state for (possibly truncated) graphic matroids.

    The face is a forest.  Every vertex carries a component label and every
    label a member list, and every vertex points at its parent in some rooting
    of its tree: parent[x] is -1 at a root, and ppos[x] is the order position
    of the edge from x to its parent, -1 at a root, so every climb stops
    there.  The rooting carries no information, and any method may change it:
    _hang(s, p, pp) reverses the parent chain from s to its root, making s the
    root of its tree, then hangs s under p through an edge at position pp (or
    leaves it a root when p is -1).  push(e) relabels the smaller of the two
    components e joins, stamps each relabelled vertex with the push count
    tick, which grows and is never reused, and hangs the small tree from e's
    endpoint s under the other endpoint, recording (big, small, old_len): the
    two sides of e are comp[big][:old_len] and comp[big][old_len:].  pop()
    relabels the small side back and cuts e: of e's endpoints, it clears the
    parent of the one that hangs from the other, which is unique because a
    forest holds at most one edge between two vertices.  Each vertex's
    incidences are (order position, neighbour) pairs in ascending position.

    can_add(e) requires the current face to be NBC and to hold e0, the
    order-smallest element, unless e is e0; every face the walk reaches holds
    e0.  Then the only circuits that can newly have an absent smallest
    element are the cycles through e: a truncation's size circuits all hold
    e0, which face + e holds.  It applies, in order:

    1. Reject a full face and an e inside one component; an e already in the
       face has both endpoints in one component, so this rejects it too.
    2. An absent edge f that closes a cycle through e joins e's two components,
       and e lies on that cycle, so f can be its minimum only if
       pos[f] < pos[e].  Scan the smaller component's incidences, each up to
       pos[e], for such candidates; with none, accept.
    3. Otherwise make e's endpoints u and v the roots of their trees.  A
       candidate f = xy closes the cycle x ... u, e, v ... y, whose two forest
       sides are the climbs from x and from y to their roots.  Climb each
       side, stopping at the first edge at or below pos[f]; reject e if both
       climbs reach their roots.

    extensions(cand) is can_add over a list that the face P before the last
    push accepted in full, where F = P + a is the face now.  Take e = uv with
    neither endpoint in a's merged component (both differ from its label, one
    O(1) test each).  Then u's and v's components are the same trees in F as
    in P, so e still joins two components (rule 1), and the absent edges
    joining them, and the forest paths that close their cycles through e, are
    unchanged: a cannot be one of those edges, since it joined two other
    components.  So rules 2 and 3 see the same cycles at F as at P, where
    P + e is NBC and so none of them has an absent minimum, and e is accepted
    outright.  A candidate whose endpoints now share a component is rejected
    (rule 1).  That leaves e with u in a's merged component M and v in
    another component B.  A cycle through e closed by an absent f = xy, x in
    M and y in B, whose forest path from x to u avoids a, is the cycle it was
    at P; only the cycles through both a and e are new, those with x on the
    side of a away from u.  Such an f is the cycle's minimum only if it lies
    below both a and e.  So scan the incidences of the smaller of that side
    and B, each up to min(pos[a], pos[e]), and climb as rule 3 does.  The
    side test needs no set: right after the push, x lies on the relabelled
    side iff stamp[x] == tick, and extensions runs only then.
    """

    def __init__(self, graph, order: ElementOrder, trunc_rank: int):
        nv = graph.vertex_count
        self.m = graph.edge_count
        self.full = trunc_rank
        self.pos = pos = order.positions()
        self.ends = graph.edges
        self.incidences = [[] for _ in range(nv)]
        for f in order.ranking:
            u, v = graph.edges[f]
            self.incidences[u].append((pos[f], v))
            self.incidences[v].append((pos[f], u))
        self.label = list(range(nv))
        self.comp = [[x] for x in range(nv)]
        self.parent = [-1] * nv
        self.ppos = [-1] * nv
        self.stamp = [0] * nv
        self.tick = 0
        self.members = []
        self._merges = []

    def _hang(self, s: int, p: int, pp: int):
        parent, ppos = self.parent, self.ppos
        while s >= 0:
            parent[s], ppos[s], s, p, pp = p, pp, parent[s], s, ppos[s]

    def can_add(self, e: int) -> bool:
        """True iff the current face (assumed NBC, and holding e0 unless e is
        e0) stays NBC after adding e."""
        if len(self.members) >= self.full:
            return False
        u, v = self.ends[e]
        label = self.label
        small, big = label[u], label[v]
        if small == big:
            return False
        pos_e = self.pos[e]
        if len(self.comp[small]) > len(self.comp[big]):
            small, big = big, small
        incidences = self.incidences
        cand = []
        for x in self.comp[small]:
            for pf, y in incidences[x]:
                if pf >= pos_e:
                    break
                if label[y] == big:
                    cand.append((pf, x, y))
        return not cand or self._no_absent_minimum(u, v, cand)

    def _no_absent_minimum(self, u: int, v: int, cand) -> bool:
        """Rule 3: root the trees at u and v; True iff every (pf, x, y) in
        cand, an absent edge at position pf closing a cycle through uv, has
        a forest edge at or below pf on the climb from x or from y."""
        self._hang(u, -1, -1)
        self._hang(v, -1, -1)
        parent, ppos = self.parent, self.ppos
        for pf, x, y in cand:
            for z in (x, y):
                while ppos[z] > pf:
                    z = parent[z]
                if ppos[z] >= 0:
                    break  # this side's path has an edge at or below f
            else:
                return False
        return True

    def extensions(self, cand) -> list:
        """The elements of cand that can_add accepts, in cand's order.  The
        face before the last push accepted all of cand, so an e whose
        components that push left alone is accepted without a cycle scan,
        and any other e scans only the cycles through the pushed edge.  The
        walk calls it only right after a push, on a face below full size."""
        big, _, old_len = self._merges[-1]
        pos_a = self.pos[self.members[-1]]
        label, ends, pos, comp = self.label, self.ends, self.pos, self.comp
        stamp, tick, incidences = self.stamp, self.tick, self.incidences
        grown = comp[big]
        moved = len(grown) - old_len
        out = []
        for e in cand:
            u, v = ends[e]
            lu, lv = label[u], label[v]
            if lu == lv:
                continue
            if lu != big and lv != big:
                out.append(e)
                continue
            if lv == big:
                u, v, lv = v, u, lu
            flip = stamp[u] == tick  # u was relabelled, so a's side away from u is the old part
            far = comp[lv]
            bound = pos[e]
            if bound > pos_a:
                bound = pos_a
            found = []
            if (old_len if flip else moved) <= len(far):
                for x in grown[:old_len] if flip else grown[old_len:]:
                    for pf, y in incidences[x]:
                        if pf >= bound:
                            break
                        if label[y] == lv:
                            found.append((pf, x, y))
            else:
                for y in far:
                    for pf, x in incidences[y]:
                        if pf >= bound:
                            break
                        if label[x] == big and (stamp[x] == tick) != flip:
                            found.append((pf, x, y))
            if not found or self._no_absent_minimum(u, v, found):
                out.append(e)
        return out

    def push(self, e: int):
        u, v = self.ends[e]
        label, comp = self.label, self.comp
        big, small, s, t = label[u], label[v], v, u
        if len(comp[big]) < len(comp[small]):
            big, small, s, t = small, big, u, v
        grown = comp[big]
        self._merges.append((big, small, len(grown)))
        self.tick = tick = self.tick + 1
        stamp = self.stamp
        for x in comp[small]:
            label[x] = big
            stamp[x] = tick
        grown.extend(comp[small])
        self._hang(s, t, self.pos[e])
        self.members.append(e)

    def pop(self):
        e = self.members.pop()
        big, small, old_len = self._merges.pop()
        grown = self.comp[big]
        label = self.label
        for x in grown[old_len:]:
            label[x] = small
        del grown[old_len:]
        u, v = self.ends[e]
        x = u if self.parent[u] == v else v
        self.parent[x] = self.ppos[x] = -1

    def greedy(self, e: int, ranked, need: int) -> list:
        """Edmonds' greedy in the contraction by face + e: the first need
        elements of ranked, in its order, that join two components of the
        forest face + e plus the ones taken before; fewer when ranked runs
        out.  Union-find runs over the component labels, with e's endpoints
        merged first, so the forest itself is left alone."""
        label, ends = self.label, self.ends
        u, v = ends[e]
        up = {label[u]: label[v]}
        out = []
        for f in ranked:
            if len(out) == need:
                break
            a, b = ends[f]
            a, b = label[a], label[b]
            while a in up:
                a = up[a]
            while b in up:
                b = up[b]
            if a != b:
                up[a] = b
                out.append(f)
        return out


class _OracleEngine:
    """The engine protocol for any matroid, asking only is_independent."""

    def __init__(self, x: NbcComplex):
        self.matroid = x.matroid
        self.ranking = x.order.ranking
        self.m = x.matroid.ground_size
        self.full = x.matroid.rank
        self.members = []

    def can_add(self, e: int) -> bool:
        """True iff face + e is NBC, by the closure form: it is independent,
        and every f outside it, with the elements of it above f, is too.  The
        scan runs down the order, so those elements are the ones passed."""
        members = self.members
        if len(members) >= self.full or e in members:
            return False
        is_independent = self.matroid.is_independent
        grown = {*members, e}
        if not is_independent(grown):
            return False
        above = []
        for f in reversed(self.ranking):
            if f in grown:
                above.append(f)
            elif not is_independent(above + [f]):
                return False
        return True

    def extensions(self, cand) -> list:
        can_add = self.can_add
        return [e for e in cand if can_add(e)]

    def push(self, e: int):
        self.members.append(e)

    def pop(self):
        self.members.pop()

    def greedy(self, e: int, ranked, need: int) -> list:
        """Edmonds' greedy in the contraction by face + e: the first need
        elements of ranked, in its order, that stay independent together
        with face + e and the ones taken before; fewer when ranked runs out."""
        is_independent = self.matroid.is_independent
        chosen = [*self.members, e]
        start = len(chosen)
        for f in ranked:
            if len(chosen) - start == need:
                break
            if is_independent([*chosen, f]):
                chosen.append(f)
        return chosen[start:]


def _engine(x: NbcComplex):
    matroid = x.matroid
    if isinstance(matroid, GraphicMatroid):
        return _GraphicEngine(matroid.graph, x.order, matroid.rank)
    if isinstance(matroid, TruncatedMatroid) and isinstance(matroid.inner, GraphicMatroid):
        return _GraphicEngine(matroid.inner.graph, x.order, matroid.target_rank)
    return _OracleEngine(x)


def _root_engine(x: NbcComplex, root):
    """An engine holding the face root plus e0, the order-smallest element, or
    None when root is not an NBC face (root + e0 is one exactly when root is)."""
    eng = _engine(x)
    apex = x.order.ranking[:1]
    for e in (*apex, *sorted(root.difference(apex))):
        if not eng.can_add(e):
            return None
        eng.push(e)
    return eng


def _walk(x: NbcComplex, root=frozenset(), force: bool = False, prune=None):
    """Every NBC face containing root and e0, in preorder from root + e0: a
    face's children add its accepted extensions in ascending element id, each
    child trying only the extensions after its own.  Yields the engine's live
    member list (e0 and the root elements first); yields nothing when root is
    not an NBC face.  A facet is appended to that list and removed again, never
    pushed.  prune, when given, is called as prune(eng, accepted, i) before the
    face F = eng.members gets its child F + accepted[i], whose subtree holds
    only faces F + accepted[i] + C with C drawn from accepted[i + 1:]; a
    true result skips the child and its subtree, with no push, extensions
    or pop.  MAX_NBC_FACES caps the faces containing root: when root lacks e0,
    each face yielded stands for two, itself and itself minus e0.  The cap
    refuses before the first yield when 2^(full - |root|) exceeds it, since
    the complex is pure and the subsets of one facet through root already
    number that many."""
    eng = _root_engine(x, root)
    if eng is None:
        return
    members, full = eng.members, eng.full
    budget = MAX_NBC_FACES
    if 1 << (full - len(root)) > budget and not force:
        raise SizeGuardError(f"more than MAX_NBC_FACES={MAX_NBC_FACES} NBC faces visited")
    extensions, push, pop = eng.extensions, eng.push, eng.pop
    cost = 2 if len(members) > len(root) else 1  # e0 was added to root
    frames = []  # per non-full face on the path: [its accepted extensions, next child]
    accepted = [e for e in range(eng.m) if eng.can_add(e)]
    while True:
        if budget < cost and not force:
            raise SizeGuardError(f"more than MAX_NBC_FACES={MAX_NBC_FACES} NBC faces visited")
        budget -= cost
        yield members
        if len(members) < full:
            frames.append([accepted, 0])
        elif frames:
            members.pop()  # a facet below the root was appended, not pushed
        while frames:
            frame = frames[-1]
            accepted, i = frame
            if i < len(accepted):
                e = accepted[i]
                frame[1] = i + 1
                if prune is not None and prune(eng, accepted, i):
                    continue
                if len(members) + 1 < full:
                    push(e)
                    accepted = extensions(accepted[i + 1 :])
                else:
                    members.append(e)
                break
            frames.pop()
            if frames:
                pop()
        else:
            return


def _facets_through(x: NbcComplex, root: frozenset, force: bool, what: str):
    """sigma minus root for every NBC base sigma containing root, lexicographic:
    the order in which the walk's preorder reaches them.  The member list
    starts with e0 and the sorted root, so sigma minus root is its tail plus
    e0 when root lacks it; the union leaves each facet a compact table."""
    rank = x.matroid.rank
    apex = frozenset(x.order.ranking[:1])
    skip, head = len(root | apex), apex - root
    out = []
    for face in _walk(x, root, force):
        if len(face) == rank:
            if len(out) >= MAX_NBC_BASES and not force:
                raise SizeGuardError(f"more than MAX_NBC_BASES={MAX_NBC_BASES} {what}")
            out.append(frozenset(face[skip:]) | head)
    return tuple(out)


def enumerate_nbc_bases(x: NbcComplex, force: bool = False):
    """All NBC bases (facets), in lexicographic order of sorted element tuples."""
    return _facets_through(x, frozenset(), force, "NBC bases")


def face_numbers(x: NbcComplex, force: bool = False) -> SizeCounts:
    """Exact Whitney numbers n_0..n_rank by pruned enumeration.  The walk
    yields c_j faces of size j, all holding e0, and each face F without e0
    pairs with F + e0, so n_j = c_j + c_{j+1}.  On an empty ground set the
    walk yields the empty face alone, and n_0 = c_0 = 1."""
    rank = x.matroid.rank
    counts = [0] * (rank + 2)
    for face in _walk(x, force=force):
        counts[len(face)] += 1
    return SizeCounts(tuple(counts[j] + counts[j + 1] for j in range(rank + 1)))


def link_facets(x: NbcComplex, tau, force: bool = False):
    """sigma minus tau for every NBC base sigma containing tau, lexicographic."""
    facets = _facets_through(x, x.matroid.check_subset(tau), force, "link facets")
    if not facets:
        # NBC complexes are pure, so every face lies in some facet.
        raise PreconditionError("tau is not an NBC face")
    return facets


def extend_to_nbc_base(x: NbcComplex, i, force: bool = False) -> frozenset:
    """The lexicographically smallest NBC base containing i, the first base
    the face walk reaches from i.  The walk's first path adds, in ascending
    id, each element the face at hand accepts: an id rejected once stays
    rejected (the complex is closed under subsets), and the complex is pure,
    so one ascending scan finds the base."""
    root = x.matroid.check_subset(i)
    eng = _root_engine(x, root)
    if eng is None:
        raise PreconditionError("the given set is not an NBC face")
    members = eng.members
    if eng.full - len(root) >= MAX_NBC_FACES and not force:
        raise SizeGuardError(f"more than MAX_NBC_FACES={MAX_NBC_FACES} NBC faces visited")
    for e in range(eng.m):
        if eng.can_add(e):
            eng.push(e)
    if len(members) < eng.full:
        raise VerificationError("purity violated: the NBC face does not extend to a base")
    return frozenset(members)
