"""Broken-circuit complexes: membership, enumeration, face numbers, links.

A circuit with its order-smallest element removed is a broken circuit; the NBC
complex holds every independent set containing none of them.  Membership has
one test: is_nbc asks the walker's engine to build the face from e0 up (see
below for why e0 may be added).

Face numbers, facets and links come from one explicit-stack walker, so face
depth is bounded by memory, not by the recursion limit.  Face numbers come
as the face polynomial, a graphs.IntPolynomial.  The walker drives an engine
with a can_add/extensions/push/pop protocol: can_add(e) decides exactly
whether an NBC face holding e0 stays NBC with e added, and extensions(a, cand)
reads, before a is pushed, which elements of cand the child face + a keeps,
cand being a list that the face at hand accepted in full.  So a child with
nothing after it in its parent's list takes the empty list with no
extensions call, and besides its root the walk pushes only the faces whose
children read their forest: those with at least two levels below them and
at least two accepted elements.  Any other face's children are leaves: the
facets under a face one short of a base, or else at most one child, with
nothing after it.  Such a face is appended to the member list and yielded
with its children, and none of them is pushed.

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
element id in turn would take.  Extension to a base scans the ids once,
along the walk's first path.  The walk's one pruning consumer is
heaviest_nbc_bases, the exact branch and bound for a max-weight NBC base: it
picks each face's children, and the engine's bound pass, one per face with
one exchange per child, keeps a max-weight forest of the growing tail in
the contraction by the face (Edmonds: greedy is exact on matroid bases), so
it bounds what each child's subtree can add.  Counting ties, it visits the
children in ascending id; for the heaviest base alone, in descending id, so
the first heaviest base reached is the lexicographically greatest and a
child that can at most tie is pruned.  So the walk, its children hook and
the engine's protocol are named in this module alone.

A complex is built over a graphic matroid, truncated or not, and walked by one
pure-Python engine that keeps the face as a forest with component labels, and
every edge set as an int bit mask indexed by order position: each component
has the mask of its incidences, and each vertex the mask of its forest path to
its tree's root, under whatever rooting its pushes left.  push merges the
smaller tree into the larger with one OR and one XOR per relabelled vertex,
and pop undoes both.  can_add re-examines only the cycles the new edge closes:
their closing edges are the two components' shared incidences below the new
edge, and such an edge is its cycle's minimum iff the XOR of path masks that
is the cycle's forest part has no bit below its own, a few integer ANDs with
no tree climb and no component scan.  A candidate of the child face + a
whose components a leaves alone skips the cycles altogether; any other one
tests only the cycles through both itself and a, since every other cycle
through it closes the same forest path as in the face without a, where it
was already checked.  Those come from the incidences of a's far side, and
their forest paths through a differ from the ones before a's push by the one
constant that push XORs into the side it moves.  On a large sparse graph the
incidence masks of all n lone vertices would cost O(n * m) bits, so there a
lone vertex keeps none, and its cycles are read off the ascending positions
of its own elements.  An engine then holds O(p * m) bits of masks after p
pushes, over O(m) words of lists, and a walk pushes its root, e0 and at most
log2(MAX_NBC_FACES) more: refusals that need only the rank come before an
engine is built.

The same walk lists a bare graphic matroid's independent sets, and so its
bases, the spanning-tree complex chains walks on.  Its engine has no cycle
rule, since it keeps no incidences, and its walk has no apex: the
independence complex is no cone, so the walk starts from the empty set.  One
switch, _kind, tells the two kinds apart: a complex gives its matroid and
order, a bare matroid itself and the empty ranking, and anything else is
refused.  So every entry point takes either kind, and on a bare matroid
is_nbc tests independence, enumerate_nbc_bases lists the bases, link_facets
the bases through tau less tau, extend_to_nbc_base the least base holding i,
face_numbers counts the independent sets by size and heaviest_nbc_bases
finds a heaviest base; its refusals name bases and independent sets.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .errors import FORCED, PreconditionError, SizeGuardError, VerificationError
from .graphs import IntPolynomial, _integer
from .matroids import GraphicMatroid

MAX_NBC_BASES = 1_000_000
MAX_NBC_FACES = 2_000_000


class NbcComplex:
    """A graphic matroid, truncated or not, plus an element order; faces are
    the NBC independent sets.  The order is any permutation of the element
    ids, smallest first, kept as the tuple order (None means the identity),
    so order[0] is e0.  Anything else is refused here, before a walk
    starts."""

    def __init__(self, matroid: GraphicMatroid, order=None):
        if not isinstance(matroid, GraphicMatroid):
            raise PreconditionError("NbcComplex needs a graphic matroid or a truncation of one")
        ids = range(matroid.ground_size) if order is None else order
        order = tuple(_integer(e, "a ranking entry") for e in ids)
        if sorted(order) != list(range(len(order))):
            raise PreconditionError("ranking must be a permutation of 0..m-1")
        if len(order) != matroid.ground_size:
            raise PreconditionError("order length must equal the matroid ground size")
        self.matroid = matroid
        self.order = order
        self._facet_cache = None

    @property
    def rank(self) -> int:
        return self.matroid.rank

    def facets(self):
        if self._facet_cache is None:
            self._facet_cache = enumerate_nbc_bases(self)
        return self._facet_cache

    def __repr__(self):
        return f"NbcComplex({self.matroid!r}, {self.order!r})"


def is_nbc(x, s) -> bool:
    """True iff s is a face of x: an NBC face of an NbcComplex, which the
    engine builds from e0 up, or an independent set of a bare
    GraphicMatroid."""
    return _root_engine(x, _kind(x)[0].check_subset(s)) is not None


def is_log_concave(f) -> bool:
    """n_i^2 >= n_{i-1} * n_{i+1} at every interior index."""
    seq = list(f)
    return all(seq[i] * seq[i] >= seq[i - 1] * seq[i + 1] for i in range(1, len(seq) - 1))


class _GraphicEngine:
    """Incremental NBC-face state for (possibly truncated) graphic matroids.

    The face is a forest, and the engine keeps its edge sets as int bit
    masks, element f at bit pos[f], its order position.  order is the
    ranking, smallest first, pos its inverse (positions start as the element
    ids and the ranking overwrites them), and ends_at[p] the endpoints of the
    element at position p.  Every vertex carries a component label, and every
    label a member list and inc[label], the mask of the elements with an
    endpoint in that component.  path[x] is the mask of the forest edges from
    x to the root of its tree under some rooting, so path[x] ^ path[y] is the
    forest path between x and y whatever the rooting.  push(e = uv) relabels
    the smaller of the two components e joins, ORs its incidences into the
    larger one's, and re-roots it through e at the larger tree's root: every
    relabelled x takes path[x] ^= k for the one constant
    k = path[u] ^ path[v] ^ bit(e), since x's new path runs to its end of e,
    over e, and from the other end to the root.  It records
    (big, small, old inc[big], k); comp[small] still lists the relabelled
    side, and pop() relabels it back, XORs k out of it, cuts it from
    comp[big] and restores inc[big].  An engine built with an empty ranking
    walks a bare matroid: positions are the element ids, and every inc is 0.

    A mask holds at most m bits, and at[x] lists the positions of vertex x's
    elements in ascending order.  A lone vertex's incidence mask is its star,
    built from at[x].  When all n stars together take no more bits than the
    lists take words (64 bits an entry), every lone vertex keeps its star in
    inc from the start.  Otherwise, as on a large sparse graph, where they
    would cost O(n * m) bits, none does: its inc is None, push builds the
    stars it merges, pop puts None back, and can_add and extensions read the
    elements joining a lone vertex to a component off its list.  Then after
    p pushes the masks take O(p * m) bits: at most p merged components keep
    an inc, at most 2p vertices have a nonzero path, and each record holds
    two masks.

    can_add(e) requires the current face to be NBC and to hold e0, the
    order-smallest element, unless e is e0; every face the walk reaches holds
    e0.  Then the only circuits that can newly have an absent smallest
    element are the cycles through e: a truncation's size circuits all hold
    e0, which face + e holds.  It applies, in order:

    1. Reject a full face and an e = uv inside one component; an e already
       in the face has both endpoints in one component, so this rejects it
       too.
    2. An absent edge f that closes a cycle through e joins e's two
       components, and e lies on that cycle, so f can be its minimum only if
       pos[f] < pos[e]: the candidates are inc[label u] & inc[label v] below
       bit(e), or the elements below it that join a lone endpoint, read off
       the shorter list, to the other component.  With none, accept.
    3. A candidate f = xy, x on u's side, closes the cycle x ... u, e,
       v ... y, whose forest edges are path[x] ^ path[u] and
       path[y] ^ path[v].  f is the cycle's minimum iff neither mask has a
       bit below bit(f); reject e if some candidate is.

    extensions(a, cand) is can_add at the child F + a, over a list that the
    face F at hand accepted in full, read off F's state before a = st is
    pushed, with s in component S and t in T.  The walk calls it only for a
    child below full size.  Take e = uv with neither endpoint in S or T (four
    O(1) label tests).  Then u's and v's components are the same trees in
    F + a as in F, so e still joins two components (rule 1), and the absent
    edges joining them, and the forest paths that close their cycles through
    e, are unchanged: a cannot be one of those edges, since it joins two other
    components.  So rules 2 and 3 see the same cycles at F + a as at F, where
    F + e is NBC and so none of them has an absent minimum, and e is accepted
    outright.  An e with one end in S and the other in T would lie inside
    S + a + T, and is rejected (rule 1).  That leaves e with u in S, say, and
    v in another component B.  A cycle through e closed by an absent f = xy,
    x in S and y in B, is a cycle at F too, where it was checked; only the
    cycles through both a and e are new, those with x in T.  Such an f is the
    cycle's minimum only if it lies below both a and e, so the candidates are
    inc[T] below bit(a), taken once a call for each side, AND inc[B] below
    bit(e); when T or B is a lone vertex that keeps no mask, they are read
    off its position list instead, and no mask is built.  Once a is pushed,
    x's forest path to u runs x ... t, a, s ... u, whose mask is
    path[x] ^ k ^ path[u] for the constant k = path[s] ^ path[t] ^ bit(a)
    that push XORs into the side it moves, so rule 3 runs with k ^ path[u]
    in place of path[u].
    """

    def __init__(self, graph, order, trunc_rank: int):
        nv = graph.vertex_count
        self.m = graph.edge_count
        self.full = trunc_rank
        self.pos = pos = list(range(self.m))
        self.ends = ends = graph.edges
        self.ends_at = [ends[f] for f in order]
        self.at = at = [[] for _ in range(nv)]
        for i, f in enumerate(order):
            pos[f] = i
            u, v = ends[f]
            at[u].append(i)
            if v != u:
                at[v].append(i)
        width = sum(a[-1] + 1 for a in at if a)
        self.inc = [_mask(a) for a in at] if width <= 64 * sum(map(len, at)) else [None] * nv
        self.label = list(range(nv))
        self.comp = [[x] for x in range(nv)]
        self.path = [0] * nv
        self.members = []
        self._merges = []

    def can_add(self, e: int) -> bool:
        """True iff the current face (assumed NBC, and holding e0 unless e is
        e0) stays NBC after adding e."""
        if len(self.members) >= self.full:
            return False
        u, v = self.ends[e]
        label = self.label
        lu, lv = label[u], label[v]
        if lu == lv:
            return False
        pe, inc = self.pos[e], self.inc
        if inc[lu] is not None and inc[lv] is not None:
            cand = inc[lu] & inc[lv] & ((1 << pe) - 1)
        else:
            if inc[lu] is not None or (inc[lv] is None and len(self.at[v]) < len(self.at[u])):
                u, v, lu, lv = v, u, lv, lu
            cand = self._joins(u, lv, pe)
        return not cand or self._no_absent_minimum(self.path[u], self.path[v], lu, cand)

    def _inc(self, label: int) -> int:
        """The incidence mask of label's component: the one inc keeps, or for
        a lone vertex that keeps none, one built from its position list."""
        mask = self.inc[label]
        return _mask(self.at[label]) if mask is None else mask

    def _joins(self, x: int, lab: int, below: int) -> int:
        """The mask of the elements below position below that join the lone
        vertex x, which keeps no mask, to the component lab: read off x's
        ascending position list."""
        label, ends_at = self.label, self.ends_at
        out = 0
        for p in self.at[x]:
            if p >= below:
                break
            y, z = ends_at[p]
            if label[y] == lab or label[z] == lab:
                out |= 1 << p
        return out

    def _no_absent_minimum(self, pu: int, pv: int, lu: int, cand: int) -> bool:
        """Rule 3: True iff no absent edge in the mask cand, each joining the
        component labelled lu to another, is the minimum of the cycle it
        closes through uv.  pu ^ path[x] is the forest path from an end x in
        lu to u, and pv ^ path[y] the one from the other end y to v; the edge
        is the minimum unless one of them has a bit below its own."""
        path, ends_at, label = self.path, self.ends_at, self.label
        while cand:
            low = cand & -cand
            x, y = ends_at[low.bit_length() - 1]
            if label[x] != lu:
                x, y = y, x
            if not ((path[x] ^ pu) | (path[y] ^ pv)) & (low - 1):
                return False
            cand ^= low
        return True

    def extensions(self, a: int, cand) -> list:
        """The accepted list of the child face + a: the elements of cand that
        can_add would accept once a is pushed, in cand's order, read before
        the push.  The face accepted a and all of cand, so an e whose
        components a leaves alone is accepted without a cycle test, an e
        joining a's two components is rejected, and any other e tests only
        the cycles through both a and e.  The walk calls it only for a child
        below full size, with a nonempty cand."""
        s, t = self.ends[a]
        label, ends, pos, inc, path = self.label, self.ends, self.pos, self.inc, self.path
        ls, lt = label[s], label[t]
        pos_a = pos[a]
        below_a = (1 << pos_a) - 1
        k = path[s] ^ path[t] ^ (below_a + 1)  # what push(a) XORs into a side
        # each side's incidences below a, or None for a lone vertex keeping no mask
        side_s = None if inc[ls] is None else inc[ls] & below_a
        side_t = None if inc[lt] is None else inc[lt] & below_a
        out = []
        for e in cand:
            u, v = ends[e]
            lu, lv = label[u], label[v]
            if lv == ls or lv == lt:
                if lu == ls or lu == lt:
                    continue
                u, v, lu, lv = v, u, lv, lu
            elif lu != ls and lu != lt:
                out.append(e)
                continue
            if lu == ls:
                far, side = lt, side_t
            else:
                far, side = ls, side_s
            if side is None:
                found = self._joins(far, lv, min(pos_a, pos[e]))
            elif inc[lv] is None:
                found = self._joins(v, far, min(pos_a, pos[e]))
            else:
                found = side & inc[lv] & ((1 << pos[e]) - 1)
            if not found or self._no_absent_minimum(k ^ path[u], path[v], far, found):
                out.append(e)
        return out

    def push(self, e: int):
        u, v = self.ends[e]
        label, comp, inc, path = self.label, self.comp, self.inc, self.path
        big, small = label[u], label[v]
        if len(comp[big]) < len(comp[small]):
            big, small = small, big
        k = path[u] ^ path[v] ^ (1 << self.pos[e])
        old = inc[big]
        self._merges.append((big, small, old, k))
        if old is None or inc[small] is None:
            inc[big] = self._inc(big) | self._inc(small)
        else:
            inc[big] = old | inc[small]
        for x in comp[small]:
            label[x] = big
            path[x] ^= k
        comp[big].extend(comp[small])
        self.members.append(e)

    def pop(self):
        self.members.pop()
        big, small, old_inc, k = self._merges.pop()
        self.inc[big] = old_inc
        label, path, moved = self.label, self.path, self.comp[small]
        for x in moved:
            label[x] = small
            path[x] ^= k
        del self.comp[big][-len(moved) :]

    def completions(self, accepted, nums, need: int) -> list:
        """The bound pass over the accepted list of the face F at hand: at
        index i, the greatest weight under nums of need elements of
        accepted[i + 1:] that form a forest with F + accepted[i], or None
        when no need of them do.  At need 0 every entry is 0 and the forest
        is not read, and a lone entry at need >= 1 is None, its tail being
        empty, so in neither case need F be pushed.

        One pass, from the last index down, keeps T, a max-weight spanning
        forest of the suffix accepted[i + 1:] in the contraction by F: its
        vertices are F's component labels, up maps a label to its parent in
        T and the element joining them, and kept holds the weights of T's
        elements, ascending.  Forcing e = accepted[i] in drops the lightest
        element g on the path e closes in T, if there is one, and T - g is
        then a max-weight spanning forest of the suffix in the contraction
        by F + e.  Greedy is exact on matroid bases (Edmonds, "Matroids and
        the greedy algorithm", 1971), so the need heaviest elements of T - g
        are a heaviest completion, for weights of either sign, and there is
        none when T - g has fewer.  Then e joins the suffix with one
        exchange: T takes it, and when it closes a cycle drops that cycle's
        lightest element, e itself when none is lighter."""
        out = [0] * len(accepted)
        if not need:
            return out
        label, ends = self.label, self.ends
        up = {}
        kept = []
        for i in range(len(accepted) - 1, -1, -1):
            e = accepted[i]
            u, v = ends[e]
            a, b = label[u], label[v]
            depth = {a: 0}  # a and its ancestors in T, each at its distance from a
            x = a
            while x in up:
                x = up[x][0]
                depth[x] = len(depth)
            low = None  # the label whose parent element is the lightest on the path so far
            y = b
            while y not in depth and y in up:
                above, f = up[y]
                if low is None or nums[f] < lightest:
                    low, lightest = y, nums[f]
                y = above
            if y in depth:  # e closes a cycle: b's ancestors up to y, then a's
                x = a
                for _ in range(depth[y]):
                    above, f = up[x]
                    if low is None or nums[f] < lightest:
                        low, lightest = x, nums[f]
                    x = above
                if len(kept) > need:
                    top = kept[-need - 1 :]
                    out[i] = sum(top) - max(top[0], lightest)
                else:
                    out[i] = None
                if nums[e] <= lightest:
                    continue
                del kept[bisect_left(kept, lightest)]
                del up[low]
                if low not in depth:
                    a, b = b, a
            else:
                out[i] = sum(kept[-need:]) if len(kept) >= need else None
            insort(kept, nums[e])
            # hang a's piece of T from b through e, re-rooted at a
            x, parent, f = a, b, e
            while True:
                above = up.get(x)
                up[x] = (parent, f)
                if above is None:
                    break
                parent, f = x, above[1]
                x = above[0]
        return out


def _mask(positions) -> int:
    """The int with a bit at each of the distinct positions."""
    return sum(map((1).__lshift__, positions))


def _kind(x) -> tuple:
    """(matroid, ranking) of x, the one place that tells the two kinds
    apart: an NbcComplex's matroid and order, or a bare GraphicMatroid and
    the empty ranking, whose walk lists its independent sets.  Anything else
    is refused before any attribute of it is read."""
    if not isinstance(x, (NbcComplex, GraphicMatroid)):
        raise PreconditionError("need an NbcComplex or a GraphicMatroid")
    return (x, ()) if isinstance(x, GraphicMatroid) else (x.matroid, x.order)


def _engine(x):
    """The graphic engine for x at its rank, over its ranking.  A bare
    matroid's empty ranking gives no incidences: rules 2 and 3 find no
    cycle, and it accepts exactly the edges that join two components."""
    matroid, ranking = _kind(x)
    return _GraphicEngine(matroid.graph, ranking, matroid.rank)


def _apex(x) -> tuple:
    """Where every walk of x starts: e0, the order-smallest element, for an
    NBC complex, and nothing for a bare matroid, which is no cone.  So a
    walk with an apex lists NBC faces, and one without independent sets,
    which over an empty ground set are the NBC faces too."""
    return _kind(x)[1][:1]


def _root_engine(x, root):
    """An engine holding the face root plus x's apex, or None when root is
    not a face of x (root + e0 is an NBC face exactly when root is)."""
    eng = _engine(x)
    apex = _apex(x)
    for e in (*apex, *sorted(root.difference(apex))):
        if not eng.can_add(e):
            return None
        eng.push(e)
    return eng


def _walk(x, root=frozenset(), children=None):
    """Every face of x containing root and x's apex, in preorder from their
    union: a face's children add its accepted extensions in ascending element
    id, each child trying only the extensions after its own.  The faces are
    NBC faces holding e0 for an NbcComplex, and independent sets for a bare
    GraphicMatroid.  Yields the engine's live member list (the apex and the
    root elements first); yields nothing when root is not a face.  A child's
    accepted list is read before its push, and is empty with no extensions
    call when no extension comes after the child's own.  Besides the root,
    only a face with at least two levels and at least two accepted
    extensions below it is pushed, since only then does a child read its
    forest.  Any other face below full size has leaves for children: facets
    when it is one short of full size, and otherwise at most one child,
    which has no extension after its own.  It is appended to that list, its
    children are appended, yielded and removed one by one, and then it is
    removed, with no frame, push or pop; a leaf under a pushed face is
    appended and removed alike.

    children, when given, picks and orders the children instead: it is
    called as children(eng, accepted) at each face F = eng.members below
    full size, and gives an iterator over indices of accepted, advanced once
    before each child is reached; the walk reaches F + accepted[i] for each
    i it gives, in that order, and the subtree of that child holds only
    faces F + accepted[i] + C with C drawn from accepted[i + 1:].  A child
    left out is skipped with its subtree, with no push, extensions or pop.
    Under a face that is not pushed, eng.members is that face but the
    engine's forest is its parent's, so the iterator may read the forest
    only at a pushed face: the root, or a face with at least two levels
    below it and at least two accepted extensions.  So a face with one
    extension and more levels below it shows its parent's forest too.
    heaviest_nbc_bases reads the forest through completions, which at a
    face one short of full size needs none of it, and at a lone extension
    with need >= 1 gives None whatever the forest, its tail being empty.

    MAX_NBC_FACES caps the faces containing root: when root lacks e0, each
    face yielded stands for two, itself and itself minus e0.  The cap
    refuses before an engine is built, and so before root is checked, when
    2^(rank - |root|) exceeds it, since the complex is pure and the subsets
    of one facet through root already number that many: a walk whose
    children are picked refuses there too, though it may visit far fewer."""
    budget = MAX_NBC_FACES
    what = "NBC faces" if _apex(x) else "independent sets"
    refusal = f"more than MAX_NBC_FACES={MAX_NBC_FACES} {what} visited"
    if 1 << max(x.rank - len(root), 0) > budget and not FORCED.get():
        raise SizeGuardError(refusal)
    eng = _root_engine(x, root)
    if eng is None:
        return
    members, full = eng.members, eng.full
    extensions, push, pop = eng.extensions, eng.push, eng.pop
    append, remove = members.append, members.pop
    cost = 2 if len(members) > len(root) else 1  # e0 was added to root
    frames = []  # per pushed face on the path: (its accepted extensions, its children's indices)
    accepted = [e for e in range(eng.m) if eng.can_add(e)]
    pushed = True  # the root is
    while True:
        budget -= cost
        if budget < 0 and not FORCED.get():
            raise SizeGuardError(refusal)
        yield members
        if pushed:
            if len(members) < full:
                order = iter(range(len(accepted))) if children is None else children(eng, accepted)
                frames.append((accepted, order))
        else:
            if len(members) < full:  # its children are leaves: facets, or one with no extensions
                leaves = accepted if children is None else map(accepted.__getitem__, children(eng, accepted))
                for f in leaves:
                    append(f)
                    budget -= cost
                    if budget < 0 and not FORCED.get():
                        raise SizeGuardError(refusal)
                    yield members
                    remove()
            remove()
        while frames:
            accepted, order = frames[-1]
            i = next(order, None)
            if i is not None:
                e = accepted[i]
                below = full - len(members) - 1  # levels under the child F + e
                accepted = extensions(e, accepted[i + 1 :]) if below and i + 1 < len(accepted) else []
                pushed = below > 1 and len(accepted) > 1
                if pushed:
                    push(e)
                else:
                    append(e)
                break
            frames.pop()
            if frames:
                pop()
        else:
            return


def _facets_through(x, root: frozenset, what: str):
    """sigma minus root for every facet sigma of x containing root, an NBC
    base or, for a bare GraphicMatroid, a base, lexicographic: the order in
    which the walk's preorder reaches them.  The member list starts with the
    apex and the sorted root, so sigma minus root is its tail plus the apex
    when root lacks it.  The union, with an empty head too, copies each facet
    into a table sized for it: a frozenset built from a list keeps the table
    it grew to, 728 bytes against 472 for 5 to 7 elements on CPython 3.11."""
    rank = x.rank
    apex = frozenset(_apex(x))
    skip, head = len(root | apex), apex - root
    out = []
    for face in _walk(x, root):
        if len(face) == rank:
            if len(out) >= MAX_NBC_BASES and not FORCED.get():
                raise SizeGuardError(f"more than MAX_NBC_BASES={MAX_NBC_BASES} {what}")
            out.append(frozenset(face[skip:]) | head)
    return tuple(out)


def enumerate_nbc_bases(x):
    """All facets of x, in lexicographic order of sorted element tuples: the
    NBC bases of an NbcComplex, or the bases of a bare GraphicMatroid."""
    return _facets_through(x, frozenset(), "NBC bases" if _apex(x) else "bases")


def face_numbers(x) -> IntPolynomial:
    """The face polynomial, sum of n_k t^k over the exact face numbers
    n_0..n_rank of x, an NbcComplex or a bare GraphicMatroid, whose faces are
    its independent sets, by pruned enumeration.  A bare matroid's walk has no
    apex, and n_j is the count c_j of faces of size j it yields.  A complex's
    walk yields only faces holding e0, and each face F without e0 pairs with
    F + e0, so n_j = c_j + c_{j+1} (Whitney numbers).  On an empty ground set
    the walk yields the empty face alone, and n_0 = c_0 = 1.  A complex over
    a matroid with a loop has no faces, and its face polynomial is zero."""
    rank = _kind(x)[0].rank
    counts = [0] * (rank + 2)
    for face in _walk(x):
        counts[len(face)] += 1
    if _apex(x):
        counts = [counts[j] + counts[j + 1] for j in range(rank + 1)]
    return IntPolynomial(tuple(counts[: rank + 1]))


def heaviest_nbc_bases(x, nums, ties: bool = True):
    """(base, best, ties): the lexicographically greatest facet of x, an NBC
    base of an NbcComplex or a base of a bare GraphicMatroid, of greatest
    weight under the integer weights nums, nums[e] being element e's, that
    weight, and how many facets have it; with ties false, (base, best, None).

    Exact branch and bound over the face walk.  A child F + e of a face F is
    completed only from the extensions after e, so its subtree weighs at
    most w(F) + w(e) plus the heaviest completion that the engine's bound
    pass finds for it at F, one pass per face.  A child is pruned when no
    completion exists (no base lies below it) or its bound is below the
    best base so far.  Counting ties, the walk visits children in ascending
    id, so it reaches the bases in lexicographic order and every base of
    greatest weight: the count is exact, and the last such base reached is
    the greatest.  With ties false it visits them in descending id, so the
    first base of greatest weight reached is the greatest, and a child whose
    bound only equals the best so far is pruned too: any base below it is a
    tie and lexicographically smaller.  The weights are integers, so that
    prune is bound < best + 1.  No base list is built, so MAX_NBC_BASES does
    not apply; MAX_NBC_FACES counts the faces the walk visits, but _walk
    also refuses up front, pruned or not, when 2^r exceeds it."""
    if len(nums) != _kind(x)[0].ground_size:
        raise PreconditionError("need exactly one weight per element")
    rank = x.rank
    slack = 0 if ties else 1  # a child is visited when its bound reaches best + slack
    best = best_set = None
    count = 0

    def children(eng, accepted):
        members = eng.members
        held = sum(map(nums.__getitem__, members))
        extras = eng.completions(accepted, nums, rank - len(members) - 1)
        for i in range(len(accepted)) if ties else range(len(accepted) - 1, -1, -1):
            extra = extras[i]
            if extra is not None and (best is None or held + nums[accepted[i]] + extra >= best + slack):
                yield i

    for face in _walk(x, children=children):
        if len(face) == rank:
            val = sum(map(nums.__getitem__, face))
            if best is None or val > best:
                best, best_set, count = val, frozenset(face), 1
            elif ties and val == best:  # reached later, so lexicographically greater
                best_set = frozenset(face)
                count += 1
    if best_set is None:
        raise PreconditionError("the complex has no bases")
    return best_set, best, count if ties else None


def link_facets(x, tau):
    """sigma minus tau for every facet sigma of x containing tau, an NBC base
    of an NbcComplex or a base of a bare GraphicMatroid, lexicographic."""
    facets = _facets_through(x, _kind(x)[0].check_subset(tau), "link facets")
    if not facets:
        # Both complexes are pure, so every face lies in some facet.
        raise PreconditionError(f"tau is not {'an NBC face' if _apex(x) else 'an independent set'}")
    return facets


def extend_to_nbc_base(x, i) -> frozenset:
    """The lexicographically smallest facet of x containing i, an NBC base of
    an NbcComplex or a base of a bare GraphicMatroid: the first facet the
    face walk reaches from i.  The walk's first path adds, in ascending id,
    each element the face at hand accepts: an id rejected once stays
    rejected (the complex is closed under subsets), and the complex is pure,
    so one ascending scan finds the facet.  Its path of rank - |i| + 1 faces
    is checked against MAX_NBC_FACES before an engine is built; the engine
    then holds rank pushes, so O(rank * m) bits of masks."""
    face = "NBC face" if _apex(x) else "independent set"
    root = _kind(x)[0].check_subset(i)
    if x.rank - len(root) >= MAX_NBC_FACES and not FORCED.get():
        raise SizeGuardError(f"more than MAX_NBC_FACES={MAX_NBC_FACES} {face}s visited")
    eng = _root_engine(x, root)
    if eng is None:
        raise PreconditionError(f"the given set is not an {face}")
    members = eng.members
    for e in range(eng.m):
        if eng.can_add(e):
            eng.push(e)
    if len(members) < eng.full:
        raise VerificationError(f"purity violated: the {face} does not extend to a base")
    return frozenset(members)
