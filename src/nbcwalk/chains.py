"""Down-up and local walks: exact transition matrices, gaps, conductance.

Every walk is solved on the reduced complex.  Let A be the elements in every
facet (an NBC complex holds its order-smallest element in every base, and
each coloop adds one more).  One builder, _down_up, is the only place that
derives K = {F - A}: _reduced strips A and gives K as integer element
positions, _down_up adds K's ridge ids, and the DownUpWalk it returns keeps
both, so the local profile reads K off a walk it is given or builds.  The
complex is the cone A * K, and both walks of a cone follow from those of K
through exact identities, so |A| = 0 is the same route with nothing to
compose.

The down-up walk on same-size facets is kept as K's integer facet-ridge
incidence in two numpy arrays: each facet's d - |A| ridge ids in K, and each
ridge's facet count |r|, with the apex count |A| beside them.  A ridge that
drops an apex element lies in its facet alone, so it adds |A|/d to the
diagonal and nothing else: P = (|A|/d) I + ((d - |A|)/d) P_K.  Its exact
entries are |A|/d on the diagonal plus 1/(d |r|) summed over shared ridges r,
so it is symmetric and doubly stochastic by construction.  One map from each
ridge to its facets, DownUpWalk._owners, serves both the exact rows, diagonal
included, and the connectivity test.  One cut, _cut, counts a state set's
facets per ridge and reads off both its conductance and its neighbor ratio
as exact sums, and cheeger_chain is the one check of gap/2 <= conductance <=
neighbor ratio.

Faces have one id scheme.  A face's id is its rank in lexicographic order
among the faces of its size, found from the id of the face less its greatest
element and that element's position: _face_ids ranks those keys with one
argsort.  _down_up keys K's ridges this way one column at a time.
_face_lattice keys every level of K's faces from the level below, one sort
per level, and keeps each face's facet count, its faces one level down and
its elements; level d - |A| - 1 is the walk's own ridges and level d - |A|
the facets, so neither is sorted again.

Local walks are read from integer pair counts: the walk of the link of tau
steps from a to b in proportion to count(tau + a + b), the facets containing
tau, a and b, so count(tau + a) is its reversing measure and its
symmetrization D^(1/2) P D^(-1/2) has entries
count(tau + a + b) / (denom sqrt(count(tau + a) count(tau + b))).  One numpy
builder, _pair_count_stacks, reads level k's counts off distinct faces of
the lattice, never off facets: the states of a size-k face tau are the faces
tau + a above it, slotted by one argsort, and each (k + 2)-face adds its
facet count once per pair of its elements, into stacks, one per state count,
cut from one array; one function, _symmetrized, turns such a stack into
the symmetric matrices.  The local spectral profile builds K's lattice once,
solves each level's stacks in batched eigvalsh calls and cones the result
once per apex element with _coned; LocalWalk keeps the pair counts of one
link of the complex itself, read off levels 0 to 2 of the link's lattice at
its empty face, and reads its exact rational entries off them.

Floating point enters only at the eigensolve.  A local walk is solved
densely by eigvalsh.  A down-up walk is solved by Lanczos on K's factored
operator P_K = (1/(d - |A|)) B diag(1/|r|) B^T of its incidence B,
restricted to the complement of the constant vector, with each product one
bincount over the incidence; P is never formed.  numpy is imported inside the
functions that build walks or solve, so a command that does no walk or
spectral work never loads it.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .errors import FORCED, PreconditionError, SizeGuardError, VerificationError
from .graphs import _integer
from .matroids import GraphicMatroid
from .nbc import NbcComplex, enumerate_nbc_bases

MAX_EIG_STATES = 5000
MAX_FACE_SUBSETS = 2_000_000
# Most Lanczos steps a down-up solve takes before it gives up, how many
# steps pass between solves of the tridiagonal matrix, and the Ritz residual
# at which the solve stops: it bounds the distance from the reported
# eigenvalue to some eigenvalue of P.
_LANCZOS_STEPS = 400
_RITZ_EVERY = 8
_RITZ_RESIDUAL = 1e-15


def _as_facets(x):
    """Canonical facet tuple from a complex, a matroid, or a raw facet list,
    which is deduplicated and sorted; anything else is refused.  A complex's
    NBC bases, kept by the complex, and a matroid's bases both come from
    nbc's forest walk, already distinct and lexicographic, under its face and
    base budgets unless forced."""
    if isinstance(x, NbcComplex):
        facets = x.facets()
    elif isinstance(x, GraphicMatroid):
        facets = enumerate_nbc_bases(x)
    else:
        try:
            facets = tuple(sorted({frozenset(f) for f in x}, key=lambda f: tuple(sorted(f))))
        except TypeError:
            raise PreconditionError("need an NbcComplex, a GraphicMatroid or a list of facets") from None
    if not facets:
        raise PreconditionError("the complex has no facets")
    sizes = {len(f) for f in facets}
    if len(sizes) != 1:
        raise PreconditionError(f"facets have mixed sizes {sorted(sizes)}")
    d = sizes.pop()
    if d < 1:
        raise PreconditionError("facets must be nonempty")
    return facets, d


class DownUpWalk:
    """Down-up walk on same-size facets, stored as its facet-ridge incidence.

    A step drops a uniform element of the current facet, leaving a ridge r,
    then moves to a uniform one of the |r| facets containing r, so
    P(S, T) = sum of 1/(d |r|) over the ridges r in both S and T.  Distinct
    facets share at most one ridge.  apex counts the elements in every
    facet; a ridge that drops one of them lies in its facet alone and adds
    1/d to its diagonal, so those ridges are kept as that count.
    positions is the reduced complex K itself, the n x (d - apex) array of
    the positions of each facet's other elements, row i from index[i];
    facet_ridges is the n x (d - apex) integer array of each facet's ridge
    ids in K, and ridge_sizes[r] = |r|, the facets containing ridge r.
    Build it with down_up_matrix.  entry and rows read P off the incidence;
    rows are plain dicts built on each access, which no solve or
    certificate needs.
    """

    __slots__ = ("index", "d", "positions", "facet_ridges", "ridge_sizes", "apex")

    def __init__(self, index, d, positions, facet_ridges, ridge_sizes, apex):
        self.index = index
        self.d = d
        self.positions = positions
        self.facet_ridges = facet_ridges
        self.ridge_sizes = ridge_sizes
        self.apex = apex

    @property
    def size(self) -> int:
        return len(self.index)

    def positions_of(self, states) -> list:
        """Map facets, each given as any iterable of element ids, to row/column
        positions, rejecting strangers and anything that names no facet."""
        where = {s: i for i, s in enumerate(self.index)}
        out = []
        for s in states:
            try:
                out.append(where[frozenset(s)])
            except (KeyError, TypeError):
                raise PreconditionError(f"state {s!r} is not in the matrix index") from None
        return out

    def entry(self, i: int, j: int) -> Fraction:
        shared = set(self.facet_ridges[i].tolist()).intersection(self.facet_ridges[j].tolist())
        own = Fraction(self.apex, self.d) if i == j else Fraction(0)
        return sum((Fraction(1, self.d * int(self.ridge_sizes[r])) for r in shared), own)

    @property
    def rows(self) -> tuple:
        """Rows as dicts column -> exact entry over each row's support: 1/(d |r|)
        at each facet that shares a ridge r with the row's own, and the
        diagonal, |A|/d plus 1/(d |r|) over the row's ridges r in K, summed
        as integer numerators over d lcm(|r|).  Built on every access."""
        out = [{} for _ in range(self.size)]
        owners, starts = self._owners()
        owners, sizes = owners.tolist(), self.ridge_sizes.tolist()
        lcm = math.lcm(*set(sizes))
        diagonal = [self.apex * lcm] * self.size
        shares = {m: Fraction(1, self.d * m) for m in set(sizes)}
        for start, m in zip(starts.tolist(), sizes):
            ridge = owners[start : start + m]
            row = dict.fromkeys(ridge, shares[m])
            step = lcm // m
            for i in ridge:
                out[i].update(row)
                diagonal[i] += step
        values = {p: Fraction(p, self.d * lcm) for p in set(diagonal)}
        for i, p in enumerate(diagonal):
            out[i][i] = values[p]
        return tuple(out)

    def _owners(self):
        """The facets of each ridge, ridge by ridge, as one array, and where
        each ridge's run starts in it; ridge ids are dense, so every run is
        nonempty."""
        import numpy as np

        owners = np.argsort(self.facet_ridges, axis=None) // self.facet_ridges.shape[1]
        return owners, np.cumsum(self.ridge_sizes) - self.ridge_sizes

    def __repr__(self):
        return f"DownUpWalk({self.size} states, d={self.d})"


def down_up_matrix(facets) -> DownUpWalk:
    """The down-up walk P(S,T) = (1/d) / #facets containing S∩T when
    |S∩T| = d-1, diagonal absorbing the remainder, as its facet-ridge
    incidence in the reduced complex and its apex count; symmetric and
    doubly stochastic by construction."""
    return _down_up(*_as_facets(facets))


def _down_up(facets, d: int) -> DownUpWalk:
    """The down-up walk of the canonical same-size facets, and the one place
    the reduced complex K is derived: _reduced strips the apex, and K's
    ridges, its faces of size d - |A| - 1, get dense lexicographic ids from
    _face_ids one column at a time, each column's ids from the last's, so the
    ids are those of level d - |A| - 1 of K's face lattice (_face_lattice),
    which takes them as they are.  When K's facets are empty, every facet's
    one ridge is the empty face."""
    import numpy as np

    rows, apex = _reduced(facets)
    n, dk = rows.shape
    ridges = np.zeros((n, dk), dtype=np.int32)
    if dk:
        width = int(rows.max()) + 1
        sub = rows[:, _subsets(dk, dk - 1)[0]]
        bound = 1
        for j in range(dk - 1):
            ridges, bound = _face_ids(ridges, bound, sub[:, :, j], width)
    return DownUpWalk(facets, d, rows, ridges, np.bincount(ridges.ravel()), apex)


class LocalWalk:
    """Element walk of the link of a face tau, kept as its integer pair counts.

    index lists the link's elements in ascending order; pairs[i, j] counts the
    link facets containing index[i] and index[j] (zero on the diagonal), and
    denom is d - |tau| - 1, the other elements of a link facet beside any one,
    so row i of pairs sums to denom count(i), with count(i) the link facets
    containing index[i].  A step from i to j != i has probability
    pairs[i, j] / (denom count(i)), so count is a reversing measure.  Build it
    with local_walk_matrix.  entry and rows are exact; rows are dicts of the
    nonzero entries, built on each access.
    """

    __slots__ = ("index", "pairs", "denom")

    def __init__(self, index, pairs, denom):
        self.index = index
        self.pairs = pairs
        self.denom = denom

    @property
    def size(self) -> int:
        return len(self.index)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.pairs[i, j]), int(self.pairs[i].sum()))

    @property
    def rows(self) -> tuple:
        return tuple(
            {j: Fraction(c, sum(row)) for j, c in enumerate(row) if c}
            for row in self.pairs.tolist()
        )

    def __repr__(self):
        return f"LocalWalk({self.size} states)"


def local_walk_matrix(x, tau) -> LocalWalk:
    """Element walk of the link of tau: step from x to y with probability
    proportional to the number of facets containing tau + {x, y}.  Its pair
    counts come from the builder the local spectral profile uses, at the empty
    face of the link, read off levels 0 to 2 of the link's face lattice,
    which holds 1 + (d - k) + C(d - k, 2) face ids per link facet for
    |tau| = k.  It is refused when the link's facet count times 2^(d - k),
    the ids of the link's whole lattice and the bound check_face_subsets
    applies, exceeds MAX_FACE_SUBSETS."""
    facets, d = _as_facets(x)
    tau = frozenset(_integer(e, "a tau element") for e in tau)
    k = len(tau)
    if k > d - 2:
        raise PreconditionError(f"tau has size {k}; the local walk needs size <= {d - 2}")
    link = [f - tau for f in facets if tau <= f]
    if not link:
        raise PreconditionError("tau is not a face of the complex")
    check_face_subsets(len(link), d - k)
    elements, rows = _element_positions(link)
    _, _, pairs = next(_pair_count_stacks(_face_lattice(rows, 2), 0))
    return LocalWalk(tuple(elements), pairs[0], d - k - 1)


def check_eig_states(n: int):
    """Refuse an eigensolve on more than MAX_EIG_STATES states unless forced;
    callers that know the state count early check it before building P."""
    if n > MAX_EIG_STATES and not FORCED.get():
        raise SizeGuardError(f"{n} states exceeds MAX_EIG_STATES={MAX_EIG_STATES}")


def spectral_gap(p: DownUpWalk | LocalWalk) -> float:
    """1 - second-largest eigenvalue of a down-up or local walk; a single-state
    walk reports 1.0 (it mixes in zero steps).  A down-up walk is solved by
    _down_up_gap; a local walk is reversible and is solved densely as
    D^(1/2) P D^(-1/2) with D = diag(count(a)), built from its pair counts by
    _symmetrized, as in the local spectral profile."""
    import numpy as np

    n = p.size
    if n == 1:
        return 1.0
    check_eig_states(n)
    if isinstance(p, DownUpWalk):
        return _down_up_gap(p)
    vals = np.linalg.eigvalsh(_symmetrized(p.pairs, p.denom))
    return float(1.0 - vals[-2])


def _down_up_gap(walk: DownUpWalk) -> float:
    """Gap of P = (|A|/d) I + ((d - |A|)/d) P_K, with |A| = walk.apex, as
    ((d - |A|)/d) times the gap of the reduced walk P_K.

    P_K = (1/(d - |A|)) B diag(1/|r|) B^T, B the facet-ridge incidence, is
    solved by Lanczos with full reorthogonalization (Paige 1972; Parlett, The
    Symmetric Eigenvalue Problem).  P_K is a sum of the positive semidefinite
    terms 1_r 1_r^T / ((d - |A|) |r|) and its top eigenvector is the constant
    vector 1, so lambda_2 is the top of its spectrum on the complement of 1.

    Lanczos runs there from a seeded random start, so the result repeats
    exactly.  Each product P_K v is one bincount of v over the incidence,
    scaled by 1/((d - |A|) |r|), and one gather back to the facets.  The
    three-term recurrence removes a new vector's two large components, and
    one classical Gram-Schmidt pass removes what rounding left along 1 and
    the rest of the basis; a full pass on P_K v alone, without the
    recurrence, loses orthogonality within a few steps.

    Every _RITZ_EVERY steps the tridiagonal T_k is solved.  Its top
    eigenvalue theta, with unit eigenvector y, is the Ritz value of a unit
    vector x with ||P_K x - theta x|| = beta_k |y_k|, so some eigenvalue of
    P_K lies within beta_k |y_k| of theta; in exact arithmetic theta never
    exceeds lambda_2.  The solve stops once that residual is at most
    _RITZ_RESIDUAL, or once the basis spans the whole complement of 1, where
    T_k holds every eigenvalue; past _LANCZOS_STEPS steps it raises
    VerificationError.

    A disconnected walk has eigenvalue 1 twice; _connected finds that in
    integers, and the walk reports exactly 0.0."""
    import numpy as np

    if not _connected(walk):
        return 0.0
    n, d = walk.size, walk.facet_ridges.shape[1]
    # Each facet's ridge ids as d rows of n, so a product gathers whole rows.
    ridges = np.ascontiguousarray(walk.facet_ridges.T)
    flat = ridges.ravel()
    scale = 1.0 / (d * walk.ridge_sizes)
    steps = min(n - 1, _LANCZOS_STEPS)
    basis = np.empty((steps + 2, n))
    basis[0] = 1.0 / np.sqrt(n)
    tri = np.zeros((steps + 1, steps + 1))
    w = np.random.default_rng(0).standard_normal(n)
    w -= w.mean()
    basis[1] = w / np.linalg.norm(w)
    beta = 0.0
    for k in range(1, steps + 1):
        w = (np.bincount(flat, weights=np.tile(basis[k], d)) * scale).take(ridges).sum(axis=0)
        alpha = tri[k - 1, k - 1] = basis[k] @ w
        w -= alpha * basis[k] + beta * basis[k - 1]
        w -= (basis[: k + 1] @ w) @ basis[: k + 1]
        beta = np.sqrt(w @ w)
        if k % _RITZ_EVERY == 0 or k == steps or beta <= _RITZ_RESIDUAL:
            vals, vecs = np.linalg.eigh(tri[:k, :k])
            if beta * abs(vecs[-1, -1]) <= _RITZ_RESIDUAL or k == n - 1:
                return d / walk.d * float(1.0 - vals[-1])
        tri[k, k - 1] = tri[k - 1, k] = beta
        basis[k + 1] = w / beta
    raise VerificationError(f"the sparse eigensolve of the {n}-state down-up walk did not converge")


def _connected(walk: DownUpWalk) -> bool:
    """Whether every facet reaches every other through shared ridges, in
    integers: each facet takes the least label among the facets sharing a
    ridge with it, then that label's own label, until no label moves.  Each
    label is then its component's least facet, so the walk is connected iff
    every label is 0."""
    import numpy as np

    owners, starts = walk._owners()
    label = np.arange(walk.size)
    while True:
        least = np.minimum.reduceat(label[owners], starts)[walk.facet_ridges].min(axis=1)
        least = least[least]
        if np.array_equal(least, label):
            return not label.any()
        label = least


def _cut(p: DownUpWalk, s, caller: str):
    """(conductance, neighbor ratio, |s|) of the states s of a down-up walk,
    both read off one count of s's facets per ridge; caller names the
    function that refuses a walk of another kind."""
    import numpy as np

    if not isinstance(p, DownUpWalk):
        raise PreconditionError(f"{caller} needs a doubly stochastic matrix")
    chosen = np.unique(np.array(p.positions_of(s), dtype=np.intp))
    if not len(chosen):
        raise PreconditionError("the state subset must be nonempty")
    if len(chosen) == p.size:
        raise PreconditionError("the state subset must be proper")
    inside = np.bincount(p.facet_ridges[chosen].ravel(), minlength=len(p.ridge_sizes))
    # Ridge r carries |r & S| * |r - S| / (d |r|) across the cut; the integer
    # numerators are summed per ridge size.
    cross = inside * (p.ridge_sizes - inside)
    crossing = sum(
        (
            Fraction(int(cross[p.ridge_sizes == m].sum()), p.d * m)
            for m in np.unique(p.ridge_sizes[cross > 0]).tolist()
        ),
        Fraction(0),
    )
    # The outside facets that share a ridge with s.
    reached = (inside > 0)[p.facet_ridges].any(axis=1)
    reached[chosen] = False
    k = len(chosen)
    return crossing / k, Fraction(int(np.count_nonzero(reached)), k), k


def conductance(p: DownUpWalk, s) -> Fraction:
    """Crossing probability mass out of s divided by |s|, for a down-up walk,
    whose stationary distribution is uniform."""
    return _cut(p, s, "conductance")[0]


def neighbor_ratio(p: DownUpWalk, s) -> Fraction:
    """Number of outside states reachable in one step from s, divided by |s|."""
    return _cut(p, s, "neighbor_ratio")[1]


def cheeger_chain(p: DownUpWalk, s, gap: float):
    """(phi, ratio, at_most_half): the conductance and neighbor ratio of the
    states s of a down-up walk, from one cut, and whether s holds at most
    half the states.  When it does, Cheeger's inequality and the count of
    boundary states give gap/2 <= phi <= ratio for the walk's spectral gap,
    and a break in that chain raises VerificationError; the comparison with
    the float gap allows 1e-7."""
    phi, ratio, k = _cut(p, s, "cheeger_chain")
    at_most_half = 2 * k <= p.size
    if at_most_half:
        if gap / 2 > float(phi) + 1e-7:
            raise VerificationError(
                f"Cheeger lower bound fails: gap/2 = {gap / 2} > conductance = {float(phi)}"
            )
        if phi > ratio:
            raise VerificationError(f"conductance {phi} exceeds neighbor ratio {ratio}")
    return phi, ratio, at_most_half


def check_face_subsets(n_facets: int, d: int):
    """Refuse a local profile over more than MAX_FACE_SUBSETS facet subsets
    unless forced.  The face lattice the profile builds holds one face id per
    facet and subset of it, n_facets 2^d for facets of size d, or fewer when
    the reduced complex drops an apex; callers that know the facet count early
    check it before any other work."""
    if n_facets << d > MAX_FACE_SUBSETS and not FORCED.get():
        raise SizeGuardError(
            f"{n_facets} facets of size {d} exceed MAX_FACE_SUBSETS={MAX_FACE_SUBSETS}"
        )


def _element_positions(facets):
    """The sorted elements, and the N same-size facets as an N x d integer
    array of positions among them, each row ascending."""
    import numpy as np

    elements = sorted(set().union(*facets))
    where = {e: i for i, e in enumerate(elements)}
    flat = np.array([where[e] for f in facets for e in f], dtype=np.int32)
    return elements, np.sort(flat.reshape(len(facets), -1), axis=1)


def _reduced(facets):
    """The reduced complex K = {F - A} of the same-size facets, A the
    elements in every facet, as the N x (d - |A|) array of the positions of
    K's elements among the facets' (_element_positions), row i from
    facets[i]; and |A|.  Every walk is solved on K; _down_up is its one
    caller."""
    import numpy as np

    _, rows = _element_positions(facets)
    keep = np.bincount(rows.ravel())[rows] < len(rows)
    return rows[keep].reshape(len(rows), -1), rows.shape[1] - int(np.count_nonzero(keep[0]))


def _face_ids(prefix, bound: int, last, width: int):
    """Dense lexicographic ids of faces, each given as the id of the face
    less its greatest element, prefix (below bound), and that element's
    position, last (below width): the ranks of the keys prefix * width +
    last, read off one argsort, which costs less than np.unique's own
    bookkeeping on the few keys of a small complex.  The ids are int32 when
    every key, below bound * width, fits, since int32 keys halve what the
    sort moves.  Returns the ids, shaped as prefix, and how many there are."""
    import numpy as np

    ids = np.int32 if bound * width < 2**31 else np.int64
    keys = (prefix.astype(ids) * width + last).ravel()
    order = np.argsort(keys)
    keys = keys.take(order)
    rank = np.empty(len(keys), dtype=ids)
    rank[0] = 0
    np.not_equal(keys[1:], keys[:-1], out=rank[1:])
    rank = rank.cumsum(dtype=ids)
    out = np.empty_like(rank)
    out[order] = rank
    return out.reshape(prefix.shape), int(rank[-1]) + 1


@functools.cache
def _subsets(d: int, j: int):
    """The j-subsets of range(d) in lexicographic order, as a C(d, j) x j
    array; for each, the index among the (j - 1)-subsets of the subset less
    its p-th element, p < j; and the last columns of both.  They depend on
    (d, j) alone."""
    import numpy as np

    tops = list(itertools.combinations(range(d), j))
    where = {top: i for i, top in enumerate(itertools.combinations(range(d), max(j - 1, 0)))}
    drop = [[where[top[:p] + top[p + 1 :]] for p in range(j)] for top in tops]
    tops = np.array(tops, dtype=np.intp).reshape(len(tops), j)
    drop = np.array(drop, dtype=np.intp).reshape(tops.shape)
    return tops, drop, tops[:, j - 1 :].ravel(), drop[:, j - 1 :].ravel()


@functools.cache
def _pairs(j: int):
    """The pairs p < q of range(j) in lexicographic order, as the arrays of
    p, of q and of q - 1."""
    import numpy as np

    lo, hi = np.array(list(itertools.combinations(range(j), 2)), dtype=np.intp).reshape(-1, 2).T
    return lo, hi, hi - 1


def _face_lattice(rows, top: int, ridges=None):
    """Levels 0..top of the faces of the complex whose N facets are the rows
    of rows, an N x d array of element positions with ascending rows.

    Level j is (ids, counts, below, faces): ids, the N x C(d, j) dense
    lexicographic ids of each facet's j-subsets in combinations order, each
    level's from the last's and one more column by _face_ids; counts[f], the
    facets containing face f; below[f, p], the id at level j - 1 of f less
    its p-th element; and faces[f], the elements of f, ascending.  Level
    d - 1 is ridges where given, the facets' ridge ids in the same scheme,
    and level d is the facets themselves, which are distinct, so neither is
    sorted.  The levels hold N 2^d ids when top = d."""
    import numpy as np

    n, d = rows.shape
    width = int(rows.max()) + 1
    ids = np.zeros((n, 1), dtype=np.int32)
    counts = np.array([n])
    lattice = [(ids, counts, ids[:1, :0], rows[:1, :0])]
    for j in range(1, top + 1):
        tops, drop, last, prefix = _subsets(d, j)
        prev = ids
        if j == d:
            ids = np.arange(n).reshape(n, 1)
        elif j == d - 1 and ridges is not None:
            ids = ridges
        else:
            prefixes = prev.take(prefix, axis=1)
            ids = _face_ids(prefixes, len(counts), rows.take(last, axis=1), width)[0]
        flat = ids.ravel()
        counts = np.bincount(flat)
        # One (facet, subset) of each face, the last in flat order.
        at = np.empty(len(counts), dtype=np.intp)
        at[flat] = np.arange(len(flat))
        row, sub = np.divmod(at, len(tops))
        row = row[:, None]
        below = prev[row, drop.take(sub, axis=0)]
        lattice.append((ids, counts, below, rows[row, tops.take(sub, axis=0)]))
    return lattice


def _pair_count_stacks(lattice, k: int):
    """Integer pair counts of the local walks at the size-k faces of a
    complex, read off levels k, k + 1 and k + 2 of its face lattice
    (_face_lattice), one entry per distinct face.

    Yields (faces, states, c) for each state count n, ascending: faces (m x k)
    and states (m x n) hold element positions, each row ascending, and the
    m x n x n stack c holds c[t, a, b] = count(faces[t] + a + b), the facets
    containing faces[t] and the states a != b, with a zero diagonal.

    A face tau's states are the faces tau + a above it, in id order, which is
    a's order.  One stable argsort of the faces below level k + 1's faces, by
    state count and then id, lists every face's states in a run, the runs in
    the order of the blocks; a state's rank in its run is its slot.  Each
    face rho of level k + 2 and pair a < b of its elements adds count(rho)
    to c[rho - a - b, a, b], all in one np.add.at over the blocks laid end
    to end, and c[t, b, a] is the transpose.  A facet containing faces[t] + a
    has d - k - 1 elements besides, so a row of c[t] sums to d - k - 1 times
    count(faces[t] + a)."""
    import numpy as np

    # The states are level k + 1's faces: sigma is a state of each face
    # below[sigma, p], sigma less its p-th element.
    _, _, below, states = lattice[k + 1]
    _, counts, above, _ = lattice[k + 2]
    flat = below.ravel()
    sizes = np.bincount(flat)
    n = sizes.take(flat)
    order = np.argsort(n * len(sizes) + flat, kind="stable")
    # many[s] faces have s states; their runs start at run[s] in the sorted
    # order, and their s x s blocks at block[s] in c.
    many = np.bincount(sizes)
    area = many * np.arange(len(many))
    run = area.cumsum() - area
    area *= np.arange(len(many))
    block = area.cumsum() - area
    # Each state's rank in its face's run, where its row of the face's block
    # starts, and its column.
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    rank -= run.take(n)
    row = (block.take(n) + rank * n).reshape(below.shape)
    slot = (rank % n).reshape(below.shape)
    lo, hi, left = _pairs(k + 2)
    key = row[above.take(hi, axis=1), lo] + slot[above.take(lo, axis=1), left]
    c = np.zeros(int(block[-1] + area[-1]), dtype=np.int64)
    np.add.at(c, key.ravel(), counts.repeat(len(lo)))
    # Let the index arrays go before the caller solves the first stack.
    del key, row, slot
    owner = flat.take(order)
    states = states.ravel().take(order)
    faces = lattice[k][3]
    for size in np.flatnonzero(many).tolist():
        first, last = int(run[size]), int(run[size] + many[size] * size)
        half = c[block[size] : block[size] + many[size] * size * size].reshape(-1, size, size)
        yield (
            faces.take(owner[first:last:size], axis=0),
            states[first:last].reshape(-1, size),
            half + half.transpose(0, 2, 1),
        )


def _symmetrized(c, denom: int):
    """D^(1/2) P D^(-1/2) for each local walk in the pair-count stack c:
    count(tau+a+b) / (denom sqrt(count(tau+a) count(tau+b))), the product
    taken in integers and count(tau+a) read as a row sum over denom."""
    import numpy as np

    ca = c.sum(axis=-1) // denom
    return c / (denom * np.sqrt(ca[..., :, None] * ca[..., None, :]))


def local_spectral_profile(x) -> tuple:
    """The tuple of floats gamma_k = max second eigenvalue of the local walk
    over all faces of size k, for k = 0..d-2.  x is a DownUpWalk, whose
    reduced complex K is read as it stands, or anything down_up_matrix
    accepts, from which the walk is built once its facet count passes
    check_face_subsets; K is derived only in _down_up, so a caller that
    also wants the gap passes one walk to both.  The profile of K is
    computed level by level from integer pair-count stacks, each level's
    local matrices of one state count solved by one eigvalsh call; _coned
    then adds the apex elements one at a time."""
    import numpy as np

    facets, d = (x.index, x.d) if isinstance(x, DownUpWalk) else _as_facets(x)
    check_face_subsets(len(facets), d)
    walk = x if isinstance(x, DownUpWalk) else _down_up(facets, d)
    rows, apex, d = walk.positions, walk.apex, walk.d
    dk = d - apex
    if dk > 1:
        lattice = _face_lattice(rows, dk, walk.facet_ridges)
    gammas = []
    for k in range(dk - 1):
        # Every size-k face of K lies in a facet with dk - k >= 2 elements outside it.
        denom = dk - k - 1
        seconds = []
        for _, _, c in _pair_count_stacks(lattice, k):
            vals = np.linalg.eigvalsh(_symmetrized(c, denom))
            seconds.append(float(vals[:, -2].max()))
        gammas.append(max(seconds))
    # Whether some ridge of K lies in two facets; coning keeps the answer.
    shared = bool((walk.ridge_sizes > 1).any())
    for r in range(dk + 1, d + 1):
        gammas = _coned(gammas, r, shared)
    return tuple(gammas)


def _coned(gammas, r: int, shared: bool) -> list:
    """The profile of the rank-r cone e * K from the profile gammas of a
    pure complex K of rank r - 1, where shared says whether some ridge of K
    lies in two facets.

    A face tau + e of the cone has K's link of tau as its link, the same
    walk.  A face tau has the cone e * L over L = link_K(tau), of facet size
    s = r - 1 - |tau|, whose walk steps from e to L's stationary law and
    from a point of L to e with probability 1/s, else as L's walk; its
    spectrum is 1, -1/s and (s - 1)/s times the rest of L's.  The walk of L
    has a zero diagonal, so its second eigenvalue is at least the mean
    -1/(N - 1) of the rest of its N >= s eigenvalues, and -1/s is never the
    largest.  At s = 1 the cone over L is a star on L's points, whose second
    eigenvalue is 0 when L has at least two points and -1 when it has one.
    So gamma_k of the cone is the larger of gamma_(k-1)(K), where it exists,
    and (s - 1)/s gamma_k(K), or the star's value at s = 1."""
    out = []
    for k in range(r - 1):
        s = r - 1 - k
        cone = (s - 1) / s * gammas[k] if s > 1 else 0.0 if shared else -1.0
        out.append(max(gammas[k - 1], cone) if k else cone)
    return out


def local_to_global_bound(profile) -> float:
    """(1/d) * product of (1 - gamma_j) over the profile of a rank-d complex,
    which holds gamma_0..gamma_{d-2}, so d = len(profile) + 1."""
    out = 1.0 / (len(profile) + 1)
    for g in profile:
        out *= 1.0 - g
    return out
