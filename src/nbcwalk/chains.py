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
diagonal and nothing else: P = (|A|/d) I + ((d - |A|)/d) P_K.  Ridge ids come
from the face-id scheme the local profile uses, _face_ids.  Its exact entries
are |A|/d on the diagonal plus 1/(d |r|) summed over shared ridges r, so it
is symmetric and doubly stochastic by construction.  One map from each ridge
to its facets, DownUpWalk._owners, serves both the exact rows, diagonal
included, and the connectivity test.  One cut, _cut, counts a state set's
facets per ridge and reads off both its conductance and its neighbor ratio
as exact sums, and cheeger_chain is the one check of gap/2 <= conductance <=
neighbor ratio.

Local walks are read from integer pair counts: the walk of the link of tau
steps from a to b in proportion to count(tau + a + b), the facets containing
tau, a and b, so count(tau + a) is its reversing measure and its
symmetrization D^(1/2) P D^(-1/2) has entries
count(tau + a + b) / (denom sqrt(count(tau + a) count(tau + b))).  One numpy
builder, _pair_count_stacks, cuts every facet into its size-k faces and their
links and counts the pairs of each link in stacks, one per state count; one
function, _symmetrized, turns such a stack into the symmetric matrices.  The
local spectral profile solves each level of K's stacks in batched eigvalsh
calls and cones the result once per apex element with _coned; LocalWalk
keeps the pair counts of one link of the complex itself, built at its empty
face, and reads its exact rational entries off them.

Floating point enters only at the eigensolve.  A local walk is solved
densely by eigvalsh.  A down-up walk is solved by Lanczos on K's factored
operator P_K = (1/(d - |A|)) B diag(1/|r|) B^T of its incidence B,
restricted to the complement of the constant vector, with each product one
bincount over the incidence; P is never formed.  numpy is imported inside the
functions that build walks or solve, so a command that does no walk or
spectral work never loads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, SizeGuardError, VerificationError
from .graphs import _integer
from .matroids import Matroid
from .nbc import NbcComplex

MAX_EIG_STATES = 5000
MAX_FACE_SUBSETS = 2_000_000
# Most Lanczos steps a down-up solve takes before it gives up, how many
# steps pass between solves of the tridiagonal matrix, and the Ritz residual
# at which the solve stops: it bounds the distance from the reported
# eigenvalue to some eigenvalue of P.
_LANCZOS_STEPS = 400
_RITZ_EVERY = 8
_RITZ_RESIDUAL = 1e-15
# Most local walk matrices of one state count solved per eigvalsh call.
_EIG_BATCH = 512


def _as_facets(x, force: bool = False):
    """Canonical facet tuple from a complex, a matroid (both already distinct
    and lexicographic, enumerated under force), or a raw facet list, which is
    deduplicated and sorted."""
    if isinstance(x, NbcComplex):
        facets = x.facets(force=force)
    elif isinstance(x, Matroid):
        facets = x.enumerate_bases(force=force)
    else:
        facets = tuple(sorted({frozenset(f) for f in x}, key=lambda f: tuple(sorted(f))))
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
        """Map facets to row/column positions, rejecting strangers."""
        where = {s: i for i, s in enumerate(self.index)}
        out = []
        for s in states:
            if s not in where:
                raise PreconditionError(f"state {s!r} is not in the matrix index")
            out.append(where[s])
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
    _face_ids, facet by facet (none when K's facets are empty)."""
    import numpy as np

    rows, apex = _reduced(facets)
    width = rows.shape[1]
    ridges = np.zeros(0, dtype=np.intp)
    if width:
        ridges = _face_ids(rows, list(itertools.combinations(range(width), width - 1)))[1]
    return DownUpWalk(facets, d, rows, ridges.reshape(rows.shape), np.bincount(ridges), apex)


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
    face of the link, which holds C(d - k, 2) pair indices per link facet for
    |tau| = k.  It is refused when the link's facet count times 2^(d - k),
    the bound check_face_subsets applies, exceeds MAX_FACE_SUBSETS."""
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
    _, _, pairs = next(_pair_count_stacks(rows, 0))
    return LocalWalk(tuple(elements), pairs[0], d - k - 1)


def check_eig_states(n: int, force: bool = False):
    """Refuse an eigensolve on more than MAX_EIG_STATES states unless forced;
    callers that know the state count early check it before building P."""
    if n > MAX_EIG_STATES and not force:
        raise SizeGuardError(f"{n} states exceeds MAX_EIG_STATES={MAX_EIG_STATES}")


def spectral_gap(p: DownUpWalk | LocalWalk, force: bool = False) -> float:
    """1 - second-largest eigenvalue of a down-up or local walk; a single-state
    walk reports 1.0 (it mixes in zero steps).  A down-up walk is solved by
    _down_up_gap; a local walk is reversible and is solved densely as
    D^(1/2) P D^(-1/2) with D = diag(count(a)), built from its pair counts by
    _symmetrized, as in the local spectral profile."""
    import numpy as np

    n = p.size
    if n == 1:
        return 1.0
    check_eig_states(n, force)
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
        w = (np.bincount(flat, weights=np.tile(basis[k], d)) * scale)[ridges].sum(axis=0)
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


@dataclass(frozen=True)
class LocalProfile:
    """gammas[k] = worst local-walk second eigenvalue over faces of size k."""

    gammas: tuple

    def __post_init__(self):
        vals = []
        for g in self.gammas:
            g = float(g)
            if not -1.0 - 1e-9 <= g <= 1.0 + 1e-9:
                raise PreconditionError(f"gamma {g} outside [-1, 1]")
            vals.append(min(1.0, max(-1.0, g)))
        object.__setattr__(self, "gammas", tuple(vals))

    def __len__(self):
        return len(self.gammas)

    def __iter__(self):
        return iter(self.gammas)

    def __getitem__(self, k):
        return self.gammas[k]


def check_face_subsets(n_facets: int, d: int, force: bool = False):
    """Refuse a local profile over more than MAX_FACE_SUBSETS facet subsets
    unless forced; callers that know the facet count early check it before
    any other work."""
    if n_facets << d > MAX_FACE_SUBSETS and not force:
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


def _face_ids(rows, tops):
    """Cut each row of rows, an N x d array of element positions with
    ascending rows, into its faces rows[:, top] for top in tops, all of one
    size k, facet by facet.  Returns the N len(tops) x k array of faces and
    their dense ids in lexicographic face order, found one column at a time;
    the ids are int32 when every key, below N len(tops) times the position
    range, fits, since int32 keys halve what the sorts inside np.unique move."""
    import numpy as np

    width = int(rows.max()) + 1
    count = len(rows) * len(tops)
    ids = np.int32 if count * width < 2**31 else np.int64
    k = len(tops[0])
    sub = rows[:, np.array(tops, dtype=np.intp).reshape(len(tops), k)].reshape(count, k)
    face = np.zeros(count, dtype=ids)
    for j in range(k):
        face = np.unique(face * width + sub[:, j], return_inverse=True)[1].astype(ids)
    return sub, face


def _pair_count_stacks(rows, k):
    """Integer pair counts of the local walks at the size-k faces of the
    facets in rows, an N x d array of element positions with ascending rows.

    Yields (faces, states, c) for each state count n, ascending: faces (m x k)
    and states (m x n) hold element positions, each row ascending, and the
    m x n x n stack c holds c[t, a, b] = count(faces[t] + a + b), the facets
    containing faces[t] and the states a != b, with a zero diagonal.  A facet
    containing faces[t] + a has d - k - 1 elements besides, so a row of c[t]
    sums to d - k - 1 times count(faces[t] + a)."""
    import numpy as np

    d = rows.shape[1]
    width = int(rows.max()) + 1
    tops = list(itertools.combinations(range(d), k))
    sub, face = _face_ids(rows, tops)
    count = len(face)
    # Each face's states in ascending order, and the slot of each link
    # element among the states of its face.  Link keys stay below the face
    # keys' bound, so they keep the face ids' type.
    outside = [[j for j in range(d) if j not in top] for top in tops]
    link = face[:, None] * width + rows[:, outside].reshape(count, d - k)
    keys, slot = np.unique(link, return_inverse=True)
    owner = keys // width
    sizes = np.bincount(owner)
    first = np.cumsum(sizes) - sizes
    # int32 halves the one array that lives through every state count.
    slot = (np.arange(len(keys)) - first[owner]).astype(np.int32)[slot.reshape(link.shape)]
    del link
    sample = np.empty(len(sizes), dtype=np.intp)
    sample[face] = np.arange(count)
    faces = sub[sample]
    del sub, sample
    lo, hi = np.array(list(itertools.combinations(range(d - k), 2)), dtype=np.intp).T
    row_size = sizes[face]
    for n in np.unique(sizes).tolist():
        mine = sizes == n
        rank = np.cumsum(mine) - 1
        size = int(np.count_nonzero(mine)) * n * n
        picked = np.flatnonzero(row_size == n)
        pairs = slot[picked]
        base = rank[face[picked], None] * (n * n) + pairs * n
        c = np.bincount((base[:, lo] + pairs[:, hi]).ravel(), minlength=size)
        c += np.bincount((base[:, hi] + pairs[:, lo]).ravel(), minlength=size)
        # Let the index arrays go before the caller solves this stack.
        del picked, pairs, base
        mine = np.flatnonzero(mine)
        states = keys[first[mine][:, None] + np.arange(n)] % width
        yield faces[mine], states, c.reshape(-1, n, n)


def _symmetrized(c, denom: int):
    """D^(1/2) P D^(-1/2) for each local walk in the pair-count stack c:
    count(tau+a+b) / (denom sqrt(count(tau+a) count(tau+b))), the product
    taken in integers and count(tau+a) read as a row sum over denom."""
    import numpy as np

    ca = c.sum(axis=-1) // denom
    return c / (denom * np.sqrt(ca[..., :, None] * ca[..., None, :]))


def local_spectral_profile(x, force: bool = False) -> LocalProfile:
    """gamma_k = max second eigenvalue of the local walk over all faces of
    size k, for k = 0..d-2.  x is a DownUpWalk, whose reduced complex K is
    read as it stands, or anything down_up_matrix accepts, from which the
    walk is built (enumerated under force); K is derived only in _down_up,
    so a caller that also wants the gap passes one walk to both.  The
    profile of K is computed level by level from integer pair-count stacks,
    each level's local matrices solved in stacks of one state count, at
    most _EIG_BATCH per eigvalsh call; _coned then adds the apex elements
    one at a time."""
    import numpy as np

    walk = x if isinstance(x, DownUpWalk) else _down_up(*_as_facets(x, force))
    check_face_subsets(walk.size, walk.d, force)
    rows, apex, d = walk.positions, walk.apex, walk.d
    dk = d - apex
    gammas = []
    for k in range(dk - 1):
        # Every size-k face of K lies in a facet with dk - k >= 2 elements outside it.
        denom = dk - k - 1
        seconds = []
        for _, _, c in _pair_count_stacks(rows, k):
            for lo in range(0, len(c), _EIG_BATCH):
                vals = np.linalg.eigvalsh(_symmetrized(c[lo : lo + _EIG_BATCH], denom))
                seconds.append(float(vals[:, -2].max()))
        gammas.append(max(seconds))
    # Whether some ridge of K lies in two facets; coning keeps the answer.
    shared = bool((walk.ridge_sizes > 1).any())
    for r in range(dk + 1, d + 1):
        gammas = _coned(gammas, r, shared)
    return LocalProfile(tuple(gammas))


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


def local_to_global_bound(profile: LocalProfile) -> float:
    """(1/d) * product of (1 - gamma_j) over the profile of a rank-d complex,
    which holds gamma_0..gamma_{d-2}, so d = len(profile) + 1."""
    out = 1.0 / (len(profile) + 1)
    for g in profile:
        out *= 1.0 - g
    return out
