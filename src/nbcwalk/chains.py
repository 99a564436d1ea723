"""Down-up and local walks: exact transition matrices, gaps, conductance.

The down-up walk on same-size facets is kept as its integer facet-ridge
incidence: each ridge lists the facets containing it, each facet its ridges.
Its exact entries are 1/(d |r|) summed over shared ridges r, so it is
symmetric and doubly stochastic by construction, and conductance and neighbor
ratios are exact sums over ridge counts.

Local walks are read from integer pair counts: the walk of the link of tau
steps from a to b in proportion to count(tau + a + b), the facets containing
tau, a and b, so count(tau + a) is its reversing measure and its
symmetrization D^(1/2) P D^(-1/2) has entries
count(tau + a + b) / (denom sqrt(count(tau + a) count(tau + b))).  One numpy
builder, _pair_count_stacks, cuts every facet into its size-k faces and their
links and counts the pairs of each link in stacks, one per state count; one
function, _symmetrized, turns such a stack into the symmetric matrices.  The
local spectral profile solves each level's stacks in batched eigvalsh calls;
LocalWalk keeps the pair counts of one link, built at its empty face, and
reads its exact rational entries off them.

Floating point enters only at the eigensolve: dense `eigvalsh` up to
DENSE_EIG_STATES states, and above that, for a down-up walk, ARPACK Lanczos on
the sparse P = (1/d) A diag(1/|r|) A^T.  numpy and scipy are imported inside
the functions that count local pairs or solve, so a command that does no
spectral work never loads them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import PreconditionError, SizeGuardError, VerificationError
from .matroids import Matroid
from .nbc import NbcComplex

if TYPE_CHECKING:
    import numpy as np

MAX_EIG_STATES = 5000
MAX_FACE_SUBSETS = 2_000_000
# Largest down-up walk solved densely.  Dense eigvalsh costs 0.03 s at 774
# states, 0.27 s at 1665 and 1.37 s at 3016; importing scipy.sparse.linalg
# costs 0.3-0.4 s and 26 MB, so a one-shot solve below this size is cheaper dense.
DENSE_EIG_STATES = 1500
# Most local walk matrices of one state count solved per eigvalsh call.
_EIG_BATCH = 512


def _as_facets(x):
    """Canonical facet tuple from a complex, a matroid (both already distinct
    and lexicographic), or a raw facet list, which is deduplicated and sorted."""
    if isinstance(x, NbcComplex):
        facets = x.facets()
    elif isinstance(x, Matroid):
        facets = x.enumerate_bases()
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
    facets share at most one ridge.  ridge_members[r] lists the facet positions
    containing ridge r; facet_ridges[i] the d ridges of facet i.  Build it with
    down_up_matrix.  entry and rows read P off the incidence; rows are plain
    dicts built on each access, which no solve or certificate needs.
    """

    __slots__ = ("index", "d", "ridge_members", "facet_ridges")

    def __init__(self, index, d, ridge_members, facet_ridges):
        self.index = index
        self.d = d
        self.ridge_members = ridge_members
        self.facet_ridges = facet_ridges

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
        shared = set(self.facet_ridges[i]).intersection(self.facet_ridges[j])
        return sum((Fraction(1, self.d * len(self.ridge_members[r])) for r in shared), Fraction(0))

    @property
    def rows(self) -> tuple:
        """Rows as dicts column -> exact entry over each row's support: the
        diagonal, and 1/(d |r|) at each facet that shares a ridge r with the
        row's own.  Built on every access."""
        share = [Fraction(1, self.d * len(m)) for m in self.ridge_members]
        out = []
        for i, p in enumerate(self._diagonal()):
            row = {j: share[r] for r in self.facet_ridges[i] for j in self.ridge_members[r]}
            row[i] = p
            out.append(row)
        return tuple(out)

    def _diagonal(self) -> list:
        """Exact P(S, S) for every facet, summed once per multiset of ridge sizes."""
        sizes = [len(m) for m in self.ridge_members]
        sums = {}
        out = []
        for ridges in self.facet_ridges:
            key = tuple(sorted(sizes[r] for r in ridges))
            if key not in sums:
                sums[key] = sum((Fraction(1, self.d * m) for m in key), Fraction(0))
            out.append(sums[key])
        return out

    def float_matrix(self) -> np.ndarray:
        """Dense P whose entries equal float(entry(i, j)) bit for bit: an
        off-diagonal entry is one correctly rounded 1/(d |r|), and the diagonal
        is rounded from its exact sum."""
        import numpy as np

        n = self.size
        out = np.zeros((n, n), dtype=np.float64)
        for members in self.ridge_members:
            if len(members) > 1:
                ix = np.array(members)
                out[np.ix_(ix, ix)] = 1.0 / (self.d * len(members))
        out[np.diag_indices(n)] = [float(x) for x in self._diagonal()]
        return out

    def _touched_ridges(self, chosen) -> set:
        return {r for i in chosen for r in self.facet_ridges[i]}

    def __repr__(self):
        return f"DownUpWalk({self.size} states, d={self.d})"


def down_up_matrix(facets) -> DownUpWalk:
    """The down-up walk P(S,T) = (1/d) / #facets containing S∩T when
    |S∩T| = d-1, diagonal absorbing the remainder, as its facet-ridge
    incidence; symmetric and doubly stochastic by construction."""
    facets, d = _as_facets(facets)
    ridge_ids = {}
    members = []
    facet_ridges = []
    for i, f in enumerate(facets):
        mine = []
        for e in f:
            r = ridge_ids.setdefault(f - {e}, len(members))
            if r == len(members):
                members.append([])
            members[r].append(i)
            mine.append(r)
        facet_ridges.append(tuple(mine))
    return DownUpWalk(facets, d, tuple(map(tuple, members)), tuple(facet_ridges))


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
    tau = frozenset(int(e) for e in tau)
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
    walk reports 1.0 (it mixes in zero steps).  Both walks are reversible, so
    each is solved as a symmetric matrix: a down-up walk is symmetric itself,
    and is solved sparsely above DENSE_EIG_STATES states; a local walk is
    solved as D^(1/2) P D^(-1/2) with D = diag(count(a)), built from its pair
    counts by _symmetrized, as in the local spectral profile."""
    import numpy as np

    n = p.size
    if n == 1:
        return 1.0
    check_eig_states(n, force)
    if isinstance(p, LocalWalk):
        sym = _symmetrized(p.pairs, p.denom)
    elif n > DENSE_EIG_STATES:
        return _sparse_gap(p)
    else:
        sym = p.float_matrix()
    vals = np.linalg.eigvalsh(sym)
    return float(1.0 - vals[-2])


def _sparse_gap(walk: DownUpWalk) -> float:
    """Gap of P = (1/d) A diag(1/|r|) A^T from its two largest eigenvalues by
    ARPACK Lanczos.  P is positive semidefinite, so those are the top of the
    spectrum; a walk whose facet-ridge graph is disconnected has eigenvalue 1
    twice, which Lanczos from one start vector can miss, so it reports 0.0."""
    import numpy as np
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    n, d = walk.size, walk.d
    cols = np.fromiter(itertools.chain.from_iterable(walk.facet_ridges), dtype=np.intp, count=n * d)
    rows = np.arange(0, n * d + 1, d)
    shape = (n, len(walk.ridge_members))
    inverse = 1.0 / (d * np.array([len(m) for m in walk.ridge_members], dtype=np.float64))
    incidence = csr_array((np.ones(n * d), cols, rows), shape=shape)
    weighted = csr_array((inverse[cols], cols, rows), shape=shape)
    p = weighted @ incidence.T
    if connected_components(p, directed=False, return_labels=False) > 1:
        return 0.0
    # A seeded start vector makes the result repeat exactly; it must not be
    # constant, since the constant vector is the top eigenvector.
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals = eigsh(p, k=2, which="LA", tol=0, v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise VerificationError(
            f"the sparse eigensolve of the {n}-state down-up walk did not converge"
        ) from exc
    return float(1.0 - vals.min())


def _subset_positions(p: DownUpWalk, s) -> set:
    chosen = set(p.positions_of(s))
    if not chosen:
        raise PreconditionError("the state subset must be nonempty")
    if len(chosen) == p.size:
        raise PreconditionError("the state subset must be proper")
    return chosen


def conductance(p: DownUpWalk, s) -> Fraction:
    """Crossing probability mass out of s divided by |s|, for a down-up walk,
    whose stationary distribution is uniform."""
    if not isinstance(p, DownUpWalk):
        raise PreconditionError("conductance needs a doubly stochastic matrix")
    chosen = _subset_positions(p, s)
    # Ridge r carries |r & S| * |r - S| / (d |r|) across the cut.
    by_size = {}
    for r in p._touched_ridges(chosen):
        members = p.ridge_members[r]
        inside = sum(1 for j in members if j in chosen)
        m = len(members)
        by_size[m] = by_size.get(m, 0) + inside * (m - inside)
    crossing = sum((Fraction(c, p.d * m) for m, c in by_size.items()), Fraction(0))
    return crossing / len(chosen)


def neighbor_ratio(p: DownUpWalk, s) -> Fraction:
    """Number of outside states reachable in one step from s, divided by |s|."""
    if not isinstance(p, DownUpWalk):
        raise PreconditionError("neighbor_ratio needs a doubly stochastic matrix")
    chosen = _subset_positions(p, s)
    outside = {j for r in p._touched_ridges(chosen) for j in p.ridge_members[r] if j not in chosen}
    return Fraction(len(outside), len(chosen))


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
    """The sorted elements, and the facets as an N x d integer array of
    positions among them, each row ascending."""
    import numpy as np

    elements = sorted(set().union(*facets))
    where = {e: i for i, e in enumerate(elements)}
    return elements, np.array([sorted(map(where.__getitem__, f)) for f in facets], dtype=np.int32)


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
    count = len(rows) * len(tops)
    # Face ids and the keys built from them stay below count * width; int32
    # keys halve what the sorts inside np.unique move.
    ids = np.int32 if count * width < 2**31 else np.int64
    sub = rows[:, np.array(tops, dtype=np.intp).reshape(len(tops), k)].reshape(count, k)
    # Dense face ids in lexicographic face order, one column at a time.
    face = np.zeros(count, dtype=ids)
    for j in range(k):
        face = np.unique(face * width + sub[:, j], return_inverse=True)[1].astype(ids)
    # Each face's states in ascending order, and the slot of each link
    # element among the states of its face.
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
    size k, computed for k = 0..d-2 level by level from integer pair-count
    stacks.  Each level's local matrices are solved in stacks of one state
    count, at most _EIG_BATCH per eigvalsh call."""
    import numpy as np

    facets, d = _as_facets(x)
    check_face_subsets(len(facets), d, force)
    _, rows = _element_positions(facets)
    gammas = []
    for k in range(d - 1):
        # Every size-k face lies in a facet with d - k >= 2 elements outside it.
        denom = d - k - 1
        seconds = []
        for _, _, c in _pair_count_stacks(rows, k):
            for lo in range(0, len(c), _EIG_BATCH):
                vals = np.linalg.eigvalsh(_symmetrized(c[lo : lo + _EIG_BATCH], denom))
                seconds.append(float(vals[:, -2].max()))
        gammas.append(max(seconds))
    return LocalProfile(tuple(gammas))


def local_to_global_bound(profile: LocalProfile) -> float:
    """(1/d) * product of (1 - gamma_j) over the profile of a rank-d complex,
    which holds gamma_0..gamma_{d-2}, so d = len(profile) + 1."""
    out = 1.0 / (len(profile) + 1)
    for g in profile:
        out *= 1.0 - g
    return out
