"""Down-up and local walks: exact transition matrices, gaps, conductance.

The down-up walk on same-size facets is kept as its integer facet-ridge
incidence: each ridge lists the facets containing it, each facet its ridges.
Its exact entries are 1/(d |r|) summed over shared ridges r, so it is
symmetric and doubly stochastic by construction, and conductance and neighbor
ratios are exact sums over ridge counts.

Local walks are read from one table of facet counts over faces as integer bit
masks (one bit per element, in element order): the walk of the link of tau
steps from a to b in proportion to count(tau + a + b), so count(tau + a) is its
reversing measure and its symmetrization D^(1/2) P D^(-1/2) has entries
count(tau + a + b) / (denom sqrt(count(tau + a) count(tau + b))).  One function,
_local_matrix, builds that symmetric matrix for every local walk, whether
LocalWalk's spectral gap or the local spectral profile asks; the profile solves
the matrices of one level and state count in stacked eigvalsh calls.  LocalWalk
keeps the table, so its exact rational entries are read off it.

Floating point enters only at the eigensolve: dense `eigvalsh` up to
DENSE_EIG_STATES states, and above that, for a down-up walk, ARPACK Lanczos on
the sparse P = (1/d) A diag(1/|r|) A^T.  numpy and scipy are imported inside
the functions that solve, so a command that does no spectral work never loads
them.
"""

from __future__ import annotations

import itertools
import math
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
    """Element walk of the link of a face tau, read from a face-count table.

    index lists the link's elements in ascending order, state i being bit
    1 << i; counts maps each nonempty face of the link, as such a mask, to the
    link facets containing it (see _face_mask_counts); denom is d - |tau| - 1,
    the other elements of a link facet beside any one.  A step from a to b != a
    has probability count(a + b) / (denom count(a)), so count(a) is a
    reversing measure.  Build it with local_walk_matrix.  entry and rows are
    exact; rows are dicts of the nonzero entries, built on each access.
    """

    __slots__ = ("index", "counts", "denom")

    def __init__(self, index, counts, denom):
        self.index = index
        self.counts = counts
        self.denom = denom

    @property
    def size(self) -> int:
        return len(self.index)

    def entry(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        return Fraction(self.counts.get(1 << i | 1 << j, 0), self.denom * self.counts[1 << i])

    @property
    def rows(self) -> tuple:
        n = self.size
        return tuple({j: p for j in range(n) if (p := self.entry(i, j))} for i in range(n))

    def __repr__(self):
        return f"LocalWalk({self.size} states)"


def local_walk_matrix(x, tau) -> LocalWalk:
    """Element walk of the link of tau: step from x to y with probability
    proportional to the number of facets containing tau + {x, y}.  The link's
    face-count table has up to 2^(d - |tau|) faces per link facet, so it is
    refused past MAX_FACE_SUBSETS, as the local spectral profile's is."""
    facets, d = _as_facets(x)
    tau = frozenset(int(e) for e in tau)
    k = len(tau)
    if k > d - 2:
        raise PreconditionError(f"tau has size {k}; the local walk needs size <= {d - 2}")
    link = [f - tau for f in facets if tau <= f]
    if not link:
        raise PreconditionError("tau is not a face of the complex")
    check_face_subsets(len(link), d - k)
    return LocalWalk(tuple(sorted(set().union(*link))), _face_mask_counts(link), d - k - 1)


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
    solved as D^(1/2) P D^(-1/2) with D = diag(count(a)), which
    local_spectral_profile's _local_matrix builds."""
    import numpy as np

    n = p.size
    if n == 1:
        return 1.0
    check_eig_states(n, force)
    if isinstance(p, LocalWalk):
        states = [1 << i for i in range(n)]
        sym = np.array(_local_matrix(0, states, p.counts, p.denom)).reshape(n, n)
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


def _face_mask_counts(facets) -> dict:
    """Count, for every nonempty face (every nonzero submask of a facet mask),
    the facets containing it.  Element i in sorted order is bit 1 << i, so
    ascending bits are ascending elements."""
    bit = {e: 1 << i for i, e in enumerate(sorted(set().union(*facets)))}
    counts = {}
    for f in facets:
        m = sum(bit[e] for e in f)
        s = m
        while s:
            counts[s] = counts.get(s, 0) + 1
            s = (s - 1) & m
    return counts


def _link_states(faces) -> dict:
    """Map each face tau one element smaller than some face in faces to the
    bits b with tau | b among faces: the states of tau's local walk."""
    states_of = {}
    for bigger in faces:
        rest = bigger
        while rest:
            low = rest & -rest
            states_of.setdefault(bigger ^ low, []).append(low)
            rest ^= low
    return states_of


def _local_matrix(tau, states, counts, denom) -> list:
    """Row-major entries of the symmetrized local walk of tau over its states
    in ascending order: count(tau+a+b) / (denom sqrt(count(tau+a) count(tau+b)))."""
    n = len(states)
    faces = [tau | s for s in states]
    sizes = [counts[f] for f in faces]
    get = counts.get
    out = [0.0] * (n * n)
    for a in range(n - 1):
        face, ca = faces[a], sizes[a]
        for b in range(a + 1, n):
            pair = get(face | states[b])
            if pair:
                out[a * n + b] = out[b * n + a] = pair / (denom * math.sqrt(ca * sizes[b]))
    return out


def local_spectral_profile(x, force: bool = False) -> LocalProfile:
    """gamma_k = max second eigenvalue of the local walk over all faces of
    size k, computed for k = 0..d-2 level by level from one face-count table
    keyed by integer face masks.  Each level's local matrices are solved in
    stacks of one state count, at most _EIG_BATCH per eigvalsh call."""
    import numpy as np

    facets, d = _as_facets(x)
    check_face_subsets(len(facets), d, force)
    counts = _face_mask_counts(facets)
    by_size = [[] for _ in range(d + 1)]
    for face in counts:
        by_size[face.bit_count()].append(face)
    gammas = []
    for k in range(d - 1):
        # Every size-k face lies in a facet with d - k >= 2 elements outside it.
        denom = d - k - 1
        by_count = {}
        for tau, states in _link_states(by_size[k + 1]).items():
            states.sort()
            by_count.setdefault(len(states), []).append((tau, states))
        seconds = []
        for n, group in by_count.items():
            for lo in range(0, len(group), _EIG_BATCH):
                chunk = group[lo : lo + _EIG_BATCH]
                stack = np.array([_local_matrix(t, st, counts, denom) for t, st in chunk])
                vals = np.linalg.eigvalsh(stack.reshape(-1, n, n))
                seconds.append(float(vals[:, -2].max()))
        gammas.append(max(seconds))
    return LocalProfile(tuple(gammas))


def local_to_global_bound(profile: LocalProfile, d: int) -> float:
    """(1/d) * product of (1 - gamma_j) over the profile."""
    d = int(d)
    if d < 1:
        raise PreconditionError("d must be at least 1")
    if len(profile) != d - 1:
        raise PreconditionError(f"profile length {len(profile)} does not match d-1={d - 1}")
    out = 1.0 / d
    for g in profile:
        out *= 1.0 - g
    return out
