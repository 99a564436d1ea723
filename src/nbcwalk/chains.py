"""Down-up and local walks: exact transition matrices, gaps, conductance.

The down-up walk on same-size facets is kept as its integer facet-ridge
incidence: each ridge lists the facets containing it, each facet its ridges.
Its exact entries are 1/(d |r|) summed over shared ridges r, so it is
symmetric and doubly stochastic by construction, and conductance and neighbor
ratios are exact sums over ridge counts.  Local walks and hand-built chains are
`StochasticMatrix`es with exact rational rows.  Floating point enters only at
the eigensolve: dense `eigvalsh` up to DENSE_EIG_STATES states (on the
detailed-balance symmetrization for non-symmetric chains), and above that, for
a down-up walk, ARPACK Lanczos on the sparse P = (1/d) A diag(1/|r|) A^T.

The local spectral profile works level by level on faces as integer bit masks
(one bit per element, in element order) with one table of facet counts; the
local matrices of one level and state count are solved in stacked eigvalsh
calls.  numpy and scipy are imported inside the functions that solve, so a
command that does no spectral work never loads them.
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


class _LabeledStates:
    """Row/column labels shared by the exact chain types."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.index)

    def positions_of(self, states) -> list:
        """Map state labels to row/column positions, rejecting strangers."""
        where = {s: i for i, s in enumerate(self.index)}
        out = []
        for s in states:
            if s not in where:
                raise PreconditionError(f"state {s!r} is not in the matrix index")
            out.append(where[s])
        return out


class StochasticMatrix(_LabeledStates):
    """Row-stochastic matrix with exact rational entries over labeled states."""

    __slots__ = ("index", "rows")

    def __init__(self, index, rows):
        index = tuple(index)
        if not index:
            raise PreconditionError("a stochastic matrix needs at least one state")
        if len(set(index)) != len(index):
            raise PreconditionError("state labels must be distinct")
        if len(rows) != len(index):
            raise PreconditionError("row count must match the state count")
        clean = []
        for i, row in enumerate(rows):
            out = {}
            total = Fraction(0)
            for j, p in row.items():
                p = Fraction(p)
                if p < 0:
                    raise PreconditionError(f"negative entry at ({i}, {j})")
                if not 0 <= j < len(index):
                    raise PreconditionError(f"column {j} out of range in row {i}")
                if p:
                    out[j] = p
                    total += p
            if total != 1:
                raise PreconditionError(f"row {i} sums to {total}, not 1")
            clean.append(out)
        self.index = index
        self.rows = tuple(clean)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, Fraction(0))

    def is_symmetric(self) -> bool:
        return all(
            self.rows[j].get(i, Fraction(0)) == p
            for i, row in enumerate(self.rows)
            for j, p in row.items()
        )

    def is_doubly_stochastic(self) -> bool:
        col = [Fraction(0)] * self.size
        for row in self.rows:
            for j, p in row.items():
                col[j] += p
        return all(c == 1 for c in col)

    def float_matrix(self) -> np.ndarray:
        import numpy as np

        out = np.zeros((self.size, self.size), dtype=np.float64)
        for i, row in enumerate(self.rows):
            for j, p in row.items():
                out[i, j] = float(p)
        return out

    def _crossing_mass(self, chosen) -> Fraction:
        return sum(
            (p for i in chosen for j, p in self.rows[i].items() if j not in chosen),
            Fraction(0),
        )

    def _outside_neighbors(self, chosen) -> set:
        return {j for i in chosen for j in self.rows[i] if j not in chosen}

    def __repr__(self):
        return f"StochasticMatrix({self.size} states)"


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


class DownUpWalk(_LabeledStates):
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

    def entry(self, i: int, j: int) -> Fraction:
        shared = set(self.facet_ridges[i]).intersection(self.facet_ridges[j])
        return sum((Fraction(1, self.d * len(self.ridge_members[r])) for r in shared), Fraction(0))

    @property
    def rows(self) -> tuple:
        """Rows as dicts column -> exact entry over each row's support, as for
        StochasticMatrix: the diagonal, and 1/(d |r|) at each facet that
        shares a ridge r with the row's own.  Built on every access."""
        share = [Fraction(1, self.d * len(m)) for m in self.ridge_members]
        out = []
        for i, p in enumerate(self._diagonal()):
            row = {j: share[r] for r in self.facet_ridges[i] for j in self.ridge_members[r]}
            row[i] = p
            out.append(row)
        return tuple(out)

    def is_symmetric(self) -> bool:
        return True

    def is_doubly_stochastic(self) -> bool:
        return True

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

    def _crossing_mass(self, chosen) -> Fraction:
        # Ridge r carries |r & S| * |r - S| / (d |r|) across the cut.
        by_size = {}
        for r in self._touched_ridges(chosen):
            members = self.ridge_members[r]
            inside = sum(1 for j in members if j in chosen)
            m = len(members)
            by_size[m] = by_size.get(m, 0) + inside * (m - inside)
        return sum((Fraction(c, self.d * m) for m, c in by_size.items()), Fraction(0))

    def _outside_neighbors(self, chosen) -> set:
        return {
            j
            for r in self._touched_ridges(chosen)
            for j in self.ridge_members[r]
            if j not in chosen
        }

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


def local_walk_matrix(x, tau) -> StochasticMatrix:
    """Element walk of the link of tau: step from x to y with probability
    proportional to the number of facets containing tau + {x, y}."""
    facets, d = _as_facets(x)
    tau = frozenset(int(e) for e in tau)
    k = len(tau)
    if k > d - 2:
        raise PreconditionError(f"tau has size {k}; the local walk needs size <= {d - 2}")
    cnt = {}
    paircnt = {}
    for f in facets:
        if not tau <= f:
            continue
        rest = sorted(f - tau)
        for a, xel in enumerate(rest):
            cnt[xel] = cnt.get(xel, 0) + 1
            for yel in rest[a + 1 :]:
                key = (xel, yel)
                paircnt[key] = paircnt.get(key, 0) + 1
    if not cnt:
        raise PreconditionError("tau is not a face of the complex")
    states = sorted(cnt)
    pos = {s: i for i, s in enumerate(states)}
    denom = d - k - 1
    rows = [dict() for _ in states]
    for (a, b), c in paircnt.items():
        rows[pos[a]][pos[b]] = Fraction(c, denom * cnt[a])
        rows[pos[b]][pos[a]] = Fraction(c, denom * cnt[b])
    return StochasticMatrix(tuple(states), rows)


def _stationary_from_detailed_balance(p: StochasticMatrix):
    """Reversing measure found by ratio propagation; rejects non-reversible
    matrices naming a violating state pair."""
    n = p.size
    for i, row in enumerate(p.rows):
        for j, pij in row.items():
            if i != j and p.entry(j, i) == 0:
                raise PreconditionError(
                    f"not reversible: P({p.index[i]!r} -> {p.index[j]!r}) > 0 "
                    "with zero reverse probability"
                )
    mu = [None] * n
    for start in range(n):
        if mu[start] is not None:
            continue
        mu[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j, pij in p.rows[i].items():
                if i == j or mu[j] is not None:
                    continue
                mu[j] = mu[i] * pij / p.entry(j, i)
                queue.append(j)
    for i, row in enumerate(p.rows):
        for j, pij in row.items():
            if i != j and mu[i] * pij != mu[j] * p.entry(j, i):
                raise PreconditionError(
                    f"not reversible: detailed balance fails for states "
                    f"{p.index[i]!r} and {p.index[j]!r}"
                )
    total = sum(mu)
    return [m / total for m in mu]


def check_eig_states(n: int, force: bool = False):
    """Refuse an eigensolve on more than MAX_EIG_STATES states unless forced;
    callers that know the state count early check it before building P."""
    if n > MAX_EIG_STATES and not force:
        raise SizeGuardError(f"{n} states exceeds MAX_EIG_STATES={MAX_EIG_STATES}")


def spectral_gap(p: StochasticMatrix | DownUpWalk, force: bool = False) -> float:
    """1 - second-largest eigenvalue of the reversible chain; a single-state
    chain reports 1.0 (it mixes in zero steps).  A down-up walk above
    DENSE_EIG_STATES states is solved sparsely."""
    import numpy as np

    n = p.size
    if n == 1:
        return 1.0
    check_eig_states(n, force)
    if isinstance(p, DownUpWalk) and n > DENSE_EIG_STATES:
        return _sparse_gap(p)
    sym = p.float_matrix()
    if not p.is_symmetric():
        # Similar to P by diag(sqrt(mu)), and symmetric by detailed balance.
        root = np.sqrt([float(m) for m in _stationary_from_detailed_balance(p)])
        sym *= root[:, None]
        sym /= root[None, :]
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


def _subset_positions(p: StochasticMatrix | DownUpWalk, s) -> set:
    chosen = set(p.positions_of(s))
    if not chosen:
        raise PreconditionError("the state subset must be nonempty")
    if len(chosen) == p.size:
        raise PreconditionError("the state subset must be proper")
    return chosen


def conductance(p: StochasticMatrix | DownUpWalk, s) -> Fraction:
    """Crossing probability mass out of s divided by |s|, for doubly
    stochastic chains (uniform stationary distribution)."""
    if not p.is_doubly_stochastic():
        raise PreconditionError("conductance needs a doubly stochastic matrix")
    chosen = _subset_positions(p, s)
    return p._crossing_mass(chosen) / len(chosen)


def neighbor_ratio(p: StochasticMatrix | DownUpWalk, s) -> Fraction:
    """Number of outside states reachable in one step from s, divided by |s|."""
    if not p.is_doubly_stochastic():
        raise PreconditionError("neighbor_ratio needs a doubly stochastic matrix")
    chosen = _subset_positions(p, s)
    return Fraction(len(p._outside_neighbors(chosen)), len(chosen))


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
