"""Down-up and local walks: exact transition matrices, gaps, conductance.

Matrices keep exact rational entries; floating point enters only at the
eigensolve, which works on the detailed-balance symmetrization.  The down-up
walk on same-size facets is symmetric and doubly stochastic by construction,
so conductance and neighbor ratios read straight off the rational entries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PreconditionError, SizeGuardError
from .matroids import Matroid
from .nbc import NbcComplex

MAX_EIG_STATES = 5000
MAX_FACE_SUBSETS = 2_000_000


class StochasticMatrix:
    """Row-stochastic matrix with exact rational entries over labeled states."""

    __slots__ = ("index", "rows", "_symmetric", "_doubly")

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
        self._symmetric = None
        self._doubly = None

    @property
    def size(self) -> int:
        return len(self.index)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i].get(j, Fraction(0))

    def is_symmetric(self) -> bool:
        if self._symmetric is None:
            self._symmetric = all(
                self.rows[j].get(i, Fraction(0)) == p
                for i, row in enumerate(self.rows)
                for j, p in row.items()
            )
        return self._symmetric

    def is_doubly_stochastic(self) -> bool:
        if self._doubly is None:
            if self.is_symmetric():
                self._doubly = True
            else:
                col = [Fraction(0)] * self.size
                for row in self.rows:
                    for j, p in row.items():
                        col[j] += p
                self._doubly = all(c == 1 for c in col)
        return self._doubly

    def float_matrix(self) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=np.float64)
        for i, row in enumerate(self.rows):
            for j, p in row.items():
                out[i, j] = float(p)
        return out

    def positions_of(self, states) -> list:
        """Map state labels to row/column positions, rejecting strangers."""
        where = {s: i for i, s in enumerate(self.index)}
        out = []
        for s in states:
            if s not in where:
                raise PreconditionError(f"state {s!r} is not in the matrix index")
            out.append(where[s])
        return out

    def __repr__(self):
        return f"StochasticMatrix({self.size} states)"


def _as_facets(x):
    """Canonical facet tuple from a complex, a matroid, or a raw facet list."""
    if isinstance(x, NbcComplex):
        facets = x.facets()
    elif isinstance(x, Matroid):
        facets = x.enumerate_bases()
    else:
        facets = tuple(frozenset(f) for f in x)
    if not facets:
        raise PreconditionError("the complex has no facets")
    facets = tuple(sorted(set(facets), key=lambda f: tuple(sorted(f))))
    sizes = {len(f) for f in facets}
    if len(sizes) != 1:
        raise PreconditionError(f"facets have mixed sizes {sorted(sizes)}")
    d = sizes.pop()
    if d < 1:
        raise PreconditionError("facets must be nonempty")
    return facets, d


def down_up_matrix(facets) -> StochasticMatrix:
    """P(S,T) = (1/d) / #facets containing S∩T when |S∩T| = d-1; symmetric and
    doubly stochastic, diagonal absorbing the remainder."""
    facets, d = _as_facets(facets)
    groups = {}
    for i, f in enumerate(facets):
        for e in f:
            groups.setdefault(f - {e}, []).append(i)
    rows = [dict() for _ in facets]
    for members in groups.values():
        w = Fraction(1, d * len(members))
        for i in members:
            row = rows[i]
            for j in members:
                row[j] = row.get(j, Fraction(0)) + w
    return StochasticMatrix(facets, rows)


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


def spectral_gap(p: StochasticMatrix, force: bool = False) -> float:
    """1 - second-largest eigenvalue of the reversible chain; a single-state
    chain reports 1.0 (it mixes in zero steps)."""
    n = p.size
    if n == 1:
        return 1.0
    check_eig_states(n, force)
    sym = p.float_matrix()
    if not p.is_symmetric():
        # Similar to P by diag(sqrt(mu)), and symmetric by detailed balance.
        root = np.sqrt([float(m) for m in _stationary_from_detailed_balance(p)])
        sym *= root[:, None]
        sym /= root[None, :]
    vals = np.linalg.eigvalsh(sym)
    return float(1.0 - vals[-2])


def _subset_positions(p: StochasticMatrix, s) -> set:
    chosen = set(p.positions_of(s))
    if not chosen:
        raise PreconditionError("the state subset must be nonempty")
    if len(chosen) == p.size:
        raise PreconditionError("the state subset must be proper")
    return chosen


def conductance(p: StochasticMatrix, s) -> Fraction:
    """Crossing probability mass out of s divided by |s|, for doubly
    stochastic chains (uniform stationary distribution)."""
    if not p.is_doubly_stochastic():
        raise PreconditionError("conductance needs a doubly stochastic matrix")
    chosen = _subset_positions(p, s)
    crossing = Fraction(0)
    for i in chosen:
        for j, pij in p.rows[i].items():
            if j not in chosen:
                crossing += pij
    return crossing / len(chosen)


def neighbor_ratio(p: StochasticMatrix, s) -> Fraction:
    """Number of outside states reachable in one step from s, divided by |s|."""
    if not p.is_doubly_stochastic():
        raise PreconditionError("neighbor_ratio needs a doubly stochastic matrix")
    chosen = _subset_positions(p, s)
    outside = set()
    for i in chosen:
        for j, pij in p.rows[i].items():
            if j not in chosen and pij > 0:
                outside.add(j)
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


def _face_counts(facets, d, force: bool):
    """Count, for every subset of every facet, the facets containing it."""
    if len(facets) << d > MAX_FACE_SUBSETS and not force:
        raise SizeGuardError(
            f"{len(facets)} facets of size {d} exceed MAX_FACE_SUBSETS={MAX_FACE_SUBSETS}"
        )
    counts = {}
    for f in facets:
        items = sorted(f)
        for r in range(d + 1):
            for combo in itertools.combinations(items, r):
                key = frozenset(combo)
                counts[key] = counts.get(key, 0) + 1
    return counts


def local_spectral_profile(x, force: bool = False) -> LocalProfile:
    """gamma_k = max second eigenvalue of the local walk over all faces of
    size k, computed for k = 0..d-2 from one shared face-count table."""
    facets, d = _as_facets(x)
    counts = _face_counts(facets, d, force)
    by_size = {}
    for face in counts:
        by_size.setdefault(len(face), []).append(face)
    gammas = []
    for k in range(d - 1):
        # Collect each size-k face's link ground set from the size-k+1 faces.
        states_of = {}
        for bigger in by_size.get(k + 1, ()):
            for xel in bigger:
                states_of.setdefault(bigger - {xel}, []).append(xel)
        best = None
        denom = d - k - 1
        for tau, states in states_of.items():
            # tau lies in a facet with d - k >= 2 elements outside it.
            states = sorted(states)
            n = len(states)
            sym = np.zeros((n, n), dtype=np.float64)
            for a in range(n):
                ca = counts[tau | {states[a]}]
                for b in range(a + 1, n):
                    pair = counts.get(tau | {states[a], states[b]}, 0)
                    if pair:
                        cb = counts[tau | {states[b]}]
                        sym[a, b] = sym[b, a] = pair / (denom * math.sqrt(ca * cb))
            lam2 = float(np.linalg.eigvalsh(sym)[-2])
            if best is None or lam2 > best:
                best = lam2
        gammas.append(best)
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
