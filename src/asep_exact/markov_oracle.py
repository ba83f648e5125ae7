"""Brute-force finite-window Markov oracle.

Ground truth for small systems: enumerate every configuration of N
labeled-by-species particles inside a window of sites, build the sparse
jump-rate generator, and propagate the initial point mass by
uniformization.  Dynamics (rightward rate p, leftward rate q per particle):
a move onto an empty site always happens; a move onto an occupied site
swaps the two labels when the mover has the strictly larger species
number and is blocked otherwise.  Moves that would leave the window are
dropped, so probability mass is conserved exactly and the truncation bias
is bounded by the leakage of the free dynamics, estimated by a rate-1
Poisson tail per particle (a particle's own attempts are the only way the
occupied region's hull can grow).

The generator is assembled on integer arrays, not state by state.  The
states are the product of a (C, N) array of site sets and the sorted
species orbit; ``StateSpace.configs`` lists them as tuples, for the
returned distribution, and ``StateSpace.batch`` as one (m, 2, N)
integer array, for the contour engine's windows.
Each state gets an int64 key that increases in state order (sites read
as a base-W number, W the window width, then the orbit index), every
(particle, direction) move is found for all states at once by shifts and
masks, and np.searchsorted maps the destination keys back to rows.  The
matrix is bit for bit the one assembled state by state from each state's
one-jump moves.

Everything here is deliberately independent of the contour-integral
machinery: plain state enumeration, scipy sparse matrices, Poisson tails.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import sparse
from scipy.special import pdtrc

from .bethe_algebra import RateParams
from .permutations import species_orbit

Config = tuple[tuple[int, ...], tuple[int, ...]]  # (sites, species), both tuples

UNIFORMIZATION_TAIL = 1e-12

# Default bound on the mass that leaves a window chosen by window_for.
DEFAULT_LEAK_TOL = 1e-10

# Most states a StateSpace may hold; a larger one is refused before its
# site sets are enumerated.
MAX_STATES = 1 << 22

# Largest |site| or species label: at most 8 particles (the slab budget at
# 8 nodes) keep every sum of sites, and the difference of two, in int64.
MAX_SITE = 2**59


def check_config(sites, species) -> None:
    """One configuration, or the rows of (m, N) arrays of them; the first
    row whose sites are not strictly increasing is named."""
    sites, species = np.atleast_2d(sites), np.atleast_2d(species)
    if sites.shape != species.shape:
        raise ValueError("sites and species lengths differ")
    bad = np.flatnonzero((sites[:, 1:] <= sites[:, :-1]).any(axis=1))
    if len(bad):
        raise ValueError(f"sites must be strictly increasing, got {tuple(sites[bad[0]].tolist())}")
    if (species < 1).any():
        raise ValueError("species labels must be positive integers")


def check_problem(y, nu, t: float, targets=()) -> tuple[np.ndarray, np.ndarray]:
    """Checks the start (y, nu), t and the targets (pairs or one (m, 2, N)
    integer array) in that order; returns the targets' int64 (m, N) sites and
    species.  An entry that is not an integer (a bool is not) or lies past
    MAX_SITE is refused, naming its configuration."""
    if not all(map(_is_int, (*y, *nu))):
        raise ValueError(
            f"start sites and species must be integers, got y = {tuple(y)}, nu = {tuple(nu)}"
        )
    check_config(y, nu)
    _check_time(t)
    n, listed = len(y), not isinstance(targets, np.ndarray)
    if listed and set(map(len, chain(*targets))) - {n}:
        x, _ = next(pair for pair in targets if set(map(len, pair)) - {n})
        raise ValueError("target size differs from initial size" if len(x) != n
                         else "sites and species lengths differ")
    batch = np.asarray(targets).reshape(-1, 2, n)
    # np.asarray reads a bool among ints as an int, so a list's entry types are read
    kinds = set(map(type, chain(*chain(*targets)))) if listed else {batch.dtype.type}
    ints = all(issubclass(kind, numbers.Integral) and kind is not bool for kind in kinds)
    big = max(map(abs, (*y, *nu)), default=0) > MAX_SITE
    if big or not ints or batch.min(initial=0) < -MAX_SITE or batch.max(initial=0) > MAX_SITE:
        configs = [(y, nu), *(targets if listed else targets.tolist())]
        bad = next(
            (tuple(x), tuple(pi)) for x, pi in configs
            if not all(_is_int(v) and -MAX_SITE <= v <= MAX_SITE for v in (*x, *pi))
        )
        raise ValueError(f"{bad}: sites and species must be integers of magnitude at most 2**59")
    sites, species = batch.astype(np.int64, copy=False).transpose(1, 0, 2)
    check_config(sites, species)
    return sites, species


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> int:
    """``seed`` as an int; it keys uint64 Philox streams, so it must be an
    integer in [0, 2**64)."""
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class StateSpace:
    """All placements of the species multiset inside a site window, in
    sites-then-species lexicographic order: state k is the site set
    ``sites[k // len(orbit)]`` with the labeling ``orbit[k % len(orbit)]``.
    ``sites`` is a (C, N) int64 array of increasing site sets, ``orbit``
    the sorted species orders.  A window narrower than N holds no state;
    one that is not two integers lo <= hi, of more than MAX_STATES states
    or with keys past int64 is a ValueError before any state is enumerated."""

    window: tuple[int, int]
    orbit: tuple[tuple[int, ...], ...]
    sites: np.ndarray

    @classmethod
    def build(cls, window: tuple[int, int], n: int, nu: tuple[int, ...]) -> "StateSpace":
        if len(window) != 2 or not all(map(_is_int, window)) or window[0] > window[1]:
            raise ValueError(f"window {tuple(window)} is not two integers lo <= hi")
        lo, hi = window
        width = hi - lo + 1
        orders = math.factorial(n) // math.prod(
            map(math.factorial, Counter(nu).values())
        )
        if width**n * orders > np.iinfo(np.int64).max:
            raise ValueError(
                f"window {tuple(window)} is too wide for int64 state keys "
                f"with {n} particles and {orders} species orders"
            )
        count = math.comb(width, n)
        if count * orders > MAX_STATES:
            raise ValueError(
                f"window {tuple(window)} holds {count * orders:,} states with "
                f"{n} particles, more than the {MAX_STATES:,} a state space may hold"
            )
        orbit = tuple(species_orbit(nu))
        sites = np.fromiter(
            itertools.combinations(range(lo, hi + 1), n),
            np.dtype((np.int64, n)),
            count,
        )
        return cls(window=window, orbit=orbit, sites=sites)

    def configs(self) -> list[Config]:
        """Every state as a (sites, species) tuple pair, in state order."""
        return list(itertools.product(map(tuple, self.sites.tolist()), self.orbit))

    def batch(self) -> np.ndarray:
        """Every state as one (m, 2, N) int64 array of sites then species."""
        orbit = np.tile(np.array(self.orbit, np.int64), (len(self.sites), 1))
        return np.stack([np.repeat(self.sites, len(self.orbit), axis=0), orbit], axis=1)

    def index(self, sites: tuple[int, ...], species: tuple[int, ...]) -> int:
        """The state number of one configuration of the space."""
        row = int(np.flatnonzero((self.sites == sites).all(axis=1))[0])
        return row * len(self.orbit) + self.orbit.index(tuple(species))


def build_generator(space: StateSpace, rates: RateParams) -> sparse.csr_matrix:
    """Sparse jump-rate matrix Q with rows indexed by the from-state;
    off-diagonal entries are move rates into the window, the diagonal the
    negated row sum (window-exiting moves dropped).

    Each move (particle i, right then left) is found for all states at
    once: an empty target site is a hop (censored outside the window), an
    occupied one a swap when the mover's species is larger.  A hop shifts
    the state key by a fixed amount, a swap replaces its orbit index from
    a table.  The diagonal adds the rates particle by particle, right
    then left, so Q is bit for bit the one assembled state by state with
    the moves summed in that order.
    """
    lo, hi = space.window
    orbit = space.orbit
    size = len(orbit)
    sites = np.repeat(space.sites, size, axis=0)
    m, n = sites.shape
    orbit_of = np.tile(np.arange(size, dtype=np.int64), len(space.sites))
    place = size * (hi - lo + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = (sites - lo) @ place + orbit_of

    # per orbit entry and neighbour pair (b, b + 1): +1 when the left
    # species is larger, -1 when the right one is, so a mover stepping by
    # `step` wins a swap where the entry equals step; and the orbit index
    # after swapping the pair
    pairs = range(n - 1)
    orbit_index = {s: k for k, s in enumerate(orbit)}
    order = np.array([[(s[b] > s[b + 1]) - (s[b] < s[b + 1]) for b in pairs] for s in orbit])
    swapped = np.array(
        [[orbit_index[s[:b] + (s[b + 1], s[b]) + s[b + 2:]] for b in pairs] for s in orbit],
        np.int64,
    )

    rows, dest, vals = [], [], []
    total = np.zeros(m)
    for i in range(n):
        for step, rate in ((1, float(rates.p)), (-1, float(rates.q))):
            if rate == 0:
                continue
            target = sites[:, i] + step
            j = i + step
            occupied = np.zeros(m, bool)
            moves = []
            if 0 <= j < n:
                b = min(i, j)
                occupied = sites[:, j] == target
                swap = np.flatnonzero(occupied & (order[orbit_of, b] == step))
                moves.append((swap, keys[swap] - orbit_of[swap] + swapped[orbit_of[swap], b]))
            hop = np.flatnonzero(~occupied & (target >= lo) & (target <= hi))
            moves.append((hop, keys[hop] + step * place[i]))
            outflow = np.zeros(m)
            for found, to in moves:
                rows.append(found)
                dest.append(to)
                vals.append(np.full(len(found), rate))
                outflow[found] = rate
            total += outflow
    dest_keys = np.concatenate(dest)
    cols = np.minimum(np.searchsorted(keys, dest_keys), m - 1)
    if not np.array_equal(keys[cols], dest_keys):
        raise ValueError("state space is missing a move's destination")
    diagonal = np.arange(m)
    return sparse.csr_matrix(
        (
            np.concatenate(vals + [-total]),
            (np.concatenate(rows + [diagonal]), np.concatenate([cols, diagonal])),
        ),
        shape=(m, m),
    )


def expm_action(generator: sparse.csr_matrix, t: float, start_index: int) -> np.ndarray:
    """Distribution row delta_start * exp(t Q) by uniformization, accurate
    to the UNIFORMIZATION_TAIL Poisson truncation."""
    m = generator.shape[0]
    v = np.zeros(m)
    v[start_index] = 1.0
    if t == 0:
        return v
    lam = float(-generator.diagonal().min())
    if lam == 0:
        return v
    transition = sparse.eye(m, format="csr") + generator.transpose().tocsr() / lam
    mu = lam * t
    weight = np.exp(-mu)
    cumulative = weight
    out = weight * v
    w = v
    k = 0
    while cumulative < 1 - UNIFORMIZATION_TAIL:
        k += 1
        w = transition @ w
        weight *= mu / k
        cumulative += weight
        out += weight * w
        if k > 1000 + 10 * mu:
            raise RuntimeError("uniformization failed to converge")
    return out


def single_particle_series(displacement: int, rates: RateParams, t: float) -> float:
    """One particle's transition probability as its explicit jump series:
    condition on k left jumps and k + d right jumps.

    P(d) = exp(-t) * sum_k p^(k+d) q^k t^(2k+d) / (k! (k+d)!),  k >= max(0, -d).

    Terms are built by the ratio recursion term *= p q t^2 / (k (k+d)) so
    nothing ever overflows; the leading term uses logs for the same reason.
    """
    p, q = float(rates.p), float(rates.q)
    d = int(displacement)
    if t == 0:
        return 1.0 if d == 0 else 0.0
    if (d > 0 and p == 0) or (d < 0 and q == 0):
        return 0.0
    k0 = max(0, -d)
    log_lead = -t + (k0 + d) * math.log(p) if p > 0 else -t
    if k0 > 0:
        log_lead += k0 * math.log(q)
    log_lead += (2 * k0 + d) * math.log(t)
    log_lead -= math.lgamma(k0 + 1) + math.lgamma(k0 + d + 1)
    term = math.exp(log_lead)
    total = term
    k = k0
    while term > 1e-25 * max(total, 1e-300) or k < k0 + 8:
        k += 1
        term *= p * q * t * t / (k * (k + d))
        total += term
        if k > k0 + 100000:
            raise RuntimeError("series failed to converge")
    return total


def poisson_tail(t: float, delta: int) -> float:
    """P(Poisson(t) >= delta), by the function scipy.stats.poisson.sf calls."""
    if delta <= 0:
        return 1.0
    return float(pdtrc(delta - 1, t))


def leakage_bound(n: int, t: float, delta: int) -> float:
    """Bound on the probability any of n particles strays delta or more
    sites beyond its start by time t."""
    return min(1.0, n * poisson_tail(t, delta))


def window_leakage(y: tuple[int, ...], t: float, window: tuple[int, int]) -> float:
    """Leakage bound of a window: the particles' distance to its nearer
    edge is the stray a particle needs to reach outside it."""
    return leakage_bound(len(y), t, min(min(y) - window[0], window[1] - max(y)))


def _check_time(t: float) -> None:
    if isinstance(t, (bool, np.bool_)):
        raise ValueError(f"time must be a real number, not a bool, got t = {t}")
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got t = {t}")


def window_for(
    y: tuple[int, ...], t: float, leak_tol: float = DEFAULT_LEAK_TOL
) -> tuple[int, int]:
    """Smallest symmetric window around the initial sites whose leakage
    bound is at most leak_tol."""
    _check_time(t)
    if not leak_tol > 0:
        raise ValueError(f"leak_tol must be positive, got leak_tol = {leak_tol}")
    n = len(y)
    delta = 1
    while leakage_bound(n, t, delta) > leak_tol:
        delta += 1
        if delta > 10000:
            raise ValueError(
                f"no window within 10000 sites of the start keeps the leakage "
                f"below leak_tol = {leak_tol:g} at t = {t:g}"
            )
    return (min(y) - delta, max(y) + delta)


def oracle_distribution(
    y: tuple[int, ...],
    nu: tuple[int, ...],
    rates: RateParams,
    t: float,
    leak_tol: float = DEFAULT_LEAK_TOL,
    window: tuple[int, int] | None = None,
):
    """Point-mass evolution as a dict Config -> probability, plus the
    window used and its leakage bound.  Total mass is 1 up to roundoff
    because exiting moves are suppressed, but states near the boundary
    carry truncation bias up to the leakage bound."""
    check_problem(y, nu, t)
    if window is None:
        window = window_for(y, t, leak_tol)
    # the window's form is checked first, so a reversed one is named as such
    space = StateSpace.build(window, len(y), nu)
    if not window[0] <= min(y) <= max(y) <= window[1]:
        raise ValueError(
            f"window {tuple(window)} does not contain the start sites {tuple(y)}"
        )
    dist = expm_action(build_generator(space, rates), t, space.index(y, nu))
    return dict(zip(space.configs(), dist.tolist())), window, window_leakage(y, t, window)
