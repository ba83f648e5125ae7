"""Continuous-time Monte Carlo for the same particle dynamics.

Sampling is exact, not discretized: each particle attempts jumps at total
rate 1 (right with probability p, left with q), so the whole system is a
Poisson clock of rate N thinned over particles.  A trial draws the number
of attempts from Poisson(N t), then applies each attempt in order: moves
onto empty sites happen, a mover with the strictly larger species number
swaps with its neighbor, anything else is a no-op.  No-ops are exactly
the uniformization slack, so the trial distribution is the true law at
time t with zero time-step bias.

Each trial gets its own counter-mode stream keyed by (seed, trial index),
which makes runs reproducible bit for bit and independent of trial order
or batching.  Philox is counter-based, so one bit generator serves every
trial: it is re-keyed to (seed, trial) through its state setter, and the
trial's Poisson count, movers and uniforms are drawn in that order, the
same draws a fresh Philox(key=[seed, trial]) would give.  The attempts of
a block of trials are then applied together on padded arrays, and the
block's final configurations are counted as unique rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bethe_algebra import RateParams
from .markov_oracle import Config, check_problem

# A block of trials, whose attempts are applied together, closes at
# BLOCK_TRIALS trials or once its padded arrays (trials times the longest
# trial's attempts) reach BLOCK_CELLS, so a block holds a bounded number of
# attempts unless one trial alone exceeds it.
BLOCK_TRIALS = 1024
BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class SimulationResult:
    initial_sites: tuple[int, ...]
    initial_species: tuple[int, ...]
    p: float
    time: float
    trials: int
    seed: int
    counts: dict[Config, int]


@dataclass(frozen=True)
class CellCheck:
    sites: tuple[int, ...]
    species: tuple[int, ...]
    count: int
    expected: float
    z: float


@dataclass(frozen=True)
class ComparisonReport:
    trials: int
    z_threshold: float
    min_expected: float
    checked: tuple[CellCheck, ...]
    flagged: tuple[CellCheck, ...]

    @property
    def passed(self) -> bool:
        return not self.flagged

    @property
    def max_abs_z(self) -> float:
        return max((abs(c.z) for c in self.checked), default=0.0)


_NO_ATTEMPTS = (np.empty(0, np.int64), np.empty(0))


def _draw(rng, n: int, t: float):
    """One trial's draws from rng, in the fixed order Poisson(N t)
    attempts, their movers, their uniforms (rightward when below p)."""
    attempts = int(rng.poisson(n * t))
    if not attempts:
        return _NO_ATTEMPTS
    movers = rng.integers(0, n, size=attempts)
    return movers, rng.random(size=attempts)


def _run_block(y, nu, p: float, draws) -> tuple[np.ndarray, np.ndarray]:
    """Apply the attempts of a block of trials, all trials at once.

    ``draws`` holds one (movers, uniforms) pair per trial.  They are
    padded to the longest trial; attempt k of every trial that has one is
    applied in one array step: a hop when the target site is empty, a
    swap when the neighbour there has a smaller species, else nothing.
    Returns the final (trials, N) site and species arrays.
    """
    trials, n = len(draws), len(y)
    lengths = np.array([len(movers) for movers, _ in draws])
    padded = np.arange(lengths.max(initial=0)) < lengths[:, None]
    movers = np.zeros(padded.shape, np.int64)
    step = np.zeros(padded.shape, np.int64)
    movers[padded] = np.concatenate([m for m, _ in draws])
    step[padded] = np.where(np.concatenate([u for _, u in draws]) < p, 1, -1)
    # flat positions in the (trials, N) arrays of each mover and of the
    # neighbour on its side; with no neighbour there (the end of the line,
    # or a padding step of 0) the mover stands in for it, which never
    # blocks a real step and always blocks a padding one without a swap
    beside = movers + step
    row = np.arange(0, trials * n, n)[:, None]
    neighbour = row + np.where((beside >= 0) & (beside < n), beside, movers)
    movers += row
    sites = np.tile(np.asarray(y, np.int64), trials)
    species = np.tile(np.asarray(nu, np.int64), trials)
    for i, k, s in zip(movers.T, neighbour.T, step.T):
        here = sites[i]
        target = here + s
        occupied = sites[k] == target
        sites[i] = np.where(occupied, here, target)
        mine, theirs = species[i], species[k]
        swap = occupied & (mine > theirs)
        species[i] = np.where(swap, theirs, mine)
        species[k] = np.where(swap, mine, theirs)
    return sites.reshape(trials, n), species.reshape(trials, n)


def run_trial(
    y: tuple[int, ...], nu: tuple[int, ...], rates: RateParams, t: float, rng
) -> Config:
    sites, species = _run_block(y, nu, float(rates.p), [_draw(rng, len(y), t)])
    return (tuple(sites[0].tolist()), tuple(species[0].tolist()))


def _count_rows(counts: dict, sites: np.ndarray, species: np.ndarray) -> None:
    """Add each final configuration of a block to counts, in the order of
    first occurrence."""
    rows = np.concatenate([sites, species], axis=1)
    _, first, number = np.unique(rows, axis=0, return_index=True, return_counts=True)
    for k in np.argsort(first):
        cfg = (tuple(sites[first[k]].tolist()), tuple(species[first[k]].tolist()))
        counts[cfg] = counts.get(cfg, 0) + int(number[k])


def simulate(
    y: tuple[int, ...],
    nu: tuple[int, ...],
    rates: RateParams,
    t: float,
    trials: int,
    seed: int,
) -> SimulationResult:
    check_problem(y, nu, t)
    if trials < 1:
        raise ValueError("trials must be positive")
    bits = np.random.Philox(key=[seed, 0])
    rng = np.random.Generator(bits)
    state = bits.state
    key = state["state"]["key"]
    n, p = len(y), float(rates.p)
    counts: dict[Config, int] = {}
    draws, longest = [], 0
    for trial in range(trials):
        key[1] = trial
        bits.state = state
        draws.append(_draw(rng, n, t))
        longest = max(longest, len(draws[-1][0]))
        if (
            len(draws) == BLOCK_TRIALS
            or len(draws) * longest >= BLOCK_CELLS
            or trial == trials - 1
        ):
            _count_rows(counts, *_run_block(y, nu, p, draws))
            draws, longest = [], 0
    return SimulationResult(
        initial_sites=tuple(y),
        initial_species=tuple(nu),
        p=float(rates.p),
        time=float(t),
        trials=trials,
        seed=seed,
        counts=counts,
    )


def compare(
    result: SimulationResult,
    reference: dict[Config, float],
    z_threshold: float = 4.0,
    min_expected: float = 25.0,
    stray_mass_tol: float = 1e-4,
) -> ComparisonReport:
    """Binomial z-scores of the empirical counts against reference
    probabilities, checking every cell whose expected count reaches
    min_expected.  An observed cell missing from the reference with
    empirical mass above stray_mass_tol means the reference does not
    cover the support and is an error, not a flag."""
    n = result.trials
    stray = {
        cfg: c
        for cfg, c in result.counts.items()
        if cfg not in reference and c / n > stray_mass_tol
    }
    if stray:
        worst = max(stray.items(), key=lambda kv: kv[1])
        raise ValueError(
            f"{len(stray)} observed cells missing from the reference, "
            f"e.g. {worst[0]} with {worst[1]} counts"
        )
    checked = []
    flagged = []
    for cfg, prob in sorted(reference.items()):
        expected = n * prob
        if expected < min_expected:
            continue
        count = result.counts.get(cfg, 0)
        z = (count - expected) / np.sqrt(expected * (1 - prob))
        cell = CellCheck(
            sites=cfg[0], species=cfg[1], count=count, expected=expected, z=float(z)
        )
        checked.append(cell)
        if abs(z) > z_threshold:
            flagged.append(cell)
    return ComparisonReport(
        trials=n,
        z_threshold=z_threshold,
        min_expected=min_expected,
        checked=tuple(checked),
        flagged=tuple(flagged),
    )
