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
same draws a fresh Philox(key=[seed, trial]) would give.  Each trial is
then applied attempt by attempt, and its final configuration is counted
in the order of first occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bethe_algebra import RateParams
from .markov_oracle import Config, check_problem


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


def _run_trial(
    y: tuple[int, ...], nu: tuple[int, ...], rates: RateParams, t: float, rng
) -> Config:
    """One trial from rng: its draws in the fixed order Poisson(N t)
    attempts, their movers, their uniforms (rightward when below p), then
    each attempt applied in turn: a hop when the target site is empty, a
    swap when the neighbour there has a smaller species, else nothing."""
    sites, species = list(y), list(nu)
    n = len(sites)
    attempts = int(rng.poisson(n * t))
    if attempts:
        movers = rng.integers(0, n, size=attempts).tolist()
        rightward = (rng.random(size=attempts) < float(rates.p)).tolist()
        for i, right in zip(movers, rightward):
            step = 1 if right else -1
            j = i + step
            if 0 <= j < n and sites[j] == sites[i] + step:
                if species[i] > species[j]:
                    species[i], species[j] = species[j], species[i]
            else:
                sites[i] += step
    return (tuple(sites), tuple(species))


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
    counts: dict[Config, int] = {}
    for trial in range(trials):
        key[1] = trial
        bits.state = state
        cfg = _run_trial(y, nu, rates, t, rng)
        counts[cfg] = counts.get(cfg, 0) + 1
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
