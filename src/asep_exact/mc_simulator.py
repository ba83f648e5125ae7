"""Continuous-time Monte Carlo for the same particle dynamics.

Sampling is exact, not discretized: each particle attempts jumps at total
rate 1 (right with probability p, left with q), so the whole system is a
Poisson clock of rate N thinned over particles.  A trial draws the number
of attempts from Poisson(N t), then applies each attempt in order: moves
onto empty sites happen, a mover with the strictly larger species number
swaps with its neighbor, anything else is a no-op.  No-ops are exactly
the uniformization slack, so the trial distribution is the true law at
time t with zero time-step bias.

A run draws from three counter-based Philox streams keyed by its seed:
Philox(key=[seed, 0]) gives every trial's Poisson(N t) attempt count,
Philox(key=[seed, 1]) every attempt's mover, from integers(0, N), and
Philox(key=[seed, 2]) every attempt's direction, rightward when
random() < p.  Trial k takes the next count from the first stream and
the next that many movers and directions from the other two, so a run is
fixed by (seed, trials) and its first k trials are the k-trial run.
The streams are drawn in blocks of at most _BLOCK values: numpy's
poisson, integers and random give the same sequence however their calls
are split, so the block size changes no output and only bounds memory.
Each trial applies its attempts one by one, and its final configuration
is counted in the order of first occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .bethe_algebra import RateParams
from .markov_oracle import Config, _is_int, check_problem, check_seed

_BLOCK = 1 << 14  # values per numpy call on each stream; changes no output
STRAY_MASS_TOL = 1e-4  # observed mass a reference may lack before compare refuses it


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


def _attempt_blocks(movers, directions, n: int, p: float, total: int):
    """The next ``total`` attempts as (mover, step) pairs, step +1 when the
    direction stream's uniform is below p and -1 otherwise, drawn at most
    ``_BLOCK`` at a time from the mover and direction streams."""
    while total > 0:
        size = min(total, _BLOCK)
        total -= size
        yield zip(
            movers.integers(0, n, size=size).tolist(),
            np.where(directions.random(size=size) < p, 1, -1).tolist(),
        )


def _run_trial(y: tuple[int, ...], nu: tuple[int, ...], attempts) -> Config:
    """The configuration reached from (y, nu) by applying each (mover,
    step) attempt in turn: a hop when the target site is empty, a swap
    when the neighbour there has a smaller species, else nothing."""
    sites, species = list(y), list(nu)
    n = len(sites)
    for i, step in attempts:
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
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    trials, seed = int(trials), check_seed(seed)
    # a uint64 key: a list of Python ints above 2**63 would pass through float64
    count_stream, movers, directions = (
        np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        for stream in range(3)
    )
    n, p = len(y), float(rates.p)
    counts: dict[Config, int] = {}
    done = 0
    while done < trials:
        block = count_stream.poisson(n * t, size=min(_BLOCK, trials - done))
        done += block.size
        attempts = chain.from_iterable(
            _attempt_blocks(movers, directions, n, p, int(block.sum()))
        )
        for count in block.tolist():
            cfg = _run_trial(y, nu, islice(attempts, count))
            counts[cfg] = counts.get(cfg, 0) + 1
    return SimulationResult(
        initial_sites=tuple(y),
        initial_species=tuple(nu),
        p=p,
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
) -> ComparisonReport:
    """Binomial z-scores of the empirical counts against reference
    probabilities, checking every cell whose expected count reaches
    min_expected; a cell of reference probability 1 passes only when every
    trial lands in it.  An observed cell missing from the reference with
    empirical mass above STRAY_MASS_TOL means the reference does not
    cover the support and is an error, not a flag."""
    n = result.trials
    stray = {
        cfg: c
        for cfg, c in result.counts.items()
        if cfg not in reference and c / n > STRAY_MASS_TOL
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
        variance = expected * (1 - prob)
        if variance > 0:
            z = (count - expected) / np.sqrt(variance)
            missed = abs(z) > z_threshold
        else:
            # a certain cell (prob >= 1) has no spread: it matches only when
            # every trial lands in it, and a miss has no finite z, so its z
            # is the count deviation itself
            missed = count != n
            z = count - expected if missed else 0.0
        cell = CellCheck(
            sites=cfg[0], species=cfg[1], count=count, expected=expected, z=float(z)
        )
        checked.append(cell)
        if missed:
            flagged.append(cell)
    return ComparisonReport(
        trials=n,
        z_threshold=z_threshold,
        min_expected=min_expected,
        checked=tuple(checked),
        flagged=tuple(flagged),
    )
