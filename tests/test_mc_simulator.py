"""Uniformized Monte Carlo sampler and its binomial comparison."""

import numpy as np
import pytest

from asep_exact import RateParams, compare, oracle_distribution, simulate
from asep_exact.mc_simulator import _run_trial

R07 = RateParams.from_p(0.7)


def test_simulate_deterministic_under_seed():
    a = simulate((0, 1, 2), (2, 1, 2), R07, 0.4, 2000, 424242)
    b = simulate((0, 1, 2), (2, 1, 2), R07, 0.4, 2000, 424242)
    assert a.counts == b.counts
    # frozen counts for this seed (counter-based streams, order free)
    assert a.counts[((0, 1, 2), (2, 1, 2))] == 951
    assert a.counts[((0, 1, 2), (1, 2, 2))] == 306
    assert a.counts[((0, 1, 3), (2, 1, 2))] == 245


def test_simulate_different_seeds_differ():
    a = simulate((0, 1), (1, 2), R07, 0.5, 500, 1)
    b = simulate((0, 1), (1, 2), R07, 0.5, 500, 2)
    assert a.counts != b.counts


def test_counts_total_and_multiset_conserved():
    result = simulate((0, 2, 3), (1, 2, 1), R07, 0.6, 3000, 9)
    assert sum(result.counts.values()) == 3000
    for sites, species in result.counts:
        assert sorted(species) == [1, 1, 2]
        assert len(set(sites)) == 3
        assert sites == tuple(sorted(sites))


def _reference_trial(y, nu, rates, t, rng):
    """One trial stepped attempt by attempt, with its own draws in the
    order Poisson count, movers, uniforms."""
    sites, species = list(y), list(nu)
    n = len(sites)
    attempts = int(rng.poisson(n * t))
    if attempts:
        movers = rng.integers(0, n, size=attempts)
        rightward = rng.random(size=attempts) < float(rates.p)
        for i, right in zip(movers, rightward):
            step = 1 if right else -1
            j = i + step
            if 0 <= j < n and sites[j] == sites[i] + step:
                if species[i] > species[j]:
                    species[i], species[j] = species[j], species[i]
            else:
                sites[i] += step
    return (tuple(sites), tuple(species))


@pytest.mark.parametrize(
    "y, nu, p, t, trials",
    [
        ((0, 1, 2), (2, 1, 2), 0.7, 0.5, 1061),
        ((0, 1), (1, 2), 0.7, 0.0, 50),
        ((0, 1, 2, 3), (2, 1, 2, 1), 1.0, 0.5, 300),
        ((0,), (1,), 0.5, 2.0, 300),
        ((0, 1, 2, 3), (3, 1, 2, 1), 0.5, 2.0, 300),
        ((0, 1), (1, 10**6), 0.7, 1.0, 300),
        # few long trials: about 2,000 attempts each
        ((0, 1, 2, 3), (2, 1, 2, 1), 0.7, 500.0, 5),
    ],
)
def test_simulate_equals_per_trial_streams(y, nu, p, t, trials):
    # every trial's draws come from a fresh Philox(key=[seed, trial]),
    # so the re-keyed sampler must give the same histogram, cell for cell
    # and in the same first-seen order
    rates = RateParams.from_p(p)
    counts = _reference_counts(y, nu, rates, t, trials, seed=2024, run_trial_upto=20)
    result = simulate(y, nu, rates, t, trials, 2024)
    assert list(result.counts.items()) == list(counts.items())


def _reference_counts(y, nu, rates, t, trials, seed, run_trial_upto=0):
    """Histogram of per-trial reference runs in first-seen order; the
    first run_trial_upto trials are also checked through _run_trial."""
    counts = {}
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=[seed, trial]))
        cfg = _reference_trial(y, nu, rates, t, rng)
        counts[cfg] = counts.get(cfg, 0) + 1
        if trial < run_trial_upto:
            rng = np.random.Generator(np.random.Philox(key=[seed, trial]))
            assert _run_trial(y, nu, rates, t, rng) == cfg
    return counts


def test_run_trial_zero_time_is_identity():
    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    assert _run_trial((0, 1), (1, 2), R07, 0.0, rng) == ((0, 1), (1, 2))


def test_compare_against_oracle_passes():
    result = simulate((0, 1), (2, 1), R07, 0.5, 20000, 77)
    reference, _, _ = oracle_distribution((0, 1), (2, 1), R07, 0.5)
    report = compare(result, reference)
    assert report.passed
    assert report.max_abs_z < 4.0
    assert len(report.checked) >= 3  # several cells clear the 25-count floor
    for cell in report.checked:
        assert cell.expected >= 25.0


def test_compare_flags_wrong_reference():
    result = simulate((0, 1), (2, 1), R07, 0.5, 20000, 77)
    reference, _, _ = oracle_distribution((0, 1), (2, 1), R07, 0.5)
    # corrupt the biggest cell by a factor well past any 4 sigma band
    key = max(reference, key=reference.get)
    bad = dict(reference)
    bad[key] = reference[key] * 0.8
    report = compare(result, bad)
    assert not report.passed
    assert any((c.sites, c.species) == key for c in report.flagged)


def test_compare_rejects_stray_mass():
    result = simulate((0, 1), (2, 1), R07, 0.5, 5000, 3)
    # reference that claims the walk never moves: most observed cells are
    # then unexplained, which is an input error, not a statistics failure
    with pytest.raises(ValueError):
        compare(result, {((0, 1), (2, 1)): 1.0})


def test_compare_threshold_knobs():
    result = simulate((0, 1), (2, 1), R07, 0.5, 20000, 77)
    reference, _, _ = oracle_distribution((0, 1), (2, 1), R07, 0.5)
    strict = compare(result, reference, z_threshold=1e-9)
    assert not strict.passed  # any real sample shows some deviation
    shallow = compare(result, reference, min_expected=1e9)
    assert shallow.passed and not shallow.checked
