"""Uniformized Monte Carlo sampler and its binomial comparison."""

import numpy as np
import pytest

from asep_exact import RateParams, compare, oracle_distribution, simulate
from asep_exact import mc_simulator
from asep_exact.mc_simulator import _run_trial

R07 = RateParams.from_p(0.7)


def test_simulate_deterministic_under_seed():
    a = simulate((0, 1, 2), (2, 1, 2), R07, 0.4, 2000, 424242)
    b = simulate((0, 1, 2), (2, 1, 2), R07, 0.4, 2000, 424242)
    assert a.counts == b.counts
    # frozen counts for this seed (three Philox streams keyed [seed, 0..2])
    assert a.counts[((0, 1, 2), (2, 1, 2))] == 964
    assert a.counts[((0, 1, 2), (1, 2, 2))] == 304
    assert a.counts[((0, 1, 3), (2, 1, 2))] == 232


def test_simulate_different_seeds_differ():
    a = simulate((0, 1), (1, 2), R07, 0.5, 500, 1)
    b = simulate((0, 1), (1, 2), R07, 0.5, 500, 2)
    assert a.counts != b.counts


def test_seeds_above_2_63_keep_their_own_streams():
    # a key built from a list of Python ints goes through float64 above
    # 2**63, which made 2**64 - 1 the key of seed 0
    runs = [simulate((0, 1), (1, 2), R07, 0.5, 500, s).counts
            for s in (0, 2**63 + 1, 2**63 + 2, 2**64 - 1)]
    assert all(runs[i] != runs[j] for i in range(4) for j in range(i))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "1", None])
def test_simulate_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        simulate((0, 1), (1, 2), R07, 0.5, 10, seed)


@pytest.mark.parametrize("trials", [0, -3, True, 2.0, "10"])
def test_simulate_rejects_bad_trials(trials):
    with pytest.raises(ValueError, match="trials must be a positive integer"):
        simulate((0, 1), (1, 2), R07, 0.5, trials, 1)


def test_counts_total_and_multiset_conserved():
    result = simulate((0, 2, 3), (1, 2, 1), R07, 0.6, 3000, 9)
    assert sum(result.counts.values()) == 3000
    for sites, species in result.counts:
        assert sorted(species) == [1, 1, 2]
        assert len(set(sites)) == 3
        assert sites == tuple(sorted(sites))


def _reference_trials(y, nu, rates, t, trials, seed):
    """Every trial's final configuration, in trial order, from one numpy
    call per stream: all Poisson counts from Philox(key=[seed, 0]), all
    movers from [seed, 1] and all direction uniforms from [seed, 2];
    trial k steps through the next count_k movers and directions."""
    n = len(y)

    def stream(k):
        return np.random.Generator(np.random.Philox(key=[seed, k]))

    attempts = stream(0).poisson(n * t, size=trials)
    total = int(attempts.sum())
    movers = stream(1).integers(0, n, size=total)
    rightward = stream(2).random(size=total) < float(rates.p)
    finals, start = [], 0
    for count in attempts:
        sites, species = list(y), list(nu)
        for i, right in zip(movers[start:start + count], rightward[start:start + count]):
            i = int(i)
            step = 1 if right else -1
            j = i + step
            if 0 <= j < n and sites[j] == sites[i] + step:
                if species[i] > species[j]:
                    species[i], species[j] = species[j], species[i]
            else:
                sites[i] += step
        start += count
        finals.append((tuple(sites), tuple(species)))
    return finals


def _histogram(finals):
    counts = {}
    for cfg in finals:
        counts[cfg] = counts.get(cfg, 0) + 1
    return counts


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
    # the block-drawn sampler must give the histogram of the one-call
    # reference, cell for cell and in the same first-seen order
    rates = RateParams.from_p(p)
    finals = _reference_trials(y, nu, rates, t, trials, seed=2024)
    result = simulate(y, nu, rates, t, trials, 2024)
    assert list(result.counts.items()) == list(_histogram(finals).items())


def test_first_trials_of_a_run_are_the_shorter_run():
    y, nu = (0, 1, 2), (2, 1, 2)
    finals = _reference_trials(y, nu, R07, 0.5, 1061, seed=31)
    for trials in (1, 300, 1061):
        result = simulate(y, nu, R07, 0.5, trials, 31)
        assert list(result.counts.items()) == list(_histogram(finals[:trials]).items())


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize(
    "y, nu, t, trials",
    [((0, 1, 2), (2, 1, 2), 0.5, 1061), ((0, 1, 2, 3), (2, 1, 2, 1), 500.0, 5)],
)
def test_block_size_changes_no_output(y, nu, t, trials, block, monkeypatch):
    expected = simulate(y, nu, R07, t, trials, 2024)
    monkeypatch.setattr(mc_simulator, "_BLOCK", block)
    result = simulate(y, nu, R07, t, trials, 2024)
    assert list(result.counts.items()) == list(expected.counts.items())


def test_run_trial_zero_time_is_identity():
    assert _run_trial((0, 1), (1, 2), ()) == ((0, 1), (1, 2))
    result = simulate((0, 1), (1, 2), R07, 0.0, 50, 3)
    assert result.counts == {((0, 1), (1, 2)): 50}


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


def test_compare_certain_cell_is_flagged_when_a_trial_misses_it():
    # a reference probability of 1 has no binomial spread: a miss is a
    # flag with a finite z, not 0/0
    result = simulate((0, 1), (2, 1), R07, 0.01, 1000, 3)
    start = ((0, 1), (2, 1))
    moved = result.trials - result.counts[start]
    assert moved > 0
    reference = dict.fromkeys(result.counts, 0.0) | {start: 1.0}
    report = compare(result, reference)
    [cell] = report.checked
    assert report.flagged == (cell,) and cell.z == -moved


def test_compare_threshold_knobs():
    result = simulate((0, 1), (2, 1), R07, 0.5, 20000, 77)
    reference, _, _ = oracle_distribution((0, 1), (2, 1), R07, 0.5)
    strict = compare(result, reference, z_threshold=1e-9)
    assert not strict.passed  # any real sample shows some deviation
    shallow = compare(result, reference, min_expected=1e9)
    assert shallow.passed and not shallow.checked
    # a bool is not read as 1, and nan would check or flag nothing
    for knob in ("z_threshold", "min_expected"):
        for value in (True, float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError, match=f"{knob} must be a finite positive number, got {knob} = {value}"):
                compare(result, reference, **{knob: value})
