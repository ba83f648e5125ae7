"""Finite-window generator oracle: the independent ground truth."""

import itertools
import math
import re

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse import diags as sparse_diags

from asep_exact import (
    RateParams,
    StateSpace,
    build_generator,
    delta_recovery,
    distribution_over_window,
    oracle_distribution,
    sigma_summand,
    simulate,
    single_particle_series,
    transition_probability,
    window_for,
)
from asep_exact.markov_oracle import (
    check_config,
    leakage_bound,
    poisson_tail,
)

R07 = RateParams.from_p(0.7)
R05 = RateParams.from_p(0.5)


def single_step_moves(config, rates):
    """All one-jump successors of one state with their rates (rates merged
    when a swap is reachable from both sides of the pair): the per-state
    reference for ``build_generator``."""
    sites, species = config
    check_config(sites, species)
    occupied = {x: i for i, x in enumerate(sites)}
    out = {}

    def add(new_sites, new_species, rate):
        key = (tuple(new_sites), tuple(new_species))
        out[key] = out.get(key, 0.0) + rate

    p, q = float(rates.p), float(rates.q)
    for i, x in enumerate(sites):
        for step, rate in ((1, p), (-1, q)):
            if rate == 0:
                continue
            target = x + step
            if target not in occupied:
                new_sites = list(sites)
                new_sites[i] = target
                add(sorted(new_sites), species, rate)
            else:
                j = occupied[target]
                if species[i] > species[j]:
                    new_species = list(species)
                    new_species[i], new_species[j] = new_species[j], new_species[i]
                    add(sites, new_species, rate)
    return out


def test_check_config_rejects_bad_input():
    with pytest.raises(ValueError):
        check_config((1, 1), (1, 2))
    with pytest.raises(ValueError):
        check_config((2, 1), (1, 2))
    with pytest.raises(ValueError):
        check_config((0, 1), (1,))
    with pytest.raises(ValueError):
        check_config((0, 1), (1, 0))
    with pytest.raises(ValueError, match=r"strictly increasing, got \(2, 1\)"):
        check_config(np.array([[0, 1], [2, 1], [3, 0]]), np.ones((3, 2), np.int64))


def test_single_step_moves_blocking_and_priority():
    # lower species blocked by higher neighbor; higher swaps with lower
    moves = single_step_moves(((0, 1), (1, 2)), R07)
    assert moves == {
        ((-1, 1), (1, 2)): pytest.approx(0.3),  # left hop of the 1
        ((0, 1), (2, 1)): pytest.approx(0.3),  # the 2 swaps leftward
        ((0, 2), (1, 2)): pytest.approx(0.7),  # the 2 hops right
    }
    moves = single_step_moves(((0, 1), (2, 1)), R07)
    assert moves == {
        ((-1, 1), (2, 1)): pytest.approx(0.3),
        ((0, 1), (1, 2)): pytest.approx(0.7),  # the 2 swaps rightward
        ((0, 2), (2, 1)): pytest.approx(0.7),
    }


def test_single_step_moves_single_species_exclusion():
    moves = single_step_moves(((0, 1), (1, 1)), R07)
    # no swap between equals: only the outer hops survive
    assert moves == {
        ((-1, 1), (1, 1)): pytest.approx(0.3),
        ((0, 2), (1, 1)): pytest.approx(0.7),
    }


def _states(space):
    """The space's states as (sites, species) tuples, in state order."""
    return [
        (tuple(sites), species)
        for sites in space.sites.tolist()
        for species in space.orbit
    ]


def test_state_space_indexing():
    space = StateSpace.build((-1, 2), 2, (2, 1))
    # 4 sites choose 2, times the 2 arrangements of (1, 2)
    assert space.orbit == ((1, 2), (2, 1))
    assert space.sites.dtype == np.int64
    site_sets = itertools.combinations(range(-1, 3), 2)
    assert space.sites.tolist() == [list(c) for c in site_sets]
    states = _states(space)
    assert len(states) == 12
    # sites-then-species lexicographic order, each state once
    assert states == sorted(set(states))
    assert space.configs() == states
    # a window narrower than the particle count holds no state
    empty = StateSpace.build((3, 3), 2, (1, 2))
    assert empty.sites.shape == (0, 2)
    assert empty.configs() == []
    assert [s.batch().tolist() for s in (space, empty)] == [
        np.array(s.configs()).tolist() for s in (space, empty)
    ]


def test_generator_conserves_window_mass():
    # boundary-crossing moves are censored (dropped from the diagonal
    # too), so every row sums to zero and the window law stays a law
    space = StateSpace.build((-2, 3), 2, (2, 1))
    gen = build_generator(space, R07)
    sums = np.asarray(gen.sum(axis=1)).ravel()
    assert np.max(np.abs(sums)) <= 1e-14
    off_diagonal = gen - sparse_diags(gen.diagonal())
    assert off_diagonal.min() >= 0.0


def _generator_from_moves(space, rates):
    """Q assembled state by state from single_step_moves: the reference
    for the array-built generator."""
    lo, hi = space.window
    states = _states(space)
    index = {config: k for k, config in enumerate(states)}
    rows, cols, vals = [], [], []
    for k, config in enumerate(states):
        total = 0.0
        for (sites, species), rate in single_step_moves(config, rates).items():
            if sites[0] < lo or sites[-1] > hi:
                continue
            rows.append(k)
            cols.append(index[(sites, species)])
            vals.append(rate)
            total += rate
        rows.append(k)
        cols.append(k)
        vals.append(-total)
    m = len(states)
    return csr_matrix((vals, (rows, cols)), shape=(m, m))


@pytest.mark.parametrize("p", [0.5, 0.7, 1.0])
@pytest.mark.parametrize(
    "y, nu, window",
    [
        ((0,), (1,), None),
        ((0, 1), (1, 1), None),
        ((0, 2), (2, 1), None),
        ((0, 1, 3), (1, 1, 1), None),
        ((0, 1, 3), (3, 1, 2), None),
        ((0, 1, 2, 3), (1, 1, 1, 1), (-2, 6)),
        ((0, 1, 2, 3), (2, 1, 2, 1), (-2, 6)),
        ((0, 1, 2, 3), (3, 1, 2, 1), (-1, 5)),
        ((0, 1, 2, 3), (3, 1, 2, 1), (0, 3)),
    ],
)
def test_generator_equals_per_state_assembly(y, nu, window, p):
    # leak-controlled windows up to N = 3; at N = 4 windows far narrower
    # than the leakage bound asks for, down to one site set, so censoring
    # at both edges is hit on most states
    rates = RateParams.from_p(p)
    window = window or window_for(y, 0.2)
    space = StateSpace.build(window, len(y), nu)
    gen = build_generator(space, rates)
    ref = _generator_from_moves(space, rates)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(gen, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_generator_rejects_keys_beyond_int64():
    # 2^40 sites per coordinate: two coordinates need 2^80 > 2^63 keys.
    # Raised before a single state is enumerated
    with pytest.raises(ValueError, match="int64"):
        StateSpace.build((0, 2**40), 2, (1, 1))


def test_state_space_refuses_huge_spaces_before_enumerating():
    # 1,333,333,000 site sets times 3 species orders: refused by count,
    # before the site array (30 GiB) is allocated
    with pytest.raises(ValueError, match="3,999,999,000 states"):
        StateSpace.build((-1000, 1000), 3, (1, 2, 1))
    # only 15,504 site sets, but keys up to 20^15 > 2^63
    with pytest.raises(ValueError, match="int64"):
        StateSpace.build((0, 19), 15, (1,) * 15)


def test_generator_rejects_incomplete_state_space():
    # the hop (0, 1) -> (0, 2) lands on a state the space does not list
    space = StateSpace(window=(0, 2), orbit=((1, 1),), sites=np.array([[0, 1]]))
    with pytest.raises(ValueError, match="missing"):
        build_generator(space, R07)


def test_oracle_distribution_masses():
    dist, window, leak = oracle_distribution((0, 1), (2, 1), R07, 0.5)
    assert leak <= 1e-10
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    # frozen from this oracle at window (-11, 12)
    assert dist[((0, 1), (2, 1))] == pytest.approx(0.4616951307536925, abs=1e-12)
    assert dist[((1, 2), (1, 2))] == pytest.approx(0.006553123112566022, abs=1e-12)
    assert dist[((-1, 1), (1, 2))] == pytest.approx(0.011933660079470852, abs=1e-12)


def test_oracle_zero_time_is_point_mass():
    dist, _, _ = oracle_distribution((0, 2), (1, 2), R07, 0.0, window=(-2, 4))
    assert dist[((0, 2), (1, 2))] == pytest.approx(1.0, abs=1e-14)


def test_window_without_a_move_keeps_the_point_mass():
    # at p = 1 the one state of the window (0, 1) cannot move inside it:
    # the uniformization rate is 0 and the start comes back as it is
    dist, _, _ = oracle_distribution(
        (0, 1), (1, 1), RateParams.from_p(1), 1.0, window=(0, 1)
    )
    assert dist == {((0, 1), (1, 1)): 1.0}


def test_single_particle_series_at_time_zero_is_a_point_mass():
    assert [single_particle_series(d, R07, 0) for d in (-2, 0, 3)] == [0.0, 1.0, 0.0]


def test_single_particle_series_against_generator():
    for t in (0.3, 1.0):
        dist, _, _ = oracle_distribution((0,), (1,), R07, t)
        for (sites, _), mass in dist.items():
            if mass >= 1e-12:
                series = single_particle_series(sites[0], R07, t)
                assert series == pytest.approx(mass, abs=2e-11)


def test_single_particle_series_frozen_values():
    assert single_particle_series(2, R07, 1.0) == pytest.approx(
        0.09660754924524399, rel=1e-13
    )
    assert single_particle_series(-3, R07, 1.0) == pytest.approx(
        0.0017442155989892674, rel=1e-13
    )
    assert single_particle_series(0, R05, 2.0) == pytest.approx(
        0.30850832255367105, rel=1e-13
    )


def test_single_particle_series_one_sided():
    tasep = RateParams.from_p(1.0)
    # pure right drift: Poisson jumps, no leftward mass
    assert single_particle_series(-1, tasep, 1.0) == 0.0
    assert single_particle_series(2, tasep, 1.0) == pytest.approx(
        np.exp(-1.0) / 2, rel=1e-13
    )


def test_single_particle_series_refuses_a_displacement_off_the_integers():
    # not read as 1, 1 and 2
    for d in (1.5, True, "2"):
        named = re.escape(f"displacement must be an integer, got {d!r}")
        with pytest.raises(ValueError, match=named):
            single_particle_series(d, R07, 1.0)


def test_oracle_refuses_a_time_whose_first_poisson_weight_underflows():
    # exp(-lambda t) leaves the normal floats past lambda t = 708.4 (lambda
    # = p + q = 1 for one particle); below that the oracle still matches
    # the series
    for t in (720, 800):
        with pytest.raises(ValueError, match=f"underflows at t = {t}: lambda t = {t} exceeds"):
            oracle_distribution((0,), (1,), R07, t)
    dist, _, _ = oracle_distribution((0,), (1,), R07, 700)
    worst = max(abs(mass - single_particle_series(sites[0], R07, 700))
                for (sites, _), mass in dist.items())
    assert worst <= 1e-13


def test_empty_start_is_refused_by_name():
    calls = [
        lambda: transition_probability((), (), (), (), R07, 0.5),
        lambda: distribution_over_window((), (), R07, 0.5),
        lambda: delta_recovery((), (), R07),
        lambda: oracle_distribution((), (), R07, 0.5),
        lambda: simulate((), (), R07, 0.5, 10, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="the start is empty"):
            call()


def test_window_for_controls_leakage():
    y = (0, 1, 2)
    window = window_for(y, 1.0, 1e-10)
    lo, hi = window
    assert lo < 0 and hi > 2
    delta = min(y[0] - lo, hi - y[-1])
    assert leakage_bound(len(y), 1.0, delta) <= 1e-10


def test_negative_time_names_t():
    # with or without an explicit window, a negative or non-finite time is
    # a ValueError about t, not a search for a window that cannot exist, a
    # silent nan or an empty distribution; True is not read as t = 1
    for t in (-0.3, math.nan, math.inf, True, np.True_):
        named = f"got t = {t}"
        with pytest.raises(ValueError, match=named):
            window_for((0, 1), t)
        with pytest.raises(ValueError, match=named):
            transition_probability((0, 1), (1, 2), (0, 1), (1, 2), R05, t)
        with pytest.raises(ValueError, match=named):
            distribution_over_window((0, 1), (1, 2), R05, t)
        with pytest.raises(ValueError, match=named):
            distribution_over_window((0, 1), (1, 2), R05, t, window=(-2, 3))
        for window in (None, (-2, 3)):
            with pytest.raises(ValueError, match=named):
                oracle_distribution((0, 1), (1, 2), R05, t, window=window)
        with pytest.raises(ValueError, match=named):
            simulate((0, 1), (1, 2), R05, t, 10, 1)
        # a single summand goes through the same engine entry point
        with pytest.raises(ValueError, match=named):
            sigma_summand((0, 1), (0, 1), (2, 1), R07, t)
        with pytest.raises(ValueError, match=named):
            single_particle_series(1, R05, t)


@pytest.mark.parametrize("y, nu", [((0, 1.9), (1, 1)), ((0, 1), (1.0, 1)), ((0, True), (1, 1))])
def test_start_off_the_integers_is_refused(y, nu):
    # a site or species that is not an integer (a bool included) is refused
    # before any entry point reads it, not truncated to a wrong number
    named = "start sites and species must be integers"
    with pytest.raises(ValueError, match=named):
        transition_probability(y, nu, (1, 2), (1, 1), R07, 0.5)
    with pytest.raises(ValueError, match=named):
        distribution_over_window(y, nu, R07, 0.5)
    with pytest.raises(ValueError, match=named):
        delta_recovery(y, nu, R07)
    with pytest.raises(ValueError, match=named):
        oracle_distribution(y, nu, R07, 0.5)
    with pytest.raises(ValueError, match=named):
        simulate(y, nu, R07, 0.5, 10, 1)


def test_poisson_tail_is_scipy_stats_survival_function():
    # scipy.special.pdtrc is what poisson.sf calls; the library imports it
    # alone to keep scipy.stats out of every process
    from scipy.stats import poisson

    for t in np.logspace(-6, 2, 41):
        for delta in range(1, 400, 7):
            assert poisson_tail(float(t), delta) == float(poisson.sf(delta - 1, float(t)))


@pytest.mark.parametrize("window", [(4, -3), (-3.5, 4), (-3, True)])
def test_window_off_the_integers_or_reversed_is_refused(window):
    # a reversed window held no state and returned mass 0 silently, a float
    # one failed in range(), and True was read as 1
    named = re.escape(f"window {window} is not two integers lo <= hi")
    with pytest.raises(ValueError, match=named):
        StateSpace.build(window, 2, (1, 1))
    with pytest.raises(ValueError, match=named):
        distribution_over_window((0, 1), (1, 1), R07, 0.5, window=window)
    with pytest.raises(ValueError, match=named):
        oracle_distribution((0, 1), (1, 1), R07, 0.5, window=window)


def test_window_narrower_than_the_particles_stays_empty():
    # legal and empty: it leaves the start out, so its leakage bound is 1
    report = distribution_over_window((0, 1), (1, 1), R07, 0.5, window=(3, 3))
    assert report.values == () and report.leakage == 1.0


@pytest.mark.parametrize("margin", [1.5, True, -1])
def test_margin_off_the_nonnegative_integers_is_refused(margin):
    with pytest.raises(ValueError, match=f"margin must be a nonnegative integer, got {margin}"):
        delta_recovery((0, 1), (1, 1), R07, margin=margin)


@pytest.mark.parametrize("leak_tol", [float("nan"), 0.0, -1.0, True, math.inf, "1e-10"])
def test_leak_tol_that_bounds_nothing_is_refused(leak_tol):
    # nan bounded nothing, 0 drove the window out to 128 sites, -1
    # searched 10,000 sites before it was refused, and True was read as
    # leak_tol = 1
    named = re.escape(f"leak_tol must be a finite positive number, got leak_tol = {leak_tol!r}")
    with pytest.raises(ValueError, match=named):
        window_for((0, 1), 0.5, leak_tol)
    with pytest.raises(ValueError, match=named):
        distribution_over_window((0, 1), (1, 1), R07, 0.5, leak_tol=leak_tol)
    with pytest.raises(ValueError, match=named):
        oracle_distribution((0, 1), (1, 1), R07, 0.5, leak_tol=leak_tol)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, True, math.inf])
def test_delta_tolerance_off_the_positive_numbers_is_refused(tol):
    # True passed every check, and nan or -1 failed every one silently
    named = re.escape(f"tol must be a finite positive number, got tol = {tol!r}")
    with pytest.raises(ValueError, match=named):
        delta_recovery((0, 1), (1, 1), R07, tol=tol)
