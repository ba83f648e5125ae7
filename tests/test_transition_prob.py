"""Contour-sum engine against the generator oracle and its own identities.

The heavy sweeps live in test_acceptance; these cases are the small
fast ones that pin each code path.
"""

import warnings
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.fft

from asep_exact import (
    ContourSpec,
    Quadrature,
    RateParams,
    StateSpace,
    delta_recovery,
    distribution_over_window,
    inversion_class_sum,
    master_equation_residual,
    oracle_distribution,
    sigma_summand,
    single_particle_series,
    single_species_probability,
    species_orbit,
    transition_probabilities,
    transition_probability,
)
from asep_exact import contour_quadrature, species_coeff, transition_prob
from asep_exact.bethe_algebra import amplitude, s_factor
from asep_exact.contour_quadrature import axis_view, node_points
from asep_exact.permutations import all_permutations, inversion_classes
from asep_exact.species_coeff import coefficient_table

R07 = RateParams.from_p(0.7)
R05 = RateParams.from_p(0.5)
TASEP = RateParams.from_p(1.0)


def test_single_particle_matches_series():
    for x in (-3, 0, 2):
        value = transition_probability((0,), (1,), (x,), (1,), R07, 1.0)
        assert value == pytest.approx(
            single_particle_series(x, R07, 1.0), abs=1e-12
        )


def test_two_particle_matches_oracle_frozen():
    rates = RateParams.from_p(F(7, 10))
    # frozen from the finite-window generator oracle at leak 1e-10
    cases = {
        ((0, 1), (2, 1)): 0.4616951307536925,
        ((1, 2), (1, 2)): 0.006553123112566022,
        ((-1, 1), (1, 2)): 0.011933660079470852,
        ((0, 2), (2, 1)): 0.14760094526670547,
    }
    targets = list(cases)
    values = transition_probabilities((0, 1), (2, 1), targets, rates, 0.5)
    for tv, (key, expect) in zip(values, cases.items()):
        assert (tv.sites, tv.species) == key
        assert tv.value == pytest.approx(expect, abs=5e-11)


def test_delta_recovery_small():
    rep = delta_recovery((0, 2, 5), (1, 2, 1), R07)
    assert rep.passed
    assert rep.max_residual <= 1e-10


def test_delta_recovery_fails_at_slab_budget(monkeypatch):
    # 1040 nodes are past the node cap: the report comes back failed at
    # 520 nodes, where a ContourSpec of 1040 nodes used to be refused
    rep = delta_recovery((0, 1), (1, 1), R07, tol=1e-300, spec=ContourSpec(nodes=520))
    assert not rep.passed and rep.quadrature.nodes == 520
    # doubling 8 -> 16 nodes would exceed the K^(N-1) slab budget: the
    # report comes back failed at 8 nodes instead of raising
    monkeypatch.setattr(contour_quadrature, "MAX_SLAB_POINTS", 8**2)
    spec = ContourSpec(nodes=8, dimension=3)
    rep = delta_recovery((0, 2, 5), (1, 2, 1), R07, tol=1e-12, spec=spec)
    assert not rep.passed
    assert rep.quadrature.nodes == 8
    assert rep.max_residual > 1e-12


def test_delta_recovery_rejects_negative_margin():
    # a negative margin leaves the start out of the window: zero targets
    # would pass vacuously
    with pytest.raises(ValueError, match="margin"):
        delta_recovery((0, 1), (1, 1), R07, margin=-1)


def test_delta_recovery_single_species_tasep():
    rep = delta_recovery((0, 1), (1, 1), TASEP)
    assert rep.passed


def test_distribution_window_mass_and_agreement():
    report = distribution_over_window((0, 1), (2, 1), R05, 0.4)
    assert report.total_mass == pytest.approx(1.0, abs=1e-9)
    # mass-bearing targets are far inside 1e-9; the tails are pinned by
    # test_whole_window_matches_oracle
    oracle, _, _ = oracle_distribution((0, 1), (2, 1), R05, 0.4)
    for tv in report.values:
        expect = oracle.get((tv.sites, tv.species), 0.0)
        if expect >= 1e-8:
            assert tv.value == pytest.approx(expect, abs=1e-9)
        else:
            assert abs(tv.value - expect) < 1e-6


@pytest.mark.parametrize(
    "y, nu, p, t",
    [((0, 1), nu, p, 1.0) for nu in ((2, 1), (1, 1)) for p in (0.5, 0.7, 1.0)]
    + [((0, 1, 2), (2, 1, 2), 0.5, 0.2)],
)
def test_whole_window_matches_oracle(y, nu, p, t):
    # every target of the window, far tails included: left-displaced
    # targets come from the mirrored lattice with their own radius
    rates = RateParams.from_p(p)
    oracle, window, _ = oracle_distribution(y, nu, rates, t, leak_tol=1e-10)
    report = distribution_over_window(y, nu, rates, t, window=window)
    worst = max(
        abs(tv.value - oracle.get((tv.sites, tv.species), 0.0)) for tv in report.values
    )
    assert worst <= 1e-8
    assert abs(report.total_mass - 1) <= report.leakage + 1e-8
    left = [tv for tv in report.values if sum(tv.sites) < sum(y)]
    assert left
    if p == 1.0:
        # TASEP particles never move left
        assert all(tv.value == 0.0 for tv in left)
        assert report.quadrature.mirror_radius is None
    else:
        assert report.quadrature.mirror_radius is not None


def test_orbit_mismatch_is_structural_zero():
    # a labeling outside the rearrangements of nu carries no amplitude
    values = transition_probabilities(
        (0, 1), (1, 2), [((0, 1), (1, 1)), ((0, 1), (2, 1))], R07, 0.3
    )
    assert values[0].value == 0.0
    assert values[1].value > 0


def test_species_multiset_must_match():
    # label multiset {1, 2}: asking for {3, 1} is a structural zero too
    values = transition_probabilities((0, 1), (1, 2), [((0, 1), (3, 1))], R07, 0.3)
    assert values[0].value == 0.0


def test_single_species_wrapper():
    a = single_species_probability((0, 1), (0, 2), R07, 0.7)
    b = transition_probability((0, 1), (1, 1), (0, 2), (1, 1), R07, 0.7)
    assert a == pytest.approx(b, rel=1e-14)


@pytest.mark.parametrize("p", [0.5, 0.7])
@pytest.mark.parametrize(
    "y, nu", [((0, 1, 3), (3, 2, 1)), ((0, 1, 3), (2, 1, 2)), ((0, 1), (2, 1))]
)
def test_species_projection_matches_single_species(y, nu, p):
    # swaps never move the occupied sites, so the labelings of one site
    # set sum to the single-species probability: the coefficient-table
    # path against the single-species shortcut, on both mirrored halves
    rates = RateParams.from_p(p)
    sites = [y, tuple(s + 1 for s in y), tuple(s - 2 for s in y), tuple(2 * s for s in y)]
    labelings = sorted(species_orbit(nu))
    values = transition_probabilities(
        y, nu, [(x, pi) for x in sites for pi in labelings], rates, 0.6
    )
    for k, x in enumerate(sites):
        summed = sum(v.value for v in values[k * len(labelings):(k + 1) * len(labelings)])
        assert abs(summed - single_species_probability(y, x, rates, 0.6)) <= 1e-14


def test_radius_invariance():
    # two admissible radii must agree; disagreement means poles inside or
    # aliasing, the two failure modes of a bad contour
    y, nu, x, pi = (0, 1), (2, 1), (1, 3), (1, 2)
    values = []
    for radius in (0.18, 0.30):
        spec = ContourSpec(nodes=128, radius=radius, dimension=2)
        values.append(transition_probability(y, nu, x, pi, R05, 0.8, spec))
    assert values[0] == pytest.approx(values[1], rel=1e-9)


def test_conjugate_symmetry_real_output():
    # slab K - k is the conjugate of slab k, so the transform along the
    # slab index is a Hermitian one and every value comes out real: a
    # Python float for one particle, on both halves, and for partial sums
    for x in (2, -2):
        assert type(transition_probability((0,), (1,), (x,), (1,), R07, 1.0)) is float
    values = transition_probabilities(
        (0, 2), (1, 2), [((1, 2), (2, 1)), ((-2, 0), (1, 2))], R07, 1.0
    )
    assert all(type(tv.value) is float and tv.imag == 0.0 for tv in values)
    assert type(sigma_summand((0, 1, 2), (1, 2, 4), (2, 1, 3), R07, 0.5)) is float
    entries = next(iter(inversion_classes(3)))
    assert type(inversion_class_sum((0, 1, 2), (1, 2, 4), entries, R07)) is float


def test_starved_quadrature_does_not_crash():
    # a starved contour aliases, so its value may fall outside [0, 1] and
    # trip the range warning; it must never raise
    spec = ContourSpec(nodes=8, radius=0.05, dimension=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        transition_probability((0, 1), (1, 2), (4, 7), (2, 1), R05, 0.2, spec)
    assert all(issubclass(w.category, (UserWarning, RuntimeWarning)) for w in caught)


def test_b_class_sums_vanish_n3():
    y, x = (0, 1, 2), (1, 2, 4)
    for entries, members in inversion_classes(3).items():
        total = inversion_class_sum(y, x, entries, R07)
        assert abs(total) <= 1e-12
        if len(members) == 1:
            assert abs(sigma_summand(y, x, members[0], R07)) <= 1e-12


def test_sigma_summands_sum_to_delta():
    # at t = 0 the full permutation sum collapses to the indicator of
    # X = Y; individual summands need not vanish for sigma fixing N
    y = (0, 1, 2)
    for x in ((0, 1, 2), (0, 1, 3), (1, 2, 3)):
        total = sum(
            sigma_summand(y, x, sigma, R05) for sigma in all_permutations(3)
        )
        expect = 1.0 if x == y else 0.0
        assert abs(total - expect) <= 1e-10


def test_inversion_class_sum_rejects_unknown_class():
    with pytest.raises(ValueError):
        inversion_class_sum((0, 1, 2), (1, 2, 4), frozenset({9}), R07)


def test_master_equation_residual_small_cases():
    for y, nu in (((0,), (1,)), ((0, 1), (1, 2))):
        x, pi = y, nu
        rep = master_equation_residual(y, nu, x, pi, R07, 0.5)
        assert rep.residual <= 1e-6
        assert rep.dt == 1e-3


def test_master_equation_residual_spread_target():
    # the rates come from the target's neighbourhood, so a target whose
    # particles are thousands of sites apart costs what a compact one does
    cases = [
        ((0, 5000), (2, 1), (1, 5000), (2, 1)),
        ((0, 1, 5000), (2, 1, 1), (0, 1, 5001), (1, 2, 1)),
    ]
    for y, nu, x, pi in cases:
        rep = master_equation_residual(y, nu, x, pi, R07, 0.5)
        assert abs(rep.time_derivative) > 1e-2
        assert rep.residual <= 1e-6


def test_master_equation_residual_names_t_and_dt():
    # the central difference would evaluate at t - dt < 0
    with pytest.raises(ValueError, match=r"t = 0\.0, dt = 0\.001"):
        master_equation_residual((0,), (1,), (0,), (1,), RateParams.from_p(0.5), 0.0)
    # True is not read as dt = 1
    for dt in (True, np.True_):
        with pytest.raises(ValueError, match=r"t = 2, dt = True"):
            master_equation_residual((0,), (1,), (0,), (1,), R05, 2, dt=dt)


def test_far_starts_give_the_compact_value():
    # the kernels' phases and the readout scale are relative to the
    # start, so nothing overflows thousands of sites from the origin
    compact = transition_probability((0, 1), (2, 1), (1, 2), (2, 1), R07, 0.5)
    far = transition_probability((6000, 6001), (2, 1), (6001, 6002), (2, 1), R07, 0.5)
    assert abs(far - compact) <= 1e-15
    compact = transition_probability((0, 20), (2, 1), (1, 20), (2, 1), R07, 0.5)
    far = transition_probability((0, 10000), (2, 1), (1, 10000), (2, 1), R07, 0.5)
    assert abs(far - compact) <= 1e-15


def test_window_with_mass_off_warns():
    # at t = 10 the default 64 nodes alias: the window's mass is 0.917, and
    # some of its values lie off the unit interval
    with pytest.warns(UserWarning, match=r"window \(-37, 38\): total mass 0\.91.* 64 nodes"):
        with pytest.warns(UserWarning, match=r"457 of 5700 values lie outside"):
            report = distribution_over_window((0, 1), (2, 1), R07, 10.0, window=(-37, 38))
    assert abs(report.total_mass - 1) > 1e-2


def test_values_off_the_unit_interval_warn_and_non_finite_ones_raise():
    # at t = 1000 the default contour is far too coarse: the value is huge,
    # and at t = 100000 the kernels overflow extended precision
    with pytest.warns(UserWarning, match=r"1 of 1 values .* worst 5\.8\d*e\+70 .*64 nodes"):
        transition_probability((0,), (1,), (400,), (1,), R07, 1000.0)
    with pytest.raises(ValueError, match=r"not finite, e\.g\. at target \(\(5,\), \(1,\)\)"):
        transition_probability((0,), (1,), (5,), (1,), R07, 100000.0)


@pytest.mark.parametrize("x, named", [
    ((1, 2.5), r"\(\(1, 2\.5\), \(1, 1\)\)"),
    ((1, 2**63), r"\(\(1, 9223372036854775808\), \(1, 1\)\)"),
    ((-(2**63), 1), r"\(\(-9223372036854775808, 1\), \(1, 1\)\)"),
    ((1, 2**59 + 1), r"\(\(1, 576460752303423489\), \(1, 1\)\)"),
    ((0, True), r"\(\(0, True\), \(1, 1\)\)"),
    (((0, 1), (True, 2)), r"\(\(0, 1\), \(True, 2\)\)"),
])
def test_target_off_the_integers_or_past_the_site_bound_is_refused(x, named):
    # a float or bool site or species is not read as an integer, and a site
    # past 2**59 (whose sums could leave int64) is not cast: each is refused
    # by name.  x is the target's sites, or the whole target
    target = x if isinstance(x[0], tuple) else (x, (1, 1))
    targets = [((1, 2), (1, 1)), target]
    with pytest.raises(ValueError, match=named + ": sites and species must be integers"):
        transition_probabilities((0, 1), (1, 1), targets, R07, 0.5)
    assert transition_probability((0, 1), (1, 1), (1, 2**59), (1, 1), R07, 0.5) == 0.0


def test_start_past_the_site_bound_is_refused():
    with pytest.raises(ValueError, match=r"\(\(0, 576460752303423489\), \(1, 1\)\): sites"):
        transition_probability((0, 2**59 + 1), (1, 1), (1, 2), (1, 1), R07, 0.5)


DIRECT_REFUSAL = r"radius 0\.9 is not strictly inside the pole bound 0\.594109"
MIRROR_REFUSAL = (
    r"radius 0\.5 is refused by the mirrored half, where targets left of the start run "
    r"with p and q swapped \(p = 0\.3, q = 0\.7\): its pole bound is 0\.254619"
)
BUDGET_REFUSAL = r"node grid K\^\(N-1\) = 32\^2 exceeds the slab budget"


def test_each_half_takes_its_contour_from_one_decision(monkeypatch):
    # ContourSpec.radius_for decides each half's radius, refuses one outside
    # that half's pole bound in the half's own words, then applies the slab
    # budget; ContourSpec.fits is the budget, for the engine and for
    # delta_recovery's doubling alike
    direct = transition_prob._extended_rates(R07)
    mirror = transition_prob._extended_rates(RateParams(R07.q, R07.p))
    assert ContourSpec(radius=0.5).radius_for(direct, 0.5, 2, 2) == 0.5
    with pytest.raises(ValueError, match=MIRROR_REFUSAL):
        ContourSpec(radius=0.5).radius_for(mirror, 0.5, 2, 2, mirrored=True)
    with pytest.raises(ValueError, match=DIRECT_REFUSAL):
        ContourSpec(radius=0.9).radius_for(direct, 0.5, 2, 2)
    # the engine reaches both texts: 0.5 is inside the direct bound at
    # p = 0.7 but not inside the mirrored half's, and 0.9 inside neither
    left, right = ((-2, -1), (1, 1)), ((1, 2), (1, 1))
    with pytest.raises(ValueError, match=MIRROR_REFUSAL):
        transition_probabilities((0, 1), (1, 1), [right, left], R07, 0.5, ContourSpec(radius=0.5))
    with pytest.raises(ValueError, match=DIRECT_REFUSAL):
        transition_probabilities((0, 1), (1, 1), [right, left], R07, 0.5, ContourSpec(radius=0.9))
    # an empty mirrored half is never checked: the direct half alone runs
    evaluation = transition_prob._evaluate((0, 1), (1, 1), [right], R07, 0.5, ContourSpec(radius=0.5))
    assert evaluation.quadrature == Quadrature(64, 0.5, "explicit", None)
    balanced = transition_probability((0, 1), (1, 1), (1, 2), (1, 1), R07, 0.5)
    assert evaluation.values[0] == pytest.approx(balanced)

    monkeypatch.setattr(contour_quadrature, "MAX_SLAB_POINTS", 16**2)
    assert ContourSpec.fits(16, 3) and not ContourSpec.fits(32, 3)
    y, nu, x = (0, 2, 5), (1, 2, 1), ((1, 2, 5), (1, 2, 1))
    # a radius is refused before the node grid is
    with pytest.raises(ValueError, match=DIRECT_REFUSAL):
        transition_probabilities(y, nu, [x], R07, 0.5, ContourSpec(nodes=32, radius=0.9))
    with pytest.raises(ValueError, match=BUDGET_REFUSAL):
        transition_probabilities(y, nu, [x], R07, 0.5, ContourSpec(nodes=32, radius=0.2))
    # the doubling stops at the last node count the same budget admits
    rep = delta_recovery(y, nu, R07, tol=1e-30, spec=ContourSpec(nodes=8))
    assert not rep.passed and rep.quadrature.nodes == 16


def test_time_zero_probability_is_delta():
    assert transition_probability((0, 3), (1, 2), (0, 3), (1, 2), R07, 0.0) == (
        pytest.approx(1.0, abs=1e-12)
    )
    assert transition_probability((0, 3), (1, 2), (0, 4), (1, 2), R07, 0.0) == (
        pytest.approx(0.0, abs=1e-12)
    )


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        transition_probability((0,), (1,), (1,), (1,), R07, -0.5)


@pytest.mark.parametrize("dimension", [1, 3, 7])
def test_spec_dimension_must_match_particle_count(dimension):
    # the engine integrates over len(y) axes; a spec declaring another
    # count is an input error, not a silently ignored field
    spec = ContourSpec(nodes=32, dimension=dimension)
    with pytest.raises(ValueError, match=f"dimension is {dimension}.*2 particles"):
        transition_probability((0, 1), (1, 2), (1, 2), (1, 2), R07, 0.5, spec)
    with pytest.raises(ValueError, match="dimension"):
        distribution_over_window((0, 1), (1, 2), R07, 0.5, spec=spec)


DIMENSION_ERROR = "dimension is 7, but the start has 2 particles"


def test_sigma_summand_checks_spec_dimension():
    spec = ContourSpec(nodes=16, dimension=7)
    with pytest.raises(ValueError, match=DIMENSION_ERROR):
        sigma_summand((0, 1), (1, 2), (2, 1), R07, 0.5, spec)


def test_inversion_class_sum_checks_spec_dimension():
    spec = ContourSpec(nodes=16, dimension=7)
    entries = next(iter(inversion_classes(2)))
    with pytest.raises(ValueError, match=DIMENSION_ERROR):
        inversion_class_sum((0, 1), (0, 1), entries, R07, spec)


def test_delta_recovery_checks_spec_dimension():
    spec = ContourSpec(nodes=16, dimension=7)
    with pytest.raises(ValueError, match=DIMENSION_ERROR):
        delta_recovery((0, 1), (1, 1), R07, spec=spec)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


@pytest.mark.parametrize("nu", [(2, 1, 2), (2, 1, 2, 1)])
def test_slab_pair_table_matches_points_bitwise(nu, monkeypatch):
    # every bond the engine hands the species walk is a view of one 1 + S
    # matrix, bit for bit the factor evaluated at the nodes: the rest-grid
    # bonds build the same species tables as the rest points, and letter i
    # of slab k gets 1 + S(z_k, .) along plane axis i - 1
    n = len(nu)
    nodes = 8
    ext = transition_prob._extended_rates(R07)
    z = node_points(np.longdouble(0.3), nodes)
    tables, letters = [], []

    def table_spy(nu_rest, pairs, rates):
        tables.append((nu_rest, pairs))
        return coefficient_table(nu_rest, pairs, rates)

    def letter_spy(i, h, c, rates):
        letters.append((i, c))
        return species_coeff.exchange_update(i, h, c, rates)

    monkeypatch.setattr(transition_prob, "coefficient_table", table_spy)
    monkeypatch.setattr(transition_prob, "exchange_update", letter_spy)
    spec = ContourSpec(nodes=nodes, radius=0.3, dimension=n)
    y = tuple(range(n))
    targets = [(tuple(s + 1 for s in y), nu)]
    if n == 4:
        # 8 nodes starve the four-particle contour, and its value says so
        with pytest.warns(UserWarning, match=r"1 of 1 values lie outside"):
            transition_probabilities(y, nu, targets, R07, 0.5, spec)
    else:
        transition_probabilities(y, nu, targets, R07, 0.5, spec)

    rest = tuple(axis_view(z, a, n - 1) for a in range(n - 1))
    [(nu_rest, rest_bonds)] = tables
    assert nu_rest == nu[1:]
    expect = coefficient_table(nu_rest, rest, ext)
    got = coefficient_table(nu_rest, rest_bonds, ext)
    assert got.keys() == expect.keys()
    for sigma, table in expect.items():
        assert got[sigma].keys() == table.keys()
        for pi, value in table.items():
            assert _same_bits(got[sigma][pi], value), (sigma, pi)

    walked = []
    for i, c in letters:
        [k] = [
            k for k in range(nodes)
            if _same_bits(c, 1 + s_factor(z[k], axis_view(z, i - 1, n - 1), ext))
        ]
        walked.append((k, i))
    # slabs K/2 + 1 .. K - 1 are filled as the conjugates of walked ones
    assert sorted(walked) == [(k, i) for k in range(nodes // 2 + 1) for i in range(1, n)]


def _slab_reference(y, nu, rates, t, radius, nodes):
    """The symmetrized spectra per labeling, assembled slab by slab from
    every sigma's amplitude and species table evaluated at the nodes (no
    factoring through entry 1): P(x, pi) = r^(sum x) * spectra[pi][x mod K]."""
    n = len(y)
    ext = transition_prob._extended_rates(rates)
    z = node_points(np.longdouble(radius), nodes)
    kernels = transition_prob._axis_kernels(z, y, ext, t, nodes)
    rest = tuple(axis_view(z, a, n - 1) for a in range(n - 1))
    rest_kernel = 1
    for a in range(n - 1):
        rest_kernel = rest_kernel * axis_view(kernels[a + 1], a, n - 1)
    slabs = {}
    for k in range(nodes):
        xi = (z[k],) + rest
        tables = coefficient_table(nu, xi, ext)
        planes = {}
        for sigma in all_permutations(n):
            j = sigma.index(1)
            # plane axis m holds the entry of the m-th slot other than j
            axes = tuple(v - 2 for v in sigma[:j] + sigma[j + 1:])
            amp = kernels[0][k] * rest_kernel * amplitude(sigma, xi, ext)
            for pi, coeff in tables[sigma].items():
                term = np.broadcast_to(amp * coeff, (nodes,) * (n - 1)).transpose(axes)
                planes[(j, pi)] = planes.get((j, pi), 0) + term
        for key, plane in planes.items():
            slabs.setdefault(key, np.zeros((nodes,) * n, dtype=np.clongdouble))
            slabs[key][k] = scipy.fft.ifftn(plane, norm="forward")
    spectra = {}
    for (j, pi), slab in slabs.items():
        spectrum = np.moveaxis(scipy.fft.ifft(slab, axis=0, norm="forward"), 0, j)
        spectra[pi] = spectra.get(pi, 0) + spectrum
    return spectra


@pytest.mark.parametrize(
    "y, nu, window, rates",
    [
        pytest.param((0, 1, 2), (2, 1, 2), (-3, 5), R07, id="y0-nu0-window0"),
        pytest.param((0, 1, 2, 3), (2, 1, 2, 1), (-2, 5), R07, id="y1-nu1-window1"),
        pytest.param((0, 1, 2), (2, 1, 2), (-3, 5), RateParams.from_p(F(1, 2)), id="p=1/2"),
        pytest.param((0, 1, 2), (2, 1, 2), (-3, 5), RateParams.from_p(F(1)), id="p=1"),
    ],
)
def test_factored_planes_match_a_per_slab_reference(y, nu, window, rates):
    # the engine factors the species tables through entry 1 and fills
    # slab K - k as the conjugate of slab k; rebuilding every sigma's table
    # at every one of the K slabs from the nodes gives the same window to
    # rounding, in extended precision, on both halves.  At p = 1 (q = 0)
    # the mirrored half is empty
    nodes, t = 16, 0.5
    spec = ContourSpec(nodes=nodes, dimension=len(y))
    targets = StateSpace.build(window, len(y), nu).configs()
    sites, species = np.array(targets).transpose(1, 0, 2)
    left = sites.sum(axis=1) < sum(y)
    halves = [(y, nu, rates, sites[~left], species[~left])]
    if rates.q:
        halves.append(
            (
                tuple(-s for s in reversed(y)),
                tuple(reversed(nu)),
                RateParams(rates.q, rates.p),
                -sites[left, ::-1],
                species[left, ::-1],
            )
        )
    worst = scale = 0.0
    for mirrored, (start, labels, half_rates, xs, pis) in enumerate(halves):
        ext = transition_prob._extended_rates(half_rates)
        lowest = int(xs.sum(axis=1).min()) - sum(start)
        radius = spec.radius_for(ext, t, lowest, len(y), mirrored=bool(mirrored))
        values = transition_prob._contour_sum(start, labels, xs, pis, ext, t, radius, nodes)
        spectra = _slab_reference(start, labels, half_rates, t, radius, nodes)
        for x, pi, value in zip(xs.tolist(), pis.tolist(), values):
            expect = (
                np.longdouble(radius) ** (sum(x) - sum(start))
                * spectra[tuple(pi)][tuple(np.mod(x, nodes))]
            )
            worst = max(worst, abs(value - expect))
            scale = max(scale, abs(value))
    assert worst <= 1e-17 * scale


# One batch from (0,1,2)/(2,1,2): targets on both halves, the start
# itself, a labeling outside nu's orbit and a repeated target.
MIXED_START = ((0, 1, 2), (2, 1, 2))
MIXED_BATCH = [
    ((1, 2, 4), (1, 2, 2)),
    ((-2, 0, 1), (2, 1, 2)),
    ((0, 1, 3), (1, 1, 2)),
    ((0, 1, 2), (2, 1, 2)),
    ((-1, 1, 2), (2, 2, 1)),
    ((1, 2, 4), (1, 2, 2)),
]
MIXED_LEFT = [1, 4]
MIXED_SPEC = ContourSpec(nodes=16, dimension=3)


def test_window_is_the_listed_batch_bit_for_bit():
    # the window's array batch and the same targets listed as pairs run the
    # same engine on the same int64 arrays, on both halves
    y, nu = MIXED_START
    space = StateSpace.build((-3, 5), len(y), nu)
    report = distribution_over_window(y, nu, R07, 0.5, window=(-3, 5), spec=MIXED_SPEC)
    listed = transition_probabilities(y, nu, space.configs(), R07, 0.5, MIXED_SPEC)
    assert report.quadrature.mirror_radius is not None
    assert [(v.sites, v.species) for v in report.values] == space.configs()
    assert _same_bits([v.value for v in report.values], [v.value for v in listed])


def test_batch_order_is_bookkeeping_only():
    # the same targets give the same radii, so the reversed batch is the
    # reversed values bit for bit; a repeat reads the same value, and a
    # labeling outside the orbit is an exact 0
    forward = transition_prob._evaluate(*MIXED_START, MIXED_BATCH, R07, 0.5, MIXED_SPEC)
    backward = transition_prob._evaluate(
        *MIXED_START, MIXED_BATCH[::-1], R07, 0.5, MIXED_SPEC
    )
    assert backward.quadrature == forward.quadrature
    assert forward.quadrature.mirror_radius is not None
    assert _same_bits(backward.values[::-1], forward.values)
    assert forward.values[0] == forward.values[5] > 0
    assert forward.values[2] == 0.0
    assert all(forward.values[k] > 0 for k in MIXED_LEFT)


def test_tasep_left_targets_are_exact_zeros():
    # particles only move right at p = 1: no mirrored half is computed
    evaluation = transition_prob._evaluate(
        *MIXED_START, MIXED_BATCH, TASEP, 0.5, MIXED_SPEC
    )
    assert evaluation.quadrature.mirror_radius is None
    assert [evaluation.values[k] for k in MIXED_LEFT] == [0.0, 0.0]
    assert evaluation.values[2] == 0.0 and evaluation.values[0] > 0


def test_partial_sum_keeps_left_targets_on_the_direct_lattice():
    members = next(iter(inversion_classes(3).values()))
    evaluation = transition_prob._evaluate(
        *MIXED_START, MIXED_BATCH, R07, 0.5, MIXED_SPEC, members
    )
    assert evaluation.quadrature.mirror_radius is None
    assert all(evaluation.values[k] != 0 for k in MIXED_LEFT)
    assert evaluation.values[2] == 0.0


def test_engine_builds_one_scattering_matrix_per_half(monkeypatch):
    calls = []

    def counting(u, v, rates):
        calls.append(np.shape(u))
        return s_factor(u, v, rates)

    monkeypatch.setattr(transition_prob, "s_factor", counting)
    monkeypatch.setattr(species_coeff, "s_factor", counting)
    targets = [((1, 2, 4), (1, 2, 2)), ((-2, 0, 1), (2, 1, 2))]
    spec = ContourSpec(nodes=16, dimension=3)
    values = transition_probabilities((0, 1, 2), (2, 1, 2), targets, R07, 0.5, spec)
    assert all(v.value > 0 for v in values)
    assert calls == [(16, 1), (16, 1)]
