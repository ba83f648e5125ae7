"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every criterion runs at its stated tolerance against an independent
reference: the finite-window generator oracle, exact rational identity
sweeps, the jump-series closed form, or binomial statistics.  Runtime
budgets are asserted where stated.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from asep_exact import (
    RateParams,
    check_braid_relations,
    coefficient_by_expansion,
    coefficient_table,
    compare,
    delta_recovery,
    distribution_over_window,
    inversion_class_sum,
    master_equation_residual,
    oracle_distribution,
    second_class_coefficient,
    sigma_summand,
    simulate,
    single_particle_series,
    transition_probability,
)
from asep_exact.bethe_algebra import s_factor
from asep_exact.permutations import (
    all_permutations,
    canonical_word,
    inversion_classes,
    reduced_words,
)
from asep_exact.species_coeff import (
    expansion_summands,
    rational_points,
    species_coefficient,
)

XI5 = (F(3, 7), F(2, 9), F(5, 11), F(1, 4), F(4, 19))


def report(number, passed, detail):
    line = f"ACCEPTANCE criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_criterion_1_delta_recovery():
    cases = [
        ((0,), (1,)),
        ((0, 1), (1, 1)),
        ((0, 2, 3), (1, 1, 1)),
        ((0, 1, 3, 6), (1, 1, 1, 1)),
        ((0, 1), (2, 1)),
        ((0, 1, 2), (2, 1, 2)),
    ]
    worst = 0.0
    slowest = 0.0
    ran = 0
    for p in (0.5, 0.7, 1.0):
        rates = RateParams.from_p(p)
        for y, nu in cases:
            t0 = time.perf_counter()
            rep = delta_recovery(y, nu, rates, margin=2, tol=1e-8)
            elapsed = time.perf_counter() - t0
            ran += 1
            worst = max(worst, rep.max_residual)
            slowest = max(slowest, elapsed)
            assert rep.passed, (y, nu, p, rep.max_residual)
            assert elapsed <= 120.0, (y, nu, p, elapsed)
    report(
        1,
        worst <= 1e-8 and slowest <= 120.0,
        f"{ran} cases at t=0, worst |P - delta| {worst:.3e} (tol 1e-8), "
        f"slowest case {slowest:.1f}s (budget 120s)",
    )


def test_criterion_2_generator_oracle_agreement():
    shapes = {2: ((0, 1), (2, 1)), 3: ((0, 1, 2), (2, 1, 2))}
    worst = 0.0
    slowest = 0.0
    targets_checked = 0
    for n, (y, nu) in shapes.items():
        for t in (0.2, 1.0):
            for p in (0.5, 0.7, 1.0):
                t0 = time.perf_counter()
                rates = RateParams.from_p(p)
                oracle, window, leak = oracle_distribution(
                    y, nu, rates, t, leak_tol=1e-10
                )
                assert leak <= 1e-10
                formula = distribution_over_window(
                    y, nu, rates, t, window=window
                ).as_dict()
                for cfg, mass in oracle.items():
                    if mass >= 1e-8:
                        targets_checked += 1
                        worst = max(worst, abs(formula.get(cfg, 0.0) - mass))
                elapsed = time.perf_counter() - t0
                slowest = max(slowest, elapsed)
                assert elapsed <= 600.0, (n, t, p, elapsed)
    report(
        2,
        worst <= 1e-6,
        f"{targets_checked} targets with oracle mass >= 1e-8 across 12 sweeps, "
        f"worst |formula - oracle| {worst:.3e} (tol 1e-6), "
        f"slowest sweep {slowest:.1f}s (budget 600s)",
    )


def test_criterion_3_braid_relations_exact():
    checks = 0
    points = 0
    t0 = time.perf_counter()
    for p in (F(1, 3), F(1, 2), F(9, 10)):
        rates = RateParams.from_p(p)
        for n in (3, 4):
            rng = np.random.Generator(np.random.Philox(key=[int(p * 90), n]))
            for _ in range(20):
                xi = rational_points(rng, n, rates)
                rep = check_braid_relations(n, xi, rates)
                points += 1
                checks += rep.checks
                assert rep.passed, (p, n, xi, rep.counterexample)
    elapsed = time.perf_counter() - t0
    report(
        3,
        elapsed <= 60.0,
        f"{checks} exact operator identities over {points} random rational "
        "points, N in {3,4}, p in {1/3, 1/2, 9/10}, zero tolerance, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_4_second_class_closed_forms():
    checks = 0
    outside = 0
    for p in (F(2, 5), F(1, 2)):
        rates = RateParams.from_p(p)
        for n in range(2, 6):
            xi = XI5[:n]
            for nu_pos in (1, 2):
                nu = tuple(1 if k == nu_pos else 2 for k in range(1, n + 1))
                tables = coefficient_table(nu, xi, rates)
                for sigma, table in tables.items():
                    for j in range(1, n + 1):
                        pi = tuple(1 if k == j else 2 for k in range(1, n + 1))
                        try:
                            closed = second_class_coefficient(
                                sigma, nu_pos, j, xi, rates
                            )
                        except ValueError:
                            outside += 1
                            continue
                        checks += 1
                        assert table.get(pi, 0) == closed, (p, sigma, nu_pos, j)

    # the reversal sigma = (4 3 2 1): factored display values against the
    # recursion.  The two-product display trips a rate typo (one factor
    # printed q(1+S) instead of p(1+S)), invisible exactly at p = 1/2;
    # the single-product display is verbatim correct at every rate.
    sigma = (4, 3, 2, 1)
    xi = XI5[:4]
    display_checks = 0
    for p in (F(1, 2), F(2, 5), F(9, 10)):
        rates = RateParams.from_p(p)
        q = rates.q

        def S(a, b):
            return s_factor(xi[a - 1], xi[b - 1], rates)

        two_product_verbatim = (
            q * (1 + S(2, 4)) * (q - p * S(2, 3)) * q * (1 + S(1, 3))
            + (q - p * S(2, 4)) * (p - q * S(1, 4)) * (q - p * S(1, 3))
        )
        two_product_corrected = (
            q * (1 + S(2, 4)) * (q - p * S(2, 3)) * p * (1 + S(1, 3))
            + (q - p * S(2, 4)) * (p - q * S(1, 4)) * (q - p * S(1, 3))
        )
        single_product = q * (1 + S(1, 4)) * (q - p * S(1, 3))
        table = species_coefficient(sigma, (2, 2, 1, 2), xi, rates)
        assert table[(2, 2, 1, 2)] == two_product_corrected
        assert table[(2, 2, 2, 1)] == single_product
        if p == F(1, 2):
            assert table[(2, 2, 1, 2)] == two_product_verbatim
        else:
            assert table[(2, 2, 1, 2)] != two_product_verbatim
        display_checks += 3
    report(
        4,
        True,
        f"{checks} exact closed-form identities (N <= 5, both start slots, "
        f"{outside} outside the proven region) plus {display_checks} factored "
        "display checks for the full reversal, zero tolerance",
    )


def test_criterion_5_word_expansion_equivalence():
    rates = RateParams.from_p(F(2, 5))
    equalities = 0
    for n in (2, 3, 4):
        xi = XI5[:n]
        labelings = [
            tuple([1] + [2] * (n - 1)),
            tuple([2, 1] + [2] * (n - 2)),
            tuple(min(k, 3) for k in range(1, n + 1)),
        ]
        for sigma in all_permutations(n):
            words = {canonical_word(sigma)}
            words.add(max(reduced_words(sigma)))  # alternate when one exists
            for nu in labelings:
                expect = species_coefficient(sigma, nu, xi, rates)
                for word in words:
                    assert (
                        coefficient_by_expansion(sigma, word, nu, xi, rates) == expect
                    ), (sigma, word, nu)
                    equalities += 1

    # the two stated representations of the reversal: the canonical word
    # leaves five surviving branches, the alternate word two
    sigma = (4, 3, 2, 1)
    nu = (2, 2, 1, 2)
    counts = {
        word: len(expansion_summands(sigma, word, nu, XI5[:4], rates).get(nu, []))
        for word in ((3, 2, 1, 3, 2, 3), (1, 2, 1, 3, 2, 1))
    }
    assert canonical_word(sigma) == (3, 2, 1, 3, 2, 3)
    assert counts[(3, 2, 1, 3, 2, 3)] == 5
    assert counts[(1, 2, 1, 3, 2, 1)] == 2
    report(
        5,
        True,
        f"{equalities} exact word-expansion equalities (N <= 4, canonical and "
        "alternate words) and branch counts 5/2 for the stated reversal pair",
    )


def test_criterion_6_class_sums_vanish():
    y, x = (0, 1, 2), (1, 2, 4)
    rates = RateParams.from_p(0.7)
    worst_class = 0.0
    worst_single = 0.0
    for entries, members in inversion_classes(3).items():
        total = inversion_class_sum(y, x, entries, rates)
        worst_class = max(worst_class, abs(total))
        if len(members) == 1:
            worst_single = max(
                worst_single, abs(sigma_summand(y, x, members[0], rates))
            )
    report(
        6,
        worst_class <= 1e-9 and worst_single <= 1e-9,
        f"N=3 class sums vanish to {worst_class:.3e} and singleton summands "
        f"to {worst_single:.3e} (tol 1e-9) at generic Y != X",
    )


def test_criterion_7_monte_carlo_consistency():
    y, nu = (0, 1, 2), (2, 1, 2)
    rates = RateParams.from_p(0.7)
    t, trials, seed = 0.5, 100_000, 20260821
    first = simulate(y, nu, rates, t, trials, seed)
    again = simulate(y, nu, rates, t, trials, seed)
    assert first.counts == again.counts  # bit-level determinism
    formula = distribution_over_window(y, nu, rates, t).as_dict()
    rep = compare(first, formula, z_threshold=4.0, min_expected=25.0)
    report(
        7,
        rep.passed and len(rep.checked) > 0,
        f"{trials} trials, {len(rep.checked)} cells with expected count >= 25, "
        f"max |z| {rep.max_abs_z:.2f} (threshold 4), deterministic seed {seed}",
    )


def test_criterion_8_single_particle_closed_form():
    rates = RateParams.from_p(0.7)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for displacement in range(-10, 11):
            value = transition_probability(
                (0,), (1,), (displacement,), (1,), rates, t
            )
            series = single_particle_series(displacement, rates, t)
            worst = max(worst, abs(value - series))
    report(
        8,
        worst <= 1e-10,
        f"contour formula vs jump series over displacements [-10, 10], "
        f"t in {{0.5, 1, 2}}, worst |diff| {worst:.3e} (tol 1e-10)",
    )


def test_criterion_9_master_equation_residual():
    cases = [
        ((0,), (1,), (0,), (1,)),
        ((0,), (1,), (2,), (1,)),
        ((0, 1), (1, 1), (0, 1), (1, 1)),
        ((0, 1), (1, 1), (1, 3), (1, 1)),
        ((0, 1), (2, 1), (0, 1), (2, 1)),
        ((0, 1), (2, 1), (0, 1), (1, 2)),
        ((0, 1), (2, 1), (-1, 2), (1, 2)),
    ]
    worst = 0.0
    for p in (0.5, 0.7):
        rates = RateParams.from_p(p)
        for y, nu, x, pi in cases:
            rep = master_equation_residual(y, nu, x, pi, rates, 0.5, dt=1e-3)
            worst = max(worst, rep.residual)
    report(
        9,
        worst <= 1e-5,
        f"central-difference residual vs jump-flow balance at dt=1e-3, "
        f"N <= 2, M <= 2, worst {worst:.3e} (tol 1e-5)",
    )
