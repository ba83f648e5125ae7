"""Species-coefficient tables: recursion, word expansion, closed forms.

Everything here runs on exact rationals; assertions are equalities, not
tolerances.  The xi values are chosen away from the scattering poles
(for p = a/b the pole pairs solve v = a/(b - (b-a) u), so reusing a
point set after changing p needs a fresh pole check).
"""

from fractions import Fraction as F

import numpy as np
import pytest

from asep_exact import (
    BethePoleError,
    RateParams,
    check_braid_relations,
    coefficient_by_expansion,
    coefficient_table,
    second_class_coefficient,
    species_coefficient,
)
from asep_exact.permutations import (
    all_permutations,
    canonical_word,
    identity,
    inverse,
    inversions_below,
    reduced_words,
)
from asep_exact import species_coeff
from asep_exact.contour_quadrature import axis_view
from asep_exact.species_coeff import (
    PairTable,
    braid_apply,
    expansion_summands,
    species_orbit,
)

XI5 = (F(3, 7), F(2, 9), F(5, 11), F(1, 4), F(4, 19))
RATES = RateParams.from_p(F(2, 5))


def test_orbit_is_all_rearrangements():
    assert sorted(species_orbit((1, 2, 2))) == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    assert len(species_orbit((1, 2, 3))) == 6
    assert species_orbit((2, 2)) == [(2, 2)]
    # listed without going through the 16! orders of the labels
    orbit = [(1,) * k + (2,) + (1,) * (15 - k) for k in reversed(range(16))]
    assert species_orbit((1,) * 15 + (2,)) == orbit


def test_identity_table_is_point_mass():
    for nu in ((1, 2, 2), (1, 2, 3), (2, 1, 1)):
        table = species_coefficient((1, 2, 3), nu, XI5[:3], RATES)
        assert table == {nu: 1}


def test_single_species_tables_trivial():
    # equal labels leave every exchange step inert, so each sigma keeps
    # the point mass with coefficient exactly 1
    nu = (1, 1, 1)
    for sigma, table in coefficient_table(nu, XI5[:3], RATES).items():
        assert table == {nu: 1}


def test_table_support_inside_orbit():
    nu = (2, 1, 2)
    orbit = set(species_orbit(nu))
    for table in coefficient_table(nu, XI5[:3], RATES).values():
        assert set(table) <= orbit


def test_column_sums_partition_unity():
    # summing the table over its orbit reproduces the single-species
    # coefficient 1 for every sigma: priorities shuffle labels around
    # but conserve the sigma summand in aggregate
    for nu in ((1, 2, 2), (2, 1, 2), (1, 2, 3)):
        for sigma, table in coefficient_table(nu, XI5[:3], RATES).items():
            assert sum(table.values()) == 1, (sigma, nu)


def test_expansion_matches_recursion_any_reduced_word():
    nu = (2, 1, 2)
    for sigma in all_permutations(3):
        expect = species_coefficient(sigma, nu, XI5[:3], RATES)
        for word in reduced_words(sigma):
            assert coefficient_by_expansion(sigma, word, nu, XI5[:3], RATES) == expect


def test_expansion_rejects_wrong_word():
    with pytest.raises(ValueError):
        expansion_summands((3, 2, 1), (1,), (1, 2, 2), XI5[:3], RATES)


def test_braid_relations_small():
    report = check_braid_relations(3, XI5[:3], RATES)
    assert report.passed
    assert report.counterexample is None
    assert report.checks > 0


def test_second_class_start_slot_one_zero_region():
    # the closed form is 0 exactly when sigma places the tagged particle
    # left of the destination slot
    for sigma in all_permutations(4):
        for j in range(1, 5):
            value = second_class_coefficient(sigma, 1, j, XI5[:4], RATES)
            if inverse(sigma)[0] < j:
                assert value == 0


def test_second_class_matches_recursion_both_starts():
    for n in (3, 4):
        xi = XI5[:n]
        for nu_pos in (1, 2):
            nu = tuple(1 if k == nu_pos else 2 for k in range(1, n + 1))
            for sigma in all_permutations(n):
                table = species_coefficient(sigma, nu, xi, RATES)
                for j in range(1, n + 1):
                    pi = tuple(1 if k == j else 2 for k in range(1, n + 1))
                    try:
                        closed = second_class_coefficient(sigma, nu_pos, j, xi, RATES)
                    except ValueError:
                        continue  # outside the proven region for nu_pos=2
                    assert table.get(pi, 0) == closed, (sigma, nu_pos, j)


def test_second_class_validity_region_raises():
    sigma = (1, 2, 3)
    # tagged particle in slot 2 but asked to end at slot 3: outside region
    assert inverse(sigma)[0] < 3
    with pytest.raises(ValueError):
        second_class_coefficient(sigma, 2, 3, XI5[:3], RATES)


def test_reversal_word_counts():
    # the canonical word for the full reversal spawns five surviving
    # branches at pi = nu, an alternate word only two; both words sum to
    # the same table
    sigma = (4, 3, 2, 1)
    assert canonical_word(sigma) == (3, 2, 1, 3, 2, 3)
    alternate = (1, 2, 1, 3, 2, 1)
    nu = (2, 2, 1, 2)
    lengths = {}
    for word in (canonical_word(sigma), alternate):
        summands = expansion_summands(sigma, word, nu, XI5[:4], RATES)
        lengths[word] = len(summands.get(nu, []))
        assert coefficient_by_expansion(
            sigma, word, nu, XI5[:4], RATES
        ) == species_coefficient(sigma, nu, XI5[:4], RATES)
    assert lengths[(3, 2, 1, 3, 2, 3)] == 5
    assert lengths[(1, 2, 1, 3, 2, 1)] == 2


def test_inversions_below_used_by_validity_region():
    assert inversions_below((4, 3, 2, 1), 2) == 1


def test_pair_table_gives_the_same_tables():
    # a table filled up front, one filled lazily and shared across calls,
    # and the points themselves give identical coefficient tables
    for nu in ((2, 1, 2), (2, 1, 2, 1), (1, 2, 3, 3)):
        xi = XI5[: len(nu)]
        eager = PairTable(xi, RATES)
        for a in range(1, len(nu) + 1):
            for b in range(1, len(nu) + 1):
                if a != b:
                    eager[(a, b)]
        shared = PairTable.of(xi, RATES)
        assert PairTable.of(shared, RATES) is shared
        expect = coefficient_table(nu, xi, RATES)
        assert coefficient_table(nu, eager, RATES) == expect
        assert coefficient_table(nu, shared, RATES) == expect
        for sigma in all_permutations(len(nu)):
            assert species_coefficient(sigma, nu, shared, RATES) == expect[sigma]


def test_pole_raises_through_pair_table():
    # at p = 2/5 the denominator f(v, u) = p + q u v - v vanishes for
    # u = 1/2, v = 4/7, so the pair (1, 2) sits on an exact pole
    xi = (F(1, 2), F(4, 7), F(1, 3))
    nu = (2, 1, 2)
    with pytest.raises(BethePoleError):
        coefficient_table(nu, xi, RATES)
    with pytest.raises(BethePoleError):
        coefficient_table(nu, PairTable.of(xi, RATES), RATES)
    with pytest.raises(BethePoleError):
        check_braid_relations(3, xi, RATES)
    with pytest.raises(BethePoleError):
        second_class_coefficient((2, 1, 3), 1, 1, xi, RATES)


@pytest.mark.parametrize("p", [0.4, 0.5])
def test_braid_check_rejects_float_input(p):
    # == on floats would report roundoff as a broken relation
    with pytest.raises(ValueError, match="rational"):
        check_braid_relations(3, (0.5, 0.25, 0.125), RateParams.from_p(p))
    with pytest.raises(ValueError, match="rational"):
        check_braid_relations(3, XI5[:3], RateParams.from_p(p))


def test_braid_check_evaluates_each_pair_once(monkeypatch):
    calls = []

    def counting(u, v, rates):
        calls.append((u, v))
        return s_factor(u, v, rates)

    s_factor = species_coeff.s_factor
    monkeypatch.setattr(species_coeff, "s_factor", counting)
    report = check_braid_relations(4, XI5[:4], RATES)
    assert report.passed
    assert len(calls) <= 12
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("p", [F(1, 2), F(9, 10), F(1)])
def test_braid_check_catches_a_perturbed_bond(p):
    # one bond off by 1/7 breaks the operators; the check must still see it
    rates = RateParams.from_p(p)
    pairs = PairTable(XI5[:4], rates)
    pairs[(2, 3)] += F(1, 7)
    report = check_braid_relations(4, pairs, rates)
    assert not report.passed
    assert set(report.counterexample) == {"sigma", "pi", "left", "right"}
    if p == F(1, 2):
        assert report.checks == 3
        assert report.counterexample["left"] == (1, 2, 1)
        assert report.counterexample["right"] == (2, 1, 2)


def test_scaled_walk_matches_fraction_tables():
    # the integer tables of the braid check, divided by D per letter, are
    # the exact tables of species_coefficient
    xi = XI5[:4]
    bonds, rates, scale = PairTable(xi, RATES).over_common_denominator()
    assert scale > 0
    assert (rates.p, rates.q) == (2, 3)
    for nu in species_coeff._default_labelings(4):
        for sigma in all_permutations(4):
            word = canonical_word(sigma)
            end, h = braid_apply(word, identity(4), {nu: 1}, bonds, rates, scale)
            assert end == sigma
            assert all(type(v) is int for v in h.values())
            unscaled = {pi: F(v, scale ** len(word)) for pi, v in h.items()}
            assert unscaled == species_coefficient(sigma, nu, xi, RATES), (nu, sigma)


def test_float_points_have_no_common_denominator():
    assert PairTable((0.25, 0.5), RateParams.from_p(0.4)).over_common_denominator() is None
    assert PairTable(XI5[:2], RateParams.from_p(0.4)).over_common_denominator() is None


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
@pytest.mark.parametrize(
    "sweep",
    [
        lambda seed: species_coeff.braid_sweep(3, RATES, 1, seed),
        lambda seed: species_coeff.second_class_sweep(3, RATES, seed),
    ],
    ids=["braid_sweep", "second_class_sweep"],
)
def test_sweeps_reject_bad_seed(sweep, seed):
    # the same check simulate makes, before any stream is keyed
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        sweep(seed)


# --- the letter against its defining formula -------------------------------


def per_entry_letter(i, h, c, rates, scale=1):
    """The exchange letter entry by entry, as its formula reads: every
    labeling pi of h or next to one gets
    D h(pi) + c (alpha(pi) h(swap_i(pi)) - beta(pi) h(pi))."""
    support = set(h)
    support.update(species_coeff.label_swap(pi, i) for pi in h)
    out = {}
    for pi in support:
        alpha, beta = species_coeff.swap_rates(i, pi, rates)
        value = h.get(pi, 0)
        kept = value if scale == 1 else scale * value
        if alpha != 0 or beta != 0:
            swapped = h.get(species_coeff.label_swap(pi, i), 0)
            value = kept + c * (alpha * swapped - beta * value)
        else:
            value = kept
        if not species_coeff._is_zero_scalar(value):
            out[pi] = value
    return out


# x87 extended precision fills 10 of the 16 bytes a longdouble is stored
# in; arithmetic leaves the other 6 undefined
LONG_BYTES = 10 if np.finfo(np.longdouble).nmant == 63 else np.dtype(np.longdouble).itemsize


def significant_bytes(a):
    """The real and imaginary parts of a clongdouble array as bytes,
    without their padding."""
    parts = np.ascontiguousarray(np.stack([a.real, a.imag]))
    return parts.view(np.uint8).reshape(parts.size, -1)[:, :LONG_BYTES].tobytes()


# (2, 1, 2, 1)'s orbit without (1, 2, 1, 2) and (2, 2, 1, 1): at every bond
# some labelings have equal labels there and some pairs lack one member
# (the ascending one at bond 1, the descending one at bond 2)
PARTIAL_ORBIT = sorted(set(species_orbit((2, 1, 2, 1))) - {(1, 2, 1, 2), (2, 2, 1, 1)})


@pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
def test_letter_matches_its_formula_bitwise_on_planes(p):
    # clongdouble planes and a bond broadcast along one axis, as the
    # contour engine passes them
    rng = np.random.default_rng(11)
    nodes, n_rest = 6, 3

    def plane(shape):
        parts = rng.standard_normal((2,) + shape)
        return (parts[0] + 1j * parts[1]).astype(np.clongdouble)

    rates = RateParams.from_p(np.longdouble(p))
    h = {pi: plane((nodes,) * n_rest) for pi in PARTIAL_ORBIT}
    before = {pi: v.copy() for pi, v in h.items()}
    for i in range(1, 4):
        c = axis_view(plane((nodes,)), i - 1, n_rest)
        got = species_coeff.exchange_update(i, h, c, rates)
        want = per_entry_letter(i, h, c, rates)
        assert got.keys() == want.keys(), i
        for pi, value in want.items():
            assert got[pi].dtype == value.dtype and got[pi].shape == value.shape, (i, pi)
            assert significant_bytes(got[pi]) == significant_bytes(value), (i, pi)
        # the input table and its planes are left as they were
        assert h.keys() == before.keys()
        for pi, value in before.items():
            assert significant_bytes(h[pi]) == significant_bytes(value), (i, pi)


def test_letter_matches_its_formula_in_integers_at_scale():
    # the braid check's walk: integer bonds and rates over one common D
    bonds, rates, scale = PairTable(XI5[:4], RATES).over_common_denominator()
    h = {pi: 7 * k - 14 for k, pi in enumerate(PARTIAL_ORBIT)}  # one entry is 0
    before = dict(h)
    for i in range(1, 4):
        for c in (bonds[(i, i + 1)], bonds[(i + 1, i)]):
            got = species_coeff.exchange_update(i, h, c, rates, scale)
            assert got == per_entry_letter(i, h, c, rates, scale), (i, c)
            assert all(type(v) is int for v in got.values())
        assert h == before
