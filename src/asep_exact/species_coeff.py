"""Species-order coefficients for the multispecies transition formula.

With several species the amplitude attached to a permutation sigma gets
multiplied by a coefficient that depends on the initial species labeling
``nu`` and the final labeling ``pi`` (both tuples: slot -> species, higher
number = higher priority).  The coefficients live in sparse tables
``dict[SpeciesMap, scalar]`` supported on the rearrangements of nu, and are
built by walking any word for sigma with one exchange operator per letter:

    new_h(pi) = h(pi) + (1 + S) * (alpha(pi) * h(swap_i(pi)) - beta(pi) * h(pi))

where S is the scattering factor at the bond, alpha is 0 / p / q as the
two labels at the bond are equal / ascending / descending, and beta the
same with p and q interchanged.  The walk starts from the point mass at nu
above the identity.  Words compose associatively and satisfy the braid
relations, so the result is word-independent; ``check_braid_relations``
verifies that exactly on rational inputs.

Each letter is given its bond factor 1 + S; its caller reads it at the
two entries the letter exchanges.  A point has only N(N-1) ordered pairs,
so the walks here read them from a ``PairTable``: ``1 + S(xi_a, xi_b)``
keyed by the ordered entries (a, b), each evaluated the first time a
letter needs it.  Every function taking ``xi`` accepts the N points or a
table already built on them, so one table serves every call made at one
point (the exact sweeps build one per rational point; the contour engine
passes a plain dict of views of its scattering matrix for its rest grid).

The exact braid sweep runs on integer numerators.  At a rational point
``PairTable.over_common_denominator`` writes p = P/R, q = Q/R and every
bond as the integer D(1 + S)/R over one common D > 0; the same
``exchange_update``, run at scale D on those integers, returns D times
the exact letter, so a relation's two sides are compared with ``==``
after scaling both to the same power of D.  The second-class sweep, a
small share of the cost, stays on ``Fraction``.

``coefficient_by_expansion`` evaluates the same coefficient as an explicit
sum over subsets of the word's letters (one branch per choice of the
alpha-term or the beta-term at each letter), and the second-class particle
closed forms (one species-1 particle among species 2) are in
``second_class_coefficient``.  ``braid_sweep`` and ``second_class_sweep``
check the braid relations and the closed forms exactly at seeded random
rational points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

import numpy as np

from .bethe_algebra import RateParams, f_factor, s_factor
from .markov_oracle import check_seed
from .permutations import (
    Permutation,
    Word,
    adjacent_swap,
    all_permutations,
    canonical_word,
    identity,
    inverse,
    inversions_below,
    species_orbit,
    word_to_permutation,
)

SpeciesMap = tuple[int, ...]
CoeffTable = dict[SpeciesMap, object]


class PairTable(dict):
    """Bond factors ``1 + S(xi_a, xi_b)`` keyed by ordered entries (a, b),
    1-based; a pair missing from the table is evaluated on first use."""

    def __init__(self, xi, rates: RateParams):
        super().__init__()
        self.xi = xi
        self.rates = rates

    @classmethod
    def of(cls, xi, rates: RateParams) -> dict:
        """``xi`` itself when it is already a table (any dict of bonds),
        else a new one on it."""
        return xi if isinstance(xi, dict) else cls(xi, rates)

    def __missing__(self, pair):
        a, b = pair
        value = self[pair] = 1 + s_factor(self.xi[a - 1], self.xi[b - 1], self.rates)
        return value

    def over_common_denominator(self):
        """``(bonds, rates, D)`` over one common denominator: p = P/R and
        q = Q/R give ``rates`` (P, Q), and ``bonds[(a, b)]`` is the integer
        D(1 + S_ab)/R for every ordered pair.  A letter of
        ``exchange_update`` on these at scale D is D times the exact letter,
        computed in ``int``.  None unless the points and rates are rational."""
        if not self.rates.exact or not all(isinstance(v, Rational) for v in self.xi):
            return None
        p, q = Fraction(self.rates.p), Fraction(self.rates.q)
        r = math.lcm(p.denominator, q.denominator)
        n = len(self.xi)
        over_r = {
            (a, b): Fraction(self[(a, b)]) / r
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            if a != b
        }
        # the smallest D > 0 that makes every D (1 + S) / R an integer
        scale = math.lcm(*(c.denominator for c in over_r.values()))
        bonds = {pair: c.numerator * (scale // c.denominator) for pair, c in over_r.items()}
        return bonds, IntegerRates(int(p * r), int(q * r)), scale


class IntegerRates(NamedTuple):
    """The numerators P, Q of p = P/R and q = Q/R over their common R."""

    p: int
    q: int


def label_swap(pi: SpeciesMap, i: int) -> SpeciesMap:
    """Interchange the labels in slots i and i+1 (1-based)."""
    s = list(pi)
    s[i - 1], s[i] = s[i], s[i - 1]
    return tuple(s)


def swap_rates(i: int, pi: SpeciesMap, rates: RateParams):
    """(alpha, beta) at bond i: (0, 0), (p, q) or (q, p) as the labels in
    slots i, i+1 are equal, ascending or descending."""
    a, b = pi[i - 1], pi[i]
    if a == b:
        return 0, 0
    if a < b:
        return rates.p, rates.q
    return rates.q, rates.p


def _is_zero_scalar(v) -> bool:
    return not isinstance(v, np.ndarray) and v == 0


def _cleaned(table: CoeffTable) -> CoeffTable:
    return {pi: v for pi, v in table.items() if not _is_zero_scalar(v)}


def _times(table: CoeffTable, factor) -> CoeffTable:
    """The cleaned table with every entry multiplied by factor > 0."""
    return {pi: factor * v for pi, v in table.items() if not _is_zero_scalar(v)}


def exchange_update(i: int, h: CoeffTable, c, rates: RateParams, scale: int = 1) -> CoeffTable:
    """Apply the exchange operator at bond i, whose bond factor is c, to a
    coefficient table.  Above sigma, c is 1 + S at the entries sigma holds
    in slots i and i+1, and the returned table sits above
    adjacent_swap(sigma, i).

    At ``scale`` D, with an integer bond and rates of
    ``PairTable.over_common_denominator``, each entry becomes
    D h(pi) + c (alpha h(swap pi) - beta h(pi)): D times the exact letter,
    in ``int``.  At scale 1 the letter is the plain one, with the same
    operations in the same order."""
    support = set(h)
    support.update(label_swap(pi, i) for pi in h)
    out: CoeffTable = {}
    for pi in support:
        alpha, beta = swap_rates(i, pi, rates)
        value = h.get(pi, 0)
        kept = value if scale == 1 else scale * value
        if alpha != 0 or beta != 0:
            value = kept + c * (alpha * h.get(label_swap(pi, i), 0) - beta * value)
        else:
            value = kept
        if not _is_zero_scalar(value):
            out[pi] = value
    return out


def braid_apply(
    word: Word,
    sigma: Permutation,
    h: CoeffTable,
    pairs: dict,
    rates: RateParams,
    scale: int = 1,
):
    """Apply a word of exchange operators (rightmost letter first) to the
    pair (sigma, h); returns the new pair."""
    for i in reversed(word):
        h = exchange_update(i, h, pairs[(sigma[i - 1], sigma[i])], rates, scale)
        sigma = adjacent_swap(sigma, i)
    return sigma, h


def species_coefficient(
    sigma: Permutation, nu: SpeciesMap, xi, rates: RateParams, word: Word | None = None
) -> CoeffTable:
    """Coefficient table above sigma for initial labeling nu.

    Walks ``word`` (default: the canonical sorting word) from the point
    mass at nu above the identity.  A supplied word must evaluate to sigma.
    """
    n = len(sigma)
    if len(nu) != n:
        raise ValueError("nu and sigma must have the same length")
    if word is None:
        word = canonical_word(sigma)
    elif word_to_permutation(word, n) != sigma:
        raise ValueError(f"word {word} does not evaluate to {sigma}")
    end, h = braid_apply(word, identity(n), {nu: 1}, PairTable.of(xi, rates), rates)
    assert end == sigma
    return h


def coefficient_table(nu: SpeciesMap, xi, rates: RateParams) -> dict[Permutation, CoeffTable]:
    """Coefficient tables for every sigma at once, sharing work along a
    breadth-first sweep: each permutation is reached once, through any
    shortest ascent (word independence makes the choice immaterial).
    Only bonds (a, b) with a < b are read."""
    pairs = PairTable.of(xi, rates)
    n = len(nu)
    table = {identity(n): {nu: 1}}
    level = [identity(n)]
    while level:
        next_level = []
        for sigma in sorted(level):
            for i in range(1, n):
                if sigma[i - 1] < sigma[i]:
                    tau = adjacent_swap(sigma, i)
                    if tau not in table:
                        table[tau] = exchange_update(
                            i, table[sigma], pairs[(sigma[i - 1], sigma[i])], rates
                        )
                        next_level.append(tau)
        level = next_level
    return table


# --- word-expansion form -------------------------------------------------


def expansion_summands(
    sigma: Permutation, word: Word, nu: SpeciesMap, xi, rates: RateParams
) -> dict[SpeciesMap, list]:
    """The coefficient table as one explicit product per surviving branch.

    Each subset of the word's letters is a branch: selected letters take
    their alpha-term (composing the label map with the bond swap), the
    rest take 1 minus their beta-term.  Branches whose alpha vanishes
    (equal labels at the bond) are pruned.  Returns, per final labeling,
    the list of branch products; summing each list gives the coefficient.
    """
    n = len(sigma)
    if word_to_permutation(word, n) != sigma:
        raise ValueError(f"word {word} does not evaluate to {sigma}")
    pairs = PairTable.of(xi, rates)
    m = len(word)
    # permutation in force when letter l is applied (letters right of l done)
    perm_before = [identity(n)] * m
    for l in range(m - 2, -1, -1):
        perm_before[l] = adjacent_swap(perm_before[l + 1], word[l + 1])
    c_at = [pairs[(rho[i - 1], rho[i])] for rho, i in zip(perm_before, word)]

    out: dict[SpeciesMap, list] = {}
    for mask in range(1 << m):
        selected = [l for l in range(m) if mask >> l & 1]
        target = nu
        for l in reversed(selected):
            target = label_swap(target, word[l])
        value = 1
        alive = True
        for l in range(m):
            point = target
            for lp in selected:
                if lp >= l:
                    break
                point = label_swap(point, word[lp])
            alpha, beta = swap_rates(word[l], point, rates)
            if mask >> l & 1:
                if alpha == 0:
                    alive = False
                    break
                value = value * (c_at[l] * alpha)
            else:
                value = value * (1 - c_at[l] * beta)
        if alive:
            out.setdefault(target, []).append(value)
    return out


def coefficient_by_expansion(
    sigma: Permutation, word: Word, nu: SpeciesMap, xi, rates: RateParams
) -> CoeffTable:
    """Sum of expansion_summands; equals species_coefficient on any word
    for sigma."""
    sums: CoeffTable = {}
    for pi, values in expansion_summands(sigma, word, nu, xi, rates).items():
        total = values[0]
        for v in values[1:]:
            total = total + v
        sums[pi] = total
    return _cleaned(sums)


# --- second-class particle closed forms ----------------------------------


def second_class_coefficient(
    sigma: Permutation, nu_pos: int, j: int, xi, rates: RateParams
):
    """Closed form for one species-1 particle among species 2: the
    coefficient above sigma at the labeling with the 1 in slot j, when the
    1 starts in slot nu_pos (1 or 2).

    nu_pos=1 covers every sigma and j (value 0 when the 1's slot in sigma
    is left of j).  nu_pos=2 is only proved on the region
    inverse(sigma)[0] >= j and inverse(sigma)[1] + inversions_below(sigma, 2) >= j;
    outside it the closed form is unproven and this raises ValueError.
    """
    n = len(sigma)
    if not 1 <= j <= n:
        raise ValueError(f"slot j={j} out of range for N={n}")
    p, q = rates.p, rates.q
    inv = inverse(sigma)
    pairs = PairTable.of(xi, rates)

    # 1 + S between entry 1 (or 2) and the entry sigma holds in slot k
    def c1(k):
        return pairs[(1, sigma[k - 1])]

    def c2(k):
        return pairs[(2, sigma[k - 1])]

    if nu_pos == 1:
        if inv[0] < j:
            return 0
        value = p - q * (c1(j) - 1)
        for k in range(j - 1, 0, -1):
            value = value * (q * c1(k))
        return value

    if nu_pos == 2:
        if inv[0] < j or inv[1] + inversions_below(sigma, 2) < j:
            raise ValueError(
                "closed form for nu_pos=2 only holds when the 1 and the 2 "
                f"in sigma={sigma} both sit at or right of slot j={j}"
            )
        total = 0
        for i in range(1, j):
            term = 1
            for k in range(1, i):
                term = term * (q * c2(k))
            term = term * (p - q * (c2(i) - 1)) * (q - p * (c1(i) - 1))
            for k in range(i + 1, j):
                term = term * (q * c1(k))
            term = term * (p - q * (c1(j) - 1))
            total = total + term
        tail = 1
        for k in range(1, j):
            tail = tail * (q * c2(k))
        tail = tail * (p - q * (c2(j) - 1)) * (p * c1(j))
        return total + tail

    raise ValueError(f"nu_pos must be 1 or 2, got {nu_pos}")


# --- braid relation verification ------------------------------------------


@dataclass
class BraidReport:
    passed: bool
    checks: int
    counterexample: dict | None = None


def _default_labelings(n: int) -> list[SpeciesMap]:
    two = tuple([1] + [2] * (n - 1))
    mixed = tuple([2, 1] + [2] * (n - 2))
    three = tuple(min(k, 3) for k in range(1, n + 1))
    return [two, mixed, three]


def check_braid_relations(n: int, xi, rates: RateParams) -> BraidReport:
    """Exhaustively check, above every sigma and every point-mass table on
    the rearrangements of (1, 2, ..., 2), (2, 1, 2, ..., 2) and
    (1, 2, 3, ..., 3), that the exchange operators square to the identity,
    commute at distance, and satisfy the braid relation.

    Exact equality: the first violated pair is returned as a
    counterexample.  The walk runs on the integers of
    ``PairTable.over_common_denominator``, and each side is scaled by D to
    the other side's length before the comparison.  Points or rates that
    are not rational raise ValueError: ``==`` on floats would report
    roundoff as a broken relation.
    """
    walk = PairTable.of(xi, rates).over_common_denominator()
    if walk is None:
        raise ValueError(
            "the braid relations are checked exactly: xi and rates must be rational"
        )
    scale = walk[2]
    relations: list[tuple[Word, Word]] = []
    for i in range(1, n):
        relations.append(((i, i), ()))
        for jj in range(i + 2, n):
            relations.append(((i, jj), (jj, i)))
        if i + 1 < n:
            relations.append(((i, i + 1, i), (i + 1, i, i + 1)))
    checks = 0
    for nu in _default_labelings(n):
        for pi in species_orbit(nu):
            for sigma in all_permutations(n):
                base = {pi: 1}
                for left, right in relations:
                    end_l, h_l = braid_apply(left, sigma, base, *walk)
                    end_r, h_r = braid_apply(right, sigma, base, *walk)
                    checks += 1
                    # both sides at D ** (len(left) + len(right))
                    if end_l != end_r or _times(h_l, scale ** len(right)) != _times(
                        h_r, scale ** len(left)
                    ):
                        return BraidReport(
                            passed=False,
                            checks=checks,
                            counterexample={
                                "sigma": sigma,
                                "pi": pi,
                                "left": left,
                                "right": right,
                            },
                        )
    return BraidReport(passed=True, checks=checks)


# --- exact sweeps at random rational points --------------------------------


def rational_points(rng: np.random.Generator, n: int, rates: RateParams):
    """n distinct rationals with small numerators and denominators, drawn
    again, up to 200 times, until no ordered pair sits on a scattering
    pole."""
    for _ in range(200):
        xi = tuple(
            Fraction(int(rng.integers(1, 40)), int(rng.integers(41, 120)))
            for _ in range(n)
        )
        if len(set(xi)) != n:
            continue
        if all(f_factor(v, u, rates) != 0 for u in xi for v in xi):
            return xi
    raise RuntimeError("could not find a pole-free rational point")


def braid_sweep(n: int, rates: RateParams, points: int, seed: int) -> BraidReport:
    """``check_braid_relations`` at ``points`` random rational points drawn
    from ``seed``, stopping at the first failure.  A counterexample holds
    strings and names its point under "xi"."""
    seed = check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    checks = 0
    for _ in range(points):
        xi = rational_points(rng, n, rates)
        rep = check_braid_relations(n, xi, rates)
        checks += rep.checks
        if not rep.passed:
            counterexample = {k: str(v) for k, v in rep.counterexample.items()}
            counterexample["xi"] = str([str(v) for v in xi])
            return BraidReport(passed=False, checks=checks, counterexample=counterexample)
    return BraidReport(passed=True, checks=checks)


@dataclass
class SecondClassReport:
    passed: bool
    checks: int
    outside_validity: int
    counterexample: dict | None = None


def second_class_sweep(max_n: int, rates: RateParams, seed: int) -> SecondClassReport:
    """Every second-class closed form against the recursion, for N = 2 ..
    max_n at one random rational point per N drawn from ``seed``: both
    start slots, every sigma and every destination slot.  Pairs outside
    the proven region are counted, not checked; the sweep stops at the
    first mismatch, whose counterexample holds strings."""
    seed = check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    checks = outside = 0
    for n in range(2, max_n + 1):
        pairs = PairTable(rational_points(rng, n, rates), rates)
        for nu_pos in (1, 2):
            nu = tuple(1 if k == nu_pos else 2 for k in range(1, n + 1))
            tables = coefficient_table(nu, pairs, rates)
            for sigma in all_permutations(n):
                table = tables[sigma]
                for j in range(1, n + 1):
                    pi = tuple(1 if k == j else 2 for k in range(1, n + 1))
                    try:
                        closed = second_class_coefficient(sigma, nu_pos, j, pairs, rates)
                    except ValueError:
                        outside += 1
                        continue
                    checks += 1
                    if table.get(pi, 0) != closed:
                        return SecondClassReport(
                            passed=False,
                            checks=checks,
                            outside_validity=outside,
                            counterexample={
                                "n": str(n),
                                "nu_pos": str(nu_pos),
                                "sigma": str(sigma),
                                "j": str(j),
                                "recursion": str(table.get(pi, 0)),
                                "closed_form": str(closed),
                            },
                        )
    return SecondClassReport(passed=True, checks=checks, outside_validity=outside)
