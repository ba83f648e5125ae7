"""Word and inversion machinery underneath every amplitude and table."""

import doctest
import itertools

import pytest

from asep_exact import permutations as pm


def test_doctests():
    # attempted guards against the examples silently going missing
    assert doctest.testmod(pm) == (0, 15)


def test_inverse_compose_round_trip():
    for sigma in pm.all_permutations(4):
        assert pm.compose(sigma, pm.inverse(sigma)) == pm.identity(4)
        assert pm.compose(pm.inverse(sigma), sigma) == pm.identity(4)


def test_inverse_slots():
    sigma = (3, 1, 4, 2)
    inv = pm.inverse(sigma)
    for entry in range(1, 5):
        assert sigma[inv[entry - 1] - 1] == entry


def test_adjacent_swap_bounds():
    with pytest.raises(ValueError):
        pm.adjacent_swap((1, 2, 3), 0)
    with pytest.raises(ValueError):
        pm.adjacent_swap((1, 2, 3), 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_canonical_word_rebuilds_sigma(n):
    for sigma in pm.all_permutations(n):
        word = pm.canonical_word(sigma)
        assert pm.word_to_permutation(word, n) == sigma
        assert len(word) == pm.length(sigma)


def test_inversions_against_brute_force():
    for sigma in pm.all_permutations(5):
        inv = pm.inverse(sigma)
        brute = {
            (a, b)
            for a, b in itertools.combinations(range(1, 6), 2)
            if inv[b - 1] < inv[a - 1]
        }
        assert {(max(a, b), min(a, b)) for a, b in brute} == pm.inversions(sigma)


def test_reduced_words_all_reduced_and_distinct():
    sigma = (4, 3, 2, 1)
    words = list(pm.reduced_words(sigma))
    assert len(words) == len(set(words)) == 16
    for word in words:
        assert len(word) == 6
        assert pm.word_to_permutation(word, 4) == sigma


def test_reduced_words_identity():
    assert list(pm.reduced_words((1, 2, 3))) == [()]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inversion_classes_partition(n):
    classes = pm.inversion_classes(n)
    moved = [s for s in pm.all_permutations(n) if s[-1] != n]
    assert sorted(s for cls in classes.values() for s in cls) == sorted(moved)
    for b, cls in classes.items():
        assert b and b <= set(range(1, n))
        for sigma in cls:
            assert {pair[1] for pair in pm.inversions(sigma) if pair[0] == n} == set(b)
