"""Permutations in one-line notation, with the word machinery the
transition-probability formulas need.

A permutation of {1, ..., N} is a plain tuple of ints: ``sigma[i - 1]`` is
the entry in slot ``i``.  Slots and entries are both 1-based, matching the
convention used everywhere else in this package.  ``adjacent_swap(sigma, i)``
interchanges the entries in slots i and i+1; words of such swaps are tuples
of slot indices and are applied rightmost letter first.

>>> sigma = (3, 1, 2)
>>> inverse(sigma)
(2, 3, 1)
>>> adjacent_swap(sigma, 1)
(1, 3, 2)
>>> sorted(inversions((3, 1, 2)))
[(3, 1), (3, 2)]
>>> canonical_word((4, 3, 2, 1))
(3, 2, 1, 3, 2, 3)
>>> word_to_permutation((3, 2, 1, 3, 2, 3), 4)
(4, 3, 2, 1)
"""

from __future__ import annotations

import itertools
from collections import Counter

Permutation = tuple[int, ...]
Word = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def inverse(sigma: Permutation) -> Permutation:
    """Slot of each entry: inverse(sigma)[k - 1] is where k sits.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    inv = [0] * len(sigma)
    for slot, entry in enumerate(sigma, start=1):
        inv[entry - 1] = slot
    return tuple(inv)


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """Right-to-left composition: compose(s, t)(i) = s(t(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    return tuple(sigma[t - 1] for t in tau)


def adjacent_swap(sigma: Permutation, i: int) -> Permutation:
    """Interchange the entries in slots i and i+1 (1 <= i <= N-1)."""
    if not 1 <= i <= len(sigma) - 1:
        raise ValueError(f"swap slot {i} out of range for N={len(sigma)}")
    s = list(sigma)
    s[i - 1], s[i] = s[i], s[i - 1]
    return tuple(s)


def word_to_permutation(word: Word, n: int) -> Permutation:
    """Apply a swap word to the identity, rightmost letter first."""
    sigma = identity(n)
    for i in reversed(word):
        sigma = adjacent_swap(sigma, i)
    return sigma


def inversions(sigma: Permutation) -> set[tuple[int, int]]:
    """Entry pairs (a, b) with a > b and a sitting left of b.

    >>> inversions((2, 1))
    {(2, 1)}
    >>> len(inversions((4, 3, 2, 1)))
    6
    """
    inv = inverse(sigma)
    return {
        (a, b)
        for a in sigma
        for b in sigma
        if a > b and inv[a - 1] < inv[b - 1]
    }


def length(sigma: Permutation) -> int:
    """Coxeter length: the inversion count."""
    return len(inversions(sigma))


def inversions_below(sigma: Permutation, k: int) -> int:
    """Number of entries smaller than k sitting to the right of k.

    >>> inversions_below((3, 2, 5, 4, 1), 2)
    1
    """
    inv = inverse(sigma)
    return sum(1 for j in range(1, k) if inv[j - 1] > inv[k - 1])


def canonical_word(sigma: Permutation) -> Word:
    """The sorting word used to anchor every coefficient recursion.

    Entry k contributes the descending run (l_k, l_k - 1, ..., k) with
    l_k = inverse(sigma)[k-1] + inversions_below(sigma, k) - 1; runs with
    l_k < k are empty.  Runs are concatenated with larger k to the right,
    and the word applied to the identity (rightmost letter first) rebuilds
    sigma.  Its length equals the inversion count.

    >>> canonical_word((4, 3, 2, 1))
    (3, 2, 1, 3, 2, 3)
    >>> canonical_word((1, 2, 3))
    ()
    """
    inv = inverse(sigma)
    word: list[int] = []
    for k in range(1, len(sigma)):
        top = inv[k - 1] + inversions_below(sigma, k) - 1
        word.extend(range(top, k - 1, -1))
    return tuple(word)


def reduced_words(sigma: Permutation):
    """Yield every reduced word for sigma (length == inversion count).

    Recursion on left descents: each word starts with a slot i where the
    entries of sigma descend, continuing with a word for the shorter
    adjacent_swap(sigma, i).

    >>> sorted(reduced_words((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    """
    if sigma == identity(len(sigma)):
        yield ()
        return
    for i in range(1, len(sigma)):
        if sigma[i - 1] > sigma[i]:
            for rest in reduced_words(adjacent_swap(sigma, i)):
                yield (i,) + rest


def all_permutations(n: int) -> list[Permutation]:
    """All of S_N in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def species_orbit(nu: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All distinct rearrangements of a labeling, lexicographically sorted.
    Each prefix is extended by the distinct labels it has left, so the
    cost grows with the orbit, not with N!."""
    labels = Counter(nu)
    orbit = [()]
    for _ in nu:
        orbit = [o + (v,) for o in orbit for v in sorted(labels - Counter(o))]
    return orbit


def inversion_classes(n: int) -> dict[frozenset[int], list[Permutation]]:
    """Partition the sigma with sigma(N) != N by the set B of entries b
    such that (N, b) is an inversion.

    Every nonempty B subset of {1, ..., N-1} whose classes are nonempty
    appears as a key; the classes partition {sigma : sigma(N) != N}.

    >>> {tuple(sorted(b)): len(cls) for b, cls in sorted(
    ...     inversion_classes(3).items(), key=lambda kv: sorted(kv[0]))}
    {(1,): 1, (1, 2): 2, (2,): 1}
    """
    classes: dict[frozenset[int], list[Permutation]] = {}
    n_entry = n
    for sigma in all_permutations(n):
        if sigma[n - 1] == n_entry:
            continue
        b = frozenset(pair[1] for pair in inversions(sigma) if pair[0] == n_entry)
        classes.setdefault(b, []).append(sigma)
    return classes
