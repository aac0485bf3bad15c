"""Symmetric group elements, reduced words, Bruhat orders, bubble sorting.

Permutations are tuples in one-line notation with values 1..n.  A
permutation acts on a composition by moving the entry at position i to
position w(i), so that acting on the decreasing rearrangement recovers any
orbit element.
"""
from __future__ import annotations

from dataclasses import dataclass

from .shapes import Composition, decreasing_rearrangement
from .tableaux import key_columns

Permutation = tuple[int, ...]


def check_permutation(w) -> Permutation:
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def longest(n: int) -> Permutation:
    """The order-reversing permutation, maximal in Bruhat order.

    >>> longest(3)
    (3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def length(w) -> int:
    """Number of inversions, which equals the reduced-word length.

    >>> length((2, 1, 5, 3, 4))
    3
    """
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def compose(u, v) -> Permutation:
    """(u o v)(i) = u(v(i))."""
    if len(u) != len(v):
        raise ValueError("size mismatch")
    return tuple(u[v[i] - 1] for i in range(len(v)))


def inverse(w) -> Permutation:
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi - 1] = i + 1
    return tuple(inv)


def simple(n: int, i: int) -> Permutation:
    """The adjacent transposition swapping i and i+1."""
    if not 1 <= i < n:
        raise ValueError(f"simple transposition index {i} out of range for n={n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def act(w, gamma) -> Composition:
    """Position action on compositions: the entry at i moves to w(i).

    >>> act((2, 1, 5, 3, 4), (3, 1, 1, 0, 0))
    (1, 3, 0, 0, 1)
    """
    if len(w) != len(gamma):
        raise ValueError("size mismatch")
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi - 1] = gamma[i]
    return tuple(out)


def from_word(n: int, word) -> Permutation:
    """Product of simple transpositions, rightmost index applied first."""
    w = identity(n)
    for i in word:
        w = compose(w, simple(n, i))
    return w


@dataclass(frozen=True)
class ReducedWord:
    """A word (i_N, ..., i_1) whose product has length N, verified."""

    word: tuple[int, ...]
    n: int

    def __post_init__(self):
        perm = from_word(self.n, self.word)
        if length(perm) != len(self.word):
            raise ValueError(f"word {self.word} is not reduced in S_{self.n}")

    def permutation(self) -> Permutation:
        return from_word(self.n, self.word)


def reduced_word(w) -> tuple[int, ...]:
    """A reduced word for w by repeatedly stripping the leftmost descent."""
    w = check_permutation(w)
    v = list(w)
    picked = []
    while True:
        i = next((i for i in range(len(v) - 1) if v[i] > v[i + 1]), None)
        if i is None:
            break
        v[i], v[i + 1] = v[i + 1], v[i]
        picked.append(i + 1)
    return tuple(reversed(picked))


def tableau_criterion_leq(sigma, beta) -> bool:
    """Strong Bruhat order: compare the two permutations' staircase keys."""
    sigma, beta = check_permutation(sigma), check_permutation(beta)
    staircase = longest(len(sigma))
    return orbit_bruhat_leq(act(sigma, staircase), act(beta, staircase))


def orbit_bruhat_leq(alpha1, alpha2) -> bool:
    """Bruhat order on an orbit of compositions: key columns compared entrywise."""
    alpha1, alpha2 = tuple(alpha1), tuple(alpha2)
    if decreasing_rearrangement(alpha1) != decreasing_rearrangement(alpha2):
        raise ValueError(f"{alpha1} and {alpha2} are not rearrangements of each other")
    return all(
        a <= b
        for c1, c2 in zip(key_columns(alpha1), key_columns(alpha2))
        for a, b in zip(c1, c2)
    )


def min_coset_rep(gamma) -> Permutation:
    """The shortest permutation sending the sorted composition to ``gamma``.

    Built by reading the new elements of the key tableau's columns from the
    rightmost column to the first, each batch in increasing order, after
    prepending the full column when ``gamma`` has a zero entry.

    >>> min_coset_rep((1, 3, 0, 0, 1))
    (2, 1, 5, 3, 4)
    """
    gamma = tuple(gamma)
    cols = key_columns(gamma)
    if 0 in gamma or not cols:
        cols.insert(0, tuple(range(1, len(gamma) + 1)))
    seen: set[int] = set()
    word: list[int] = []
    for col in reversed(cols):
        word.extend(sorted(set(col) - seen))
        seen.update(col)
    return check_permutation(word)


def bubble_sort_op(i: int, gamma) -> Composition:
    """Sort positions i, i+1 into weakly increasing order.

    >>> bubble_sort_op(1, (2, 1))
    (1, 2)
    """
    gamma = tuple(gamma)
    if not 1 <= i < len(gamma):
        raise ValueError(f"index {i} out of range for length {len(gamma)}")
    if gamma[i - 1] > gamma[i]:
        gamma = gamma[: i - 1] + (gamma[i], gamma[i - 1]) + gamma[i + 1 :]
    return gamma


def apply_word(word, gamma) -> Composition:
    """Compose bubble sorts in operator order: rightmost index acts first."""
    gamma = tuple(gamma)
    for i in reversed(tuple(word)):
        gamma = bubble_sort_op(i, gamma)
    return gamma
