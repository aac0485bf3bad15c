"""Weak compositions, partitions, Ferrers diagrams, and truncated staircases.

A weak composition is a plain tuple of non-negative integers.  Length is
significant everywhere: ``(1, 0)`` and ``(1,)`` are different objects and
nothing in this package pads implicitly.
"""
from __future__ import annotations

Composition = tuple[int, ...]


def composition(entries) -> Composition:
    """Coerce ``entries`` to a weak composition, rejecting bad values.

    >>> composition([1, 0, 3])
    (1, 0, 3)
    """
    comp = tuple(entries)
    for e in comp:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"not a weak composition: {comp!r}")
    return comp


def is_partition(gamma) -> bool:
    """True if the entries weakly decrease."""
    return all(gamma[i] >= gamma[i + 1] for i in range(len(gamma) - 1))


def partition(entries) -> Composition:
    """Coerce to a partition, i.e. a weakly decreasing composition."""
    lam = composition(entries)
    if not is_partition(lam):
        raise ValueError(f"not weakly decreasing: {lam!r}")
    return lam


def num_parts(lam) -> int:
    """Number of positive entries."""
    return sum(1 for e in lam if e > 0)


def decreasing_rearrangement(gamma) -> Composition:
    """The unique partition with the same multiset of entries.

    >>> decreasing_rearrangement((1, 0, 3, 0, 1, 2, 0))
    (3, 2, 1, 1, 0, 0, 0)
    """
    return tuple(sorted(gamma, reverse=True))


def reverse(gamma) -> Composition:
    """Reversal, i.e. the action of the longest permutation."""
    return tuple(reversed(gamma))


def truncated_staircase(n: int, m: int, k: int) -> Composition:
    """The partition (m^(n-m+1), m-1, ..., n-k+1), with exactly k parts.

    The staircase of size n cut by smaller staircases at a corner; requires
    1 <= m <= n, 1 <= k <= n and n + 1 <= m + k.

    >>> truncated_staircase(5, 4, 3)
    (4, 4, 3)
    >>> truncated_staircase(3, 3, 3)
    (3, 2, 1)
    """
    if not (1 <= m <= n and 1 <= k <= n and n + 1 <= m + k):
        raise ValueError(f"invalid truncated staircase parameters n={n}, m={m}, k={k}")
    return tuple([m] * (n - m + 1) + list(range(m - 1, n - k, -1)))


def cells(lam) -> set[tuple[int, int]]:
    """French-convention cell set {(row, col)} of a partition diagram."""
    lam = partition(lam)
    return {(i + 1, j + 1) for i, row in enumerate(lam) for j in range(row)}


def compositions_with_sum(total: int, length: int):
    """Yield all weak compositions of ``total`` with the given length."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in compositions_with_sum(total - first, length - 1):
            yield (first,) + rest
