"""Bruhat order on the orbit of a composition under rearrangement."""
from __future__ import annotations

from functools import lru_cache

from .shapes import decreasing_rearrangement
from .tableaux import key_columns


@lru_cache(maxsize=None)
def _key_word(alpha: tuple[int, ...]):
    """The orbit of ``alpha`` (its decreasing rearrangement) and the entries
    of its key columns, read column by column."""
    return decreasing_rearrangement(alpha), sum(key_columns(alpha), ())


def orbit_bruhat_leq(alpha1, alpha2) -> bool:
    """Bruhat order on an orbit of compositions: key columns compared entrywise.

    Rearrangements have key columns of the same lengths, so the comparison
    runs over the two flat column words, each built once per composition.

    >>> orbit_bruhat_leq((1, 0), (0, 1))
    True
    >>> orbit_bruhat_leq((0, 1), (1, 0))
    False
    """
    alpha1, alpha2 = tuple(alpha1), tuple(alpha2)
    orbit1, word1 = _key_word(alpha1)
    orbit2, word2 = _key_word(alpha2)
    if orbit1 != orbit2:
        raise ValueError(f"{alpha1} and {alpha2} are not rearrangements of each other")
    return all(map(int.__le__, word1, word2))
