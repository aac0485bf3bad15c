"""Bruhat order on the orbit of a composition under rearrangement."""
from __future__ import annotations

from .shapes import decreasing_rearrangement
from .tableaux import key_columns


def orbit_bruhat_leq(alpha1, alpha2) -> bool:
    """Bruhat order on an orbit of compositions: key columns compared entrywise.

    >>> orbit_bruhat_leq((1, 0), (0, 1))
    True
    >>> orbit_bruhat_leq((0, 1), (1, 0))
    False
    """
    alpha1, alpha2 = tuple(alpha1), tuple(alpha2)
    if decreasing_rearrangement(alpha1) != decreasing_rearrangement(alpha2):
        raise ValueError(f"{alpha1} and {alpha2} are not rearrangements of each other")
    return all(
        a <= b
        for c1, c2 in zip(key_columns(alpha1), key_columns(alpha2))
        for a, b in zip(c1, c2)
    )
