import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skyline.shapes import (
    cells,
    composition,
    compositions_with_sum,
    decreasing_rearrangement,
    truncated_staircase,
)
from oracles import orbit, stabiliser_order

comps = st.lists(st.integers(0, 4), min_size=0, max_size=5).map(tuple)


def test_truncated_staircase_examples():
    assert truncated_staircase(5, 4, 3) == (4, 4, 3)
    assert truncated_staircase(3, 3, 3) == (3, 2, 1)
    assert truncated_staircase(4, 3, 2) == (3, 3)


def test_truncated_staircase_has_k_parts():
    for n in range(1, 7):
        for m in range(1, n + 1):
            for k in range(1, n + 1):
                if n + 1 > m + k:
                    continue
                lam = truncated_staircase(n, m, k)
                assert len(lam) == k
                assert all(p > 0 for p in lam)


def test_truncated_staircase_special_cases():
    # rectangle when n + 1 = m + k, staircase tail when m = n
    assert truncated_staircase(6, 4, 3) == (4, 4, 4)
    assert truncated_staircase(5, 5, 3) == (5, 4, 3)


@pytest.mark.parametrize("n,m,k", [(5, 6, 3), (5, 0, 3), (5, 1, 1), (3, 1, 2), (4, 4, 0)])
def test_truncated_staircase_rejects(n, m, k):
    with pytest.raises(ValueError):
        truncated_staircase(n, m, k)


def test_cells_examples():
    assert cells((2, 1)) == {(1, 1), (1, 2), (2, 1)}
    stair = cells(truncated_staircase(3, 3, 3))
    assert stair == {(i, j) for i in range(1, 4) for j in range(1, 4) if i + j <= 4}
    assert len(cells((3, 3))) == 6


def test_cells_count_is_size():
    for n, m, k in [(5, 4, 3), (4, 3, 2), (6, 6, 6), (4, 4, 3)]:
        lam = truncated_staircase(n, m, k)
        assert len(cells(lam)) == sum(lam)


def test_cells_requires_partition():
    with pytest.raises(ValueError):
        cells((1, 2))


def test_decreasing_rearrangement_examples():
    assert decreasing_rearrangement((1, 0, 3, 0, 1, 2, 0)) == (3, 2, 1, 1, 0, 0, 0)
    assert decreasing_rearrangement((2, 0, 4, 3, 1)) == (4, 3, 2, 1, 0)
    assert decreasing_rearrangement((3, 2, 2)) == (3, 2, 2)


def test_orbit_examples():
    assert orbit((1, 0)) == {(1, 0), (0, 1)}
    assert len(orbit((3, 1, 0))) == 6
    assert orbit((2, 2)) == {(2, 2)}


def test_orbit_cardinality():
    for lam in [(3, 1, 0), (2, 2, 0), (1, 1, 1), (4, 2, 1, 0)]:
        assert len(orbit(lam)) == math.factorial(len(lam)) // stabiliser_order(lam)


@given(comps)
def test_orbit_membership(gamma):
    lam = decreasing_rearrangement(gamma)
    assert gamma in orbit(lam)
    assert lam in orbit(lam)


def test_composition_rejects_negative():
    with pytest.raises(ValueError):
        composition((1, -1))


def test_compositions_with_sum():
    assert list(compositions_with_sum(0, 0)) == [()]
    assert list(compositions_with_sum(2, 0)) == []
    got = set(compositions_with_sum(3, 2))
    assert got == {(3, 0), (2, 1), (1, 2), (0, 3)}
