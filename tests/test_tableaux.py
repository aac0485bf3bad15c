import itertools

import pytest

from skyline.shapes import decreasing_rearrangement, reverse
from skyline.tableaux import (
    SSYT,
    entrywise_leq,
    enumerate_ssyt,
    evacuation,
    is_key,
    key_tableau,
    ssyt_from_json,
    ssyt_to_json,
)
from oracles import is_key_by_columns
from util import BENCH_SHAPES, partitions_up_to, small_compositions

T_RAGGED = SSYT(((1, 1, 2, 3), (2, 3), (3, 4)), 4)  # shape (4, 2, 2)
T_BIG = SSYT(((1, 1, 1, 3), (2, 3, 4), (3, 4), (5,)), 5)


def test_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        SSYT(((2, 1),), 2)  # row decreases
    with pytest.raises(ValueError):
        SSYT(((1, 1), (1,)), 2)  # column not strict
    with pytest.raises(ValueError):
        SSYT(((1,), (2, 2)), 2)  # shape not a partition
    with pytest.raises(ValueError):
        SSYT(((3,),), 2)  # entry above alphabet


def test_column_word_examples():
    assert T_RAGGED.column_word() == (3, 2, 1, 4, 3, 1, 2, 3)
    assert SSYT(((2,),), 3).column_word() == (2,)
    assert key_tableau((2, 1, 0)).column_word() == (2, 1, 1)


def test_content_examples():
    assert T_RAGGED.content() == (2, 2, 3, 1)
    assert SSYT((), 3).content() == (0, 0, 0)
    gamma = (1, 3, 0, 0, 1)
    assert key_tableau(gamma).content() == gamma


def test_key_tableau_examples():
    assert key_tableau((1, 3, 0, 0, 1)).rows == ((1, 2, 2), (2,), (5,))
    expected_cols = [{1, 3, 4, 5}, {1, 3, 4}, {3, 4}, {3}]
    tab = key_tableau((2, 0, 4, 3, 1))
    cols = [
        {row[c] for row in tab.rows if len(row) > c} for c in range(len(tab.rows[0]))
    ]
    assert cols == expected_cols
    # a partition's key tableau has row i filled with the letter i
    assert key_tableau((3, 2, 0)).rows == ((1, 1, 1), (2, 2))


def test_key_tableau_content_shape_injective():
    seen = {}
    for gamma in small_compositions(5, 4):
        tab = key_tableau(gamma)
        assert tab.content() == gamma
        assert tab.shape == tuple(
            p for p in decreasing_rearrangement(gamma) if p > 0
        )
        assert seen.setdefault(tab, gamma) == gamma


def test_is_key():
    for gamma in small_compositions(4, 3):
        assert is_key(key_tableau(gamma))
    assert not is_key(T_RAGGED)
    assert not is_key(SSYT(((1, 2),), 2))
    assert is_key(SSYT(((1, 1),), 2))


def test_is_key_matches_nested_columns_oracle():
    checked = 0
    for n in range(6):
        for lam in partitions_up_to(6, n):
            for tab in enumerate_ssyt(lam, n):
                assert is_key(tab) == is_key_by_columns(tab)
                checked += 1
    assert checked == 4415


def test_evacuation_key_identity():
    assert evacuation(key_tableau((1, 3, 0, 0, 1))) == key_tableau((1, 0, 0, 3, 1))
    for gamma in small_compositions(4, 3):
        assert evacuation(key_tableau(gamma)) == key_tableau(reverse(gamma))


def test_evacuation_involution_shape21():
    tabs = list(enumerate_ssyt((2, 1), 3))
    assert len(tabs) == 8
    for tab in tabs:
        out = evacuation(tab)
        assert out.shape == tab.shape
        assert out.content() == reverse(tab.content())
        assert evacuation(out) == tab


def test_evacuation_involution_broad():
    for n in (2, 3, 4):
        for lam in partitions_up_to(6, n, include_empty=False):
            for tab in enumerate_ssyt(lam, n):
                out = evacuation(tab)
                assert out.shape == tab.shape
                assert out.content() == reverse(tab.content())
                assert evacuation(out) == tab


def test_evacuation_of_yamanouchi():
    for n, lam in [(3, (2, 1)), (4, (3, 1, 1)), (3, (3,))]:
        padded = lam + (0,) * (n - len(lam))
        assert evacuation(key_tableau(padded)) == key_tableau(reverse(padded))


def test_entrywise_leq():
    tab = key_tableau((1, 0, 3))
    assert entrywise_leq(tab, tab)
    with pytest.raises(ValueError):
        entrywise_leq(key_tableau((1, 0, 3)), key_tableau((1, 1, 0)))


def test_enumerate_ssyt_counts():
    assert len(list(enumerate_ssyt((1,), 2))) == 2
    assert len(list(enumerate_ssyt((3, 1), 3))) == 15
    assert len(list(enumerate_ssyt((2, 1), 3))) == 8


def brute_force_ssyt(lam, n):
    """Independent oracle: fill every cell from 1..n and filter."""
    cells = [(r, c) for r, ln in enumerate(lam) for c in range(ln)]
    out = set()
    for combo in itertools.product(range(1, n + 1), repeat=len(cells)):
        grid = {}
        for cell, v in zip(cells, combo):
            grid[cell] = v
        ok = True
        for (r, c), v in grid.items():
            if c > 0 and grid[(r, c - 1)] > v:
                ok = False
                break
            if r > 0 and (r - 1, c) in grid and grid[(r - 1, c)] >= v:
                ok = False
                break
        if ok:
            rows = tuple(tuple(grid[(r, c)] for c in range(ln)) for r, ln in enumerate(lam))
            out.add(rows)
    return out


def test_enumerate_ssyt_matches_brute_force():
    for n in (2, 3, 4):
        for lam in partitions_up_to(6, n, include_empty=False):
            got = {t.rows for t in enumerate_ssyt(lam, n)}
            assert got == brute_force_ssyt(lam, n)


def test_enumerate_ssyt_builds_valid_tableaux_by_increasing_column_word():
    # the enumeration skips validation: each tableau must pass it unchanged
    cases = [(lam, n) for n in range(5) for lam in partitions_up_to(6, n)]
    cases += BENCH_SHAPES
    for lam, n in cases:
        tabs = list(enumerate_ssyt(lam, n))
        for tab in tabs:
            checked = SSYT(tab.rows, tab.n)
            assert checked == tab and hash(checked) == hash(tab)
            assert all(type(row) is tuple for row in tab.rows)
        words = [tab.column_word() for tab in tabs]
        assert all(a < b for a, b in zip(words, words[1:]))
    assert len(cases) == 82


def test_enumerate_ssyt_deterministic_and_restartable():
    first = [t.rows for t in enumerate_ssyt((2, 1), 3)]
    second = [t.rows for t in enumerate_ssyt((2, 1), 3)]
    assert first == second


def test_enumerate_ssyt_rejects_tall_shape():
    with pytest.raises(ValueError):
        list(enumerate_ssyt((1, 1, 1), 2))


def test_enumerate_ssyt_rejects_a_bad_shape_at_the_call():
    # the call itself raises, before any tableau is asked for
    with pytest.raises(ValueError, match=r"not a partition: \(1, 2\)"):
        enumerate_ssyt((1, 2), 3)
    with pytest.raises(ValueError, match="not a weak composition"):
        enumerate_ssyt((2, -1), 2)


def test_json_roundtrip():
    data = ssyt_to_json(T_BIG)
    assert ssyt_from_json(data) == T_BIG
    bad = {"shape": [2], "rows": [[1, 1], [2]], "n": 2}
    with pytest.raises(ValueError):
        ssyt_from_json(bad)
