"""Semi-skyline augmented fillings and Mason's insertion.

An SSAF lives over a basement 1..n (row 0); column j holds a stack of
entries whose bottom cell repeats the basement value j, columns weakly
decrease going up, and every triple of cells in the two configurations
below is an inversion triple.  The shape is the vector of column heights.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .shapes import Composition
from .tableaux import SSYT, insert_word, json_int_lists, key_tableau


@dataclass(frozen=True)
class SSAF:
    """Columns bottom-to-top over the basement 1..n; may be unvalidated."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for col in self.columns:
            for e in col:
                if not 1 <= e <= self.n:
                    raise ValueError(f"entry {e} outside alphabet [1, {self.n}]")

    @property
    def n(self) -> int:
        return len(self.columns)

    @cached_property
    def shape(self) -> Composition:
        return tuple(len(c) for c in self.columns)

    def size(self) -> int:
        return sum(len(c) for c in self.columns)

    def content(self) -> Composition:
        counts = [0] * self.n
        for col in self.columns:
            for e in col:
                counts[e - 1] += 1
        return tuple(counts)

    def pretty(self) -> str:
        lines = []
        for r in range(max(self.shape, default=0), 0, -1):
            lines.append(
                " ".join(
                    str(col[r - 1]) if len(col) >= r else "." for col in self.columns
                )
            )
        lines.append(" ".join(str(j + 1) for j in range(self.n)))
        return "\n".join(lines)


def empty_ssaf(n: int) -> SSAF:
    return SSAF(((),) * n)


def key_ssaf(gamma) -> SSAF:
    """The unique SSAF with shape and content ``gamma``: all of column j is j."""
    gamma = tuple(gamma)
    return SSAF(tuple((j + 1,) * g for j, g in enumerate(gamma)))


def _basics_ok(filling: SSAF) -> bool:
    for j, col in enumerate(filling.columns):
        if col and col[0] != j + 1:
            return False
        if any(col[r] < col[r + 1] for r in range(len(col) - 1)):
            return False
    return True


def validate(filling: SSAF) -> bool:
    """True iff the filling is a genuine SSAF: the package's one validity test."""
    if not _basics_ok(filling):
        return False
    # Inequality form of the two triple conditions (ties resolved by the
    # reading order, which reduces to plain <= between the raw values).
    cols = filling.columns
    h = filling.shape
    n = filling.n

    def val(r, j):
        return cols[j][r - 1] if r >= 1 else j + 1

    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            if h[j1] >= h[j2]:
                # type 1: a over b in the left column, c at a's row right;
                # inversion unless F(a) <= F(c) <= F(b)
                for i in range(1, h[j2] + 1):
                    a, b, c = val(i, j1), val(i - 1, j1), val(i, j2)
                    if a <= c <= b:
                        return False
            if h[j2] > h[j1]:
                # type 2: a left, b over c in the taller right column;
                # inversion unless F(b) <= F(a) <= F(c)
                for i in range(0, h[j1] + 1):
                    a, b, c = val(i, j1), val(i + 1, j2), val(i, j2)
                    if b <= a <= c:
                        return False
    return True


def insert_columns(k: int, columns):
    """Mason's insertion of the letter k into raw columns, with the bump chain.

    Scans the cells in reading order (rows top to bottom, basement
    included).  A cell admits the carried value x when its entry is >= x
    and the cell above holds something smaller (or is empty); bumping swaps
    and the scan continues, while an empty cell above ends the procedure by
    creating a new cell.  Only the columns that change are copied.

    Returns (new columns, terminal height, terminal column, carried values).
    """
    n = len(columns)
    if not 1 <= k <= n:
        raise ValueError(f"letter {k} outside alphabet [1, {n}]")
    cols = list(columns)
    x = k
    chain = [k]
    for r in range(max(map(len, cols), default=0), -1, -1):
        for j, col in enumerate(cols):
            if len(col) < r or (col[r - 1] if r else j + 1) < x:
                continue
            if len(col) > r:
                if col[r] < x:
                    cols[j], x = col[:r] + (x,) + col[r + 1 :], col[r]
                    chain.append(x)
                continue
            # the terminal column is the rightmost one reaching this height
            if any(len(c) == r + 1 for c in cols[j + 1 :]):
                raise AssertionError(
                    "the terminal column must be the rightmost one of its height"
                )
            cols[j] = col + (x,)
            return tuple(cols), r + 1, j + 1, tuple(chain)
    raise AssertionError("insertion scan exhausted; filling was not a valid SSAF")


def insert_with_chain(k: int, filling: SSAF):
    """:func:`validate`, then :func:`insert_columns`: (new SSAF, height, column, chain)."""
    if not validate(filling):
        raise ValueError("not a valid SSAF")
    cols, h, col, chain = insert_columns(k, filling.columns)
    return SSAF(cols), h, col, chain


def insert(k: int, filling: SSAF) -> tuple[SSAF, int, int]:
    """Insert k; returns the new SSAF with the terminal height and column.

    A ``filling`` that :func:`validate` rejects raises ``ValueError``.

    >>> insert(1, key_ssaf((0, 1)))
    (SSAF(columns=((), (2, 1))), 2, 2)
    """
    new, h, col, _ = insert_with_chain(k, filling)
    return new, h, col


def psi(tab: SSYT) -> SSAF:
    """Mason's bijection: insert the column word from right to left."""
    cols = empty_ssaf(tab.n).columns
    for letter in reversed(tab.column_word()):
        cols = insert_columns(letter, cols)[0]
    return SSAF(cols)


def psi_inverse(filling: SSAF) -> SSYT:
    """The unique tableau mapping to ``filling`` under :func:`psi`.

    Mason's map reads row r of the filling as column r of a reverse
    tableau, so Schensted insertion of the rows, top row first and each
    row in decreasing order, gives the preimage.  psi is a bijection onto
    the fillings :func:`validate` accepts, so others raise ``ValueError``.
    """
    if not validate(filling):
        raise ValueError("not a valid SSAF")
    columns = filling.columns
    word = [
        e
        for r in range(max(filling.shape, default=0) - 1, -1, -1)
        for e in sorted((c[r] for c in columns if len(c) > r), reverse=True)
    ]
    return insert_word(word, filling.n)


def right_key(tab: SSYT) -> SSYT:
    """The key tableau with content the shape of the skyline image."""
    return key_tableau(psi(tab).shape)


def ssaf_to_json(filling: SSAF) -> dict:
    return {"n": filling.n, "columns": [list(c) for c in filling.columns]}


def ssaf_from_json(data) -> SSAF:
    """Check the JSON form only: :func:`insert` and :func:`psi_inverse` validate."""
    filling = SSAF(json_int_lists(data, "columns"))
    n = data.get("n")
    if n is not None and type(n) is not int:
        raise ValueError(f"basement size must be an integer, got {n!r}")
    if n is not None and n != filling.n:
        raise ValueError("declared basement size does not match columns")
    return filling
