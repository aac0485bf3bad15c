"""Semi-standard Young tableaux, key tableaux, and evacuation.

Tableaux are stored row-major, bottom row first (French convention), with
an explicit alphabet bound ``n``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, zip_longest
from operator import itemgetter, le

from .shapes import Composition, composition, is_partition, num_parts


@dataclass(frozen=True)
class SSYT:
    """A semi-standard Young tableau over the alphabet 1..n.

    Rows weakly increase left to right; columns strictly increase going up.
    """

    rows: tuple[tuple[int, ...], ...]
    n: int

    @classmethod
    def _trusted(cls, rows, n: int) -> SSYT:
        """A tableau whose rows are known to be valid, built without checks."""
        tab = object.__new__(cls)
        tab.__dict__.update(rows=rows, n=n)
        return tab

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("alphabet bound must be non-negative")
        lengths = [len(r) for r in self.rows]
        if any(ln == 0 for ln in lengths) or not is_partition(tuple(lengths)):
            raise ValueError(f"row lengths {lengths} are not a partition shape")
        for r, row in enumerate(self.rows):
            for c, entry in enumerate(row):
                if not 1 <= entry <= self.n:
                    raise ValueError(f"entry {entry} outside alphabet [1, {self.n}]")
                if c > 0 and row[c - 1] > entry:
                    raise ValueError(f"row {r + 1} is not weakly increasing")
                if r > 0 and self.rows[r - 1][c] >= entry:
                    raise ValueError(f"column {c + 1} is not strictly increasing")

    @property
    def shape(self) -> Composition:
        return tuple(len(r) for r in self.rows)

    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def column_word(self) -> tuple[int, ...]:
        """The entries column by column, left to right, each read top to bottom."""
        # entries are positive, so the filter drops only the short rows' padding
        return tuple(filter(None, chain.from_iterable(zip_longest(*self.rows[::-1]))))

    def content(self) -> Composition:
        """Multiplicity vector of the letters 1..n."""
        counts = [0] * self.n
        for row in self.rows:
            for entry in row:
                counts[entry - 1] += 1
        return tuple(counts)

    def max_entry(self) -> int:
        return max((row[-1] for row in self.rows), default=0)

    def pretty(self) -> str:
        if not self.rows:
            return "(empty tableau)"
        return "\n".join(" ".join(map(str, row)) for row in reversed(self.rows))


def key_columns(gamma) -> list[tuple[int, ...]]:
    """The columns of the key tableau of ``gamma``: column j is {i : gamma_i >= j}.

    >>> key_columns((1, 3, 0, 0, 1))
    [(1, 2, 5), (2,), (2,)]
    """
    cols: list[list[int]] = [[] for _ in range(max(gamma, default=0))]
    for i, g in enumerate(gamma):
        for col in cols[:g]:
            col.append(i + 1)
    return [tuple(col) for col in cols]


def key_tableau(gamma) -> SSYT:
    """The unique key tableau with content ``gamma`` (shape is its sort)."""
    gamma = composition(gamma)
    rows = zip_longest(*key_columns(gamma))  # row r: entry r of each column, or None
    return SSYT(tuple(tuple(filter(None, row)) for row in rows), len(gamma))


def is_key(tab: SSYT) -> bool:
    """True when ``tab`` is the key tableau of its own content."""
    return key_tableau(tab.content()) == tab


def entrywise_leq(tab1: SSYT, tab2: SSYT) -> bool:
    """Cellwise comparison of two equal-shape tableaux."""
    if tab1.shape != tab2.shape:
        raise ValueError(f"shape mismatch: {tab1.shape} vs {tab2.shape}")
    return all(
        a <= b for r1, r2 in zip(tab1.rows, tab2.rows) for a, b in zip(r1, r2)
    )


def _row_insert(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Schensted row insertion into mutable rows; returns the new cell."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([x])
            return r, 0
        row = rows[r]
        # bump the leftmost entry strictly greater than x
        pos = None
        for c, entry in enumerate(row):
            if entry > x:
                pos = c
                break
        if pos is None:
            row.append(x)
            return r, len(row) - 1
        row[pos], x = x, row[pos]
        r += 1


def insert_word(word, n: int) -> SSYT:
    """Insertion tableau of a word under Schensted row insertion."""
    rows: list[list[int]] = []
    for x in word:
        _row_insert(rows, x)
    return SSYT(tuple(tuple(r) for r in rows), n)


def evacuation(tab: SSYT) -> SSYT:
    """Schuetzenberger evacuation: rectify the reversed complement word.

    An involution that preserves the shape and reverses the content; on key
    tableaux it reverses the defining composition.
    """
    n = tab.n
    word = [n + 1 - a for a in reversed(tab.column_word())]
    return insert_word(word, n)


def column_words(lam, n: int) -> tuple[Composition, list[tuple[int, ...]]]:
    """``lam`` without zero parts, and the increasing column words of every
    SSYT of that shape over [n].  Columns, read top to bottom, are picked
    left to right among the decreasing tuples over [n] in lexicographic
    order, each among those at least the column on its left row by row.
    """
    lam = composition(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam!r}")
    lam = lam[: num_parts(lam)]
    if len(lam) > n:
        raise ValueError(f"shape {lam} has more than n={n} rows")
    heights = [sum(1 for part in lam if part > c) for c in range(lam[0] if lam else 0)]
    columns = {h: [*combinations(range(n, 0, -1), h)][::-1] for h in set(heights)}
    choices: dict = {}
    words = [()]
    for h in heights:
        grown = []
        for word in words:
            left = word[-h:]  # the left column's bottom h entries; none at first
            if left not in choices:
                choices[left] = [c for c in columns[h] if all(map(le, left, c))]
            grown += [word + c for c in choices[left]]
        words = grown
    return lam, words


def word_to_rows(lam):
    """The map from a column word of shape ``lam``, a partition without zero
    parts, to its tableau's rows: ``word_to_rows((2, 1))((2, 1, 1))`` is
    ``((1, 1), (2,))``."""
    top_down = range(len(lam) - 1, -1, -1)
    row_of = [r for c in range(lam[0] if lam else 0) for r in top_down if lam[r] > c]
    rows = [[pos for pos, r in enumerate(row_of) if r == row] for row in range(len(lam))]
    # an itemgetter of one position returns the entry itself, not a 1-tuple
    get = [itemgetter(*row) if len(row) > 1 else (lambda w, p=row[0]: (w[p],)) for row in rows]
    return lambda word: tuple([g(word) for g in get])


def enumerate_ssyt(lam, n: int):
    """Every SSYT of shape ``lam`` with entries <= n, by increasing column word,
    built unchecked since each is valid by construction.  The call lists every
    column word, rejecting a bad shape, before the first tableau is yielded."""
    lam, words = column_words(lam, n)
    rows = word_to_rows(lam)
    return (SSYT._trusted(rows(word), n) for word in words)


def ssyt_to_json(tab: SSYT) -> dict:
    return {"shape": list(tab.shape), "rows": [list(r) for r in tab.rows], "n": tab.n}


def json_int_lists(data, field: str) -> tuple[tuple[int, ...], ...]:
    """``data[field]`` of a JSON object, checked to be a list of integer lists."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    value = data.get(field)
    if not isinstance(value, list) or not all(
        isinstance(item, list) and all(type(e) is int for e in item) for item in value
    ):
        raise ValueError(f"{field!r} must be a list of lists of integers")
    return tuple(tuple(item) for item in value)


def ssyt_from_json(data, n=None) -> SSYT:
    rows = json_int_lists(data, "rows")
    bound = n if n is not None else data.get("n")
    if bound is None:
        bound = max((e for row in rows for e in row), default=0)
    if type(bound) is not int:
        raise ValueError(f"alphabet bound must be an integer, got {bound!r}")
    tab = SSYT(rows, bound)
    if "shape" in data and data["shape"] != list(tab.shape):
        raise ValueError("declared shape does not match rows")
    return tab
