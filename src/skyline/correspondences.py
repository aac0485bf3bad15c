"""Biwords, classical RSK, and the skyline analogue of RSK.

A biword is a lexicographically ordered sequence of biletters (i, j): the
top letters weakly increase, with ties broken by weakly increasing bottom
letters.  The skyline correspondence inserts the bottom row (right to
left) into one filling while recording the top row in a second one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .fillings import SSAF, empty_ssaf, insert_columns, psi_inverse
from .permutations import orbit_bruhat_leq
from .shapes import reverse
from .tableaux import SSYT, _row_insert


@dataclass(frozen=True)
class Biword:
    """Biletters over positive integers, in lexicographic order."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, j in self.pairs:
            if i < 1 or j < 1:
                raise ValueError(f"biletter ({i}, {j}) must be positive")
        if list(self.pairs) != sorted(self.pairs):
            raise ValueError(f"biword not in lexicographic order: {self.pairs}")

    def __len__(self) -> int:
        return len(self.pairs)

    def top(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)

    def bottom(self) -> tuple[int, ...]:
        return tuple(j for _, j in self.pairs)


def from_multiset(cells, n: int) -> Biword:
    """Sort a multiset of pairs over [n] x [n] into a biword."""
    pairs = tuple(sorted(tuple(c) for c in cells))
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"cell ({i}, {j}) outside [1, {n}]^2")
    return Biword(pairs)


def parse_biword(text: str) -> Biword:
    """Parse the two-row text form "i_1 ... i_l / j_1 ... j_l"."""
    top_text, _, bottom_text = text.partition("/")
    if not _:
        raise ValueError("biword text needs a '/' separating the two rows")
    top = [int(t) for t in top_text.split()]
    bottom = [int(t) for t in bottom_text.split()]
    if len(top) != len(bottom):
        raise ValueError("biword rows have different lengths")
    return Biword(tuple(zip(top, bottom)))


def format_biword(w: Biword) -> str:
    return " ".join(map(str, w.top())) + " / " + " ".join(map(str, w.bottom()))


def biword_to_json(w: Biword) -> list[list[int]]:
    return [[i, j] for i, j in w.pairs]


def biword_from_json(data) -> Biword:
    if not isinstance(data, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(type(e) is int for e in pair)
        for pair in data
    ):
        raise ValueError("a JSON biword must be a list of [i, j] integer pairs")
    return Biword(tuple(tuple(pair) for pair in data))


def rsk(w: Biword, n: int | None = None) -> tuple[SSYT, SSYT]:
    """Row-insert the bottom row, recording the top row cell by cell."""
    if n is None:
        n = max((max(i, j) for i, j in w.pairs), default=0)
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for i, j in w.pairs:
        r, c = _row_insert(p_rows, j)
        if r == len(q_rows):
            q_rows.append([])
        if c != len(q_rows[r]):
            raise AssertionError("row insertion must end at the end of its row")
        q_rows[r].append(i)
    make = lambda rows: SSYT(tuple(tuple(row) for row in rows), n)
    return make(p_rows), make(q_rows)


def inverse_rsk(p: SSYT, q: SSYT) -> Biword:
    """Classical inverse RSK: peel the largest recorder entry, rightmost first."""
    if p.shape != q.shape:
        raise ValueError("tableaux must share a shape")
    p_rows = [list(row) for row in p.rows]
    q_rows = [list(row) for row in q.rows]
    pairs = []
    for _ in range(p.size()):
        best = None  # (row, col, value); equal maxima resolved to the right
        for r, row in enumerate(q_rows):
            if not row:
                continue
            c = len(row) - 1
            if best is None or row[c] > best[2] or (row[c] == best[2] and c > best[1]):
                best = (r, c, row[c])
        r, _, i = best
        q_rows[r].pop()
        x = p_rows[r].pop()
        for lower in range(r - 1, -1, -1):
            row = p_rows[lower]
            pos = max(idx for idx, e in enumerate(row) if e < x)
            row[pos], x = x, row[pos]
        pairs.append((i, x))
    return Biword(tuple(reversed(pairs)))


def _place_in_recording(cols, letter: int, h: int):
    """Step 3 of the correspondence: record ``letter`` at height ``h``.

    Height 1 starts column ``letter``; otherwise the leftmost column of
    height h-1 whose top is >= ``letter`` grows by one cell.
    """
    c = letter - 1 if h == 1 else next(
        (c for c, col in enumerate(cols) if len(col) == h - 1 and col[-1] >= letter), None
    )
    if c is None or len(cols[c]) != h - 1:
        raise AssertionError("no admissible column for the recording placement")
    return cols[:c] + (cols[c] + (letter,),) + cols[c + 1 :]


def _step_columns(f, g, i: int, j: int, inserted, recorded):
    """One step of phi: extend raw (insertion, recording) columns by (i, j).

    F depends only on the bottom letters and G only on the top letters and
    the heights insertion reached, so the caller's tables memoise the
    insertion by (F, j) in ``inserted`` and the recording by (G, i, h) in
    ``recorded``.  Each entry keeps its sorted heights for the shape check.
    """
    step = inserted.get((f, j))
    if step is None:
        f2, h, _, _ = insert_columns(j, f)
        step = inserted[f, j] = f2, h, sorted(map(len, f2))
    f, h, f_heights = step
    record = recorded.get((g, i, h))
    if record is None:
        g2 = _place_in_recording(g, i, h)
        record = recorded[g, i, h] = g2, sorted(map(len, g2))
    g, g_heights = record
    # the two shapes stay rearrangements of each other at every stage
    if f_heights != g_heights:
        raise AssertionError("insertion and recording shapes diverged")
    return f, g


def phi(w: Biword, n: int) -> tuple[SSAF, SSAF]:
    """The skyline analogue of RSK: biword -> (insertion, recording) SSAFs.

    Right to left, each biletter (i, j) inserts j into F and records i in G
    at the height that insertion reached.

    >>> phi(parse_biword("1 1 2 / 1 2 1"), 2)[0].columns
    ((1, 1), (2,))
    """
    for i, j in w.pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"biletter ({i}, {j}) exceeds the alphabet [1, {n}]")
    f = g = empty_ssaf(n).columns
    inserted, recorded = {}, {}
    for i, j in reversed(w.pairs):
        f, g = _step_columns(f, g, i, j, inserted, recorded)
    return SSAF(f), SSAF(g)


def phi_inverse(f: SSAF, g: SSAF) -> Biword:
    """Invert the correspondence through the commuting triangle with RSK.

    psi_inverse validates F and G; inverse_rsk rejects unequal sorted shapes."""
    if f.n != g.n:
        raise ValueError("basement size mismatch")
    return inverse_rsk(psi_inverse(f), psi_inverse(g))


def main_theorem_predicate(w: Biword, n: int) -> tuple[bool, bool]:
    """The two sides of the staircase restriction criterion.

    lhs: every biletter (i, j) satisfies i + j <= n + 1.
    rhs: the recording shape is below the reversed insertion shape in the
    orbit Bruhat order.  The two agree for every lexicographic biword.
    """
    lhs = all(i + j <= n + 1 for i, j in w.pairs)
    f, g = phi(w, n)
    rhs = orbit_bruhat_leq(g.shape, reverse(f.shape))
    return lhs, rhs


def criterion_sweep(n: int, max_len: int):
    """Both sides of the staircase criterion for every biword over [n] x [n].

    Yields ``(pairs, lhs, rhs)`` as :func:`main_theorem_predicate` gives
    them for ``Biword(pairs)``, once per biword of length <= ``max_len``, in
    no fixed order.  phi reads the last biletter first, so a depth-first
    search that prepends biletters in non-increasing lexicographic order
    gets each child's (F, G) from its parent's by one :func:`_step_columns`,
    and each distinct shape pair costs one Bruhat test.  The step's memo
    tables and the Bruhat results live for one call.
    """
    if n < 0 or max_len < 0:
        raise ValueError(f"need n >= 0 and max_len >= 0, got {n} and {max_len}")
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    empty = empty_ssaf(n).columns
    bruhat = {}  # sh(G) + sh(F) -> rhs; shape pairs repeat across many nodes
    inserted, recorded = {}, {}
    # (pairs, lhs, columns of F, columns of G, number of cells still prependable)
    stack = [((), True, empty, empty, len(cells))]
    while stack:
        pairs, lhs, f, g, allowed = stack.pop()
        shapes = tuple(map(len, g + f))
        rhs = bruhat.get(shapes)
        if rhs is None:
            rhs = bruhat[shapes] = orbit_bruhat_leq(shapes[:n], reverse(shapes[n:]))
        yield pairs, lhs, rhs
        if len(pairs) < max_len:
            for c, (i, j) in enumerate(cells[:allowed]):
                f2, g2 = _step_columns(f, g, i, j, inserted, recorded)
                stack.append((((i, j),) + pairs, lhs and i + j <= n + 1, f2, g2, c + 1))
