"""Biwords, classical RSK, and the skyline analogue of RSK.

A biword is a lexicographically ordered sequence of biletters (i, j): the
top letters weakly increase, with ties broken by weakly increasing bottom
letters.  The skyline correspondence inserts the bottom row (right to
left) into one filling while recording the top row in a second one.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .demazure import atom
from .fillings import SSAF, empty_ssaf, insert_columns, psi_inverse
from .permutations import orbit_bruhat_leq
from .shapes import compositions_with_sum, decreasing_rearrangement, reverse
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


def _recording_column(heights, letter: int, h: int) -> int:
    """Step 3 of the correspondence: the column of G that records ``letter``
    at height ``h``, read from G's heights alone.

    Height 1 starts column ``letter``; otherwise the leftmost column of
    height h-1 grows by one cell.  Mason's rule also asks that column's top
    be >= ``letter``, but G records the top letters of a lexicographic biword
    right to left, in non-increasing order, so every entry already in G is.
    """
    c = letter - 1 if h == 1 else heights.index(h - 1) if h - 1 in heights else None
    if c is None or heights[c] != h - 1:
        raise AssertionError("no admissible column for the recording placement")
    return c


def _step_columns(f, heights, i: int, j: int, inserted=None):
    """One step of phi: insert j into F's raw columns and record i on G's heights.

    Returns F, sh F, G's new heights and the column that records i.  F
    depends only on the bottom letters and G's heights only on the top
    letters and the heights insertion reached, so a caller that revisits
    prefixes passes a table that memoises the insertion by (F, j) in
    ``inserted``; without it nothing is kept.  Each entry keeps sh F, and
    its sorted heights for the shape check.
    """
    step = None if inserted is None else inserted.get((f, j))
    if step is None:
        f2, h, _, _ = insert_columns(j, f)
        shape = tuple(map(len, f2))
        step = f2, h, shape, sorted(shape)
        if inserted is not None:
            inserted[f, j] = step
    f, h, shape, f_sorted = step
    c = _recording_column(heights, i, h)
    heights = heights[:c] + (h,) + heights[c + 1 :]
    # the two shapes stay rearrangements of each other at every stage
    if sorted(heights) != f_sorted:
        raise AssertionError("insertion and recording shapes diverged")
    return f, shape, heights, c


def phi(w: Biword, n: int) -> tuple[SSAF, SSAF]:
    """The skyline analogue of RSK: biword -> (insertion, recording) SSAFs.

    Right to left, each biletter (i, j) inserts j into F and records i at the
    height insertion reached, in a column chosen by G's heights alone.  One
    biword never revisits a prefix, so its steps keep no memo table.

    >>> phi(parse_biword("1 1 2 / 1 2 1"), 2)[0].columns
    ((1, 1), (2,))
    """
    for i, j in w.pairs:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"biletter ({i}, {j}) exceeds the alphabet [1, {n}]")
    f, heights, g = empty_ssaf(n).columns, (0,) * n, [[] for _ in range(n)]
    for i, j in reversed(w.pairs):
        f, _, heights, c = _step_columns(f, heights, i, j)
        g[c].append(i)
    return SSAF(f), SSAF(tuple(map(tuple, g)))


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


def _walk(n: int, max_len: int, cells):
    """Every biword of length <= ``max_len`` with its biletters in ``cells``.

    Yields ``(pairs, shapes)`` once per biword, in no fixed order, with
    ``shapes`` the shape of G followed by the shape of F.  ``cells`` must be
    in lexicographic order.  phi reads the last biletter first, so a
    depth-first search that prepends biletters in non-increasing
    lexicographic order gets each child's F and G's heights (G's entries
    never decide a step) from its parent's by one :func:`_step_columns`,
    whose memo table lives for one call.
    """
    if n < 0 or max_len < 0:
        raise ValueError(f"need n >= 0 and max_len >= 0, got {n} and {max_len}")
    inserted, empty = {}, (0,) * n
    # (pairs, columns of F, sh F, heights of G, number of cells still prependable)
    stack = [((), empty_ssaf(n).columns, empty, empty, len(cells))]
    while stack:
        pairs, f, f_shape, g, allowed = stack.pop()
        yield pairs, g + f_shape
        if len(pairs) < max_len:
            for c, (i, j) in enumerate(cells[:allowed]):
                f2, f2_shape, g2, _ = _step_columns(f, g, i, j, inserted)
                stack.append((((i, j),) + pairs, f2, f2_shape, g2, c + 1))


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of :func:`verify_criterion`, each list sorted.

    ``checked`` counts the biwords over [n] x [n] of length <= ``max_len``.
    ``inside`` lists the biwords in the staircase whose Bruhat side fails.
    ``totals`` lists ``(length, atom_sum, multisets)`` where the sum of
    N(sh F) * N(sh G) over the shape pairs misses the number of multisets.
    ``outside`` lists ``(length, sh G, sh F, expected, tally)`` for each pair
    whose Bruhat side holds but whose in-staircase tally is not
    ``expected = N(sh F) * N(sh G)``.
    """

    n: int
    max_len: int
    checked: int
    inside: list
    totals: list
    outside: list

    @property
    def holds(self) -> bool:
        return not (self.inside or self.totals or self.outside)

    def summary(self) -> str:
        n = self.n
        lines = [f"checked {self.checked} biwords over [{n}]x[{n}], length <= {self.max_len}"]
        lines += [
            f"MISMATCH {format_biword(Biword(pairs))}: staircase=True bruhat=False"
            for pairs in self.inside
        ]
        lines += [
            f"MISMATCH length {d}: N(sh F)*N(sh G) sums to {total}, "
            f"not C({n * n + d - 1}, {d}) = {multisets}"
            for d, total, multisets in self.totals
        ]
        lines += [
            f"MISMATCH length {d} sh(G)={beta} sh(F)={alpha}: {expected - tally} biwords "
            f"with staircase=False bruhat=True (N(sh F)*N(sh G) = {expected}, {tally} inside)"
            for d, beta, alpha, expected, tally in self.outside
        ]
        if self.holds:
            lines.append("all biwords satisfy the equivalence")
        return "\n".join(lines)


def verify_criterion(n: int, max_len: int) -> CriterionReport:
    """The staircase criterion for every biword over [n] x [n] of length
    <= ``max_len``: its cells satisfy i + j <= n + 1 iff the recording shape
    is below the reversed insertion shape in the orbit Bruhat order.

    Only the biwords inside the staircase are walked; each must satisfy the
    Bruhat side.  The rest are counted.  phi is a bijection from the biwords
    of length d onto the pairs (F, G) of SSAFs whose shapes are
    rearrangements of each other (Mason 2008), and the SSAFs of shape gamma
    number N(gamma), the coefficient sum of ``atom(gamma)`` (Mason 2009).
    So no biword outside the staircase reaches a shape pair whose Bruhat
    side holds iff every such pair is reached by N(sh F) * N(sh G) biwords
    of the walk.  At each length the sum of N(sh F) * N(sh G) over all
    shape pairs must be the number of multisets of d cells of [n]^2 (the
    Cauchy identity at x = y = 1), which guards N.

    >>> print(verify_criterion(2, 2).summary())
    checked 15 biwords over [2]x[2], length <= 2
    all biwords satisfy the equivalence
    """
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n + 1]
    bruhat = {}  # sh(G) + sh(F) -> Bruhat side; shape pairs repeat across many nodes
    tally = {}
    inside = []
    for pairs, shapes in _walk(n, max_len, cells):
        tally[shapes] = tally.get(shapes, 0) + 1
        rhs = bruhat.get(shapes)
        if rhs is None:
            rhs = bruhat[shapes] = orbit_bruhat_leq(shapes[:n], reverse(shapes[n:]))
        if not rhs:
            inside.append(pairs)
    checked, totals, outside = 0, [], []
    for d in range(max_len + 1):
        orbits = {}
        for gamma in compositions_with_sum(d, n):
            orbits.setdefault(decreasing_rearrangement(gamma), []).append(gamma)
        total = 0
        for orbit in orbits.values():
            counts = {gamma: sum(atom(gamma).terms.values()) for gamma in orbit}
            total += sum(counts.values()) ** 2
            for beta in orbit:
                for alpha in orbit:
                    expected, reached = counts[alpha] * counts[beta], tally.get(beta + alpha, 0)
                    if reached != expected and orbit_bruhat_leq(beta, reverse(alpha)):
                        outside.append((d, beta, alpha, expected, reached))
        multisets = comb(max(n * n + d - 1, 0), d)  # n = d = 0: the empty biword
        if total != multisets:
            totals.append((d, total, multisets))
        checked += multisets
    return CriterionReport(n, max_len, checked, sorted(inside), totals, sorted(outside))
