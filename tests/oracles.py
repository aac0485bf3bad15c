"""Slow, independent routes that the tests check the library against.

None of these is a production path: each one restates a definition
directly, so that an agreement with the library's faster route means
something.
"""
import itertools
from collections import Counter
from functools import lru_cache
from math import factorial

from skyline.crystal import CrystalGraph, crystal_graph, demazure_crystal
from skyline.fillings import SSAF, _basics_ok, validate
from skyline.permutations import (
    Permutation,
    check_permutation,
    length,
    orbit_bruhat_leq,
    reduced_word,
)
from skyline.polynomials import SparsePoly
from skyline.shapes import Composition, decreasing_rearrangement
from skyline.tableaux import SSYT, enumerate_ssyt, is_key


def orbit(lam) -> set[Composition]:
    """All distinct rearrangements of a composition."""
    return set(itertools.permutations(lam))


def s_action(p: SparsePoly, i: int) -> SparsePoly:
    """Swap the x-exponents at positions i and i+1 in every term of ``p``."""
    if not 1 <= i < p.nx:
        raise ValueError(f"index {i} out of range for {p.nx} x-variables")

    def swap(e):
        e = list(e)
        e[i - 1], e[i] = e[i], e[i - 1]
        return tuple(e)

    return SparsePoly(p.nx, {swap(k): c for k, c in p.terms.items()}, p.ny)


def weight_sum(objects, n: int) -> SparsePoly:
    """Sum of x^content over tableaux or fillings with alphabet size n."""
    return SparsePoly(n, Counter(obj.content() for obj in objects))


def enumerate_ssaf(gamma) -> list[SSAF]:
    """All valid SSAFs of shape ``gamma``, in lexicographic column order."""
    gamma = tuple(gamma)
    n = len(gamma)

    def column_options(j: int, height: int):
        if height == 0:
            return [()]
        opts = []

        def grow(prefix):
            if len(prefix) == height:
                opts.append(tuple(prefix))
                return
            for v in range(1, prefix[-1] + 1):
                grow(prefix + [v])

        grow([j + 1])
        return opts

    per_col = [column_options(j, g) for j, g in enumerate(gamma)]
    out = []
    for combo in itertools.product(*per_col):
        cand = SSAF(tuple(combo))
        if validate(cand):
            out.append(cand)
    return out


def atom_via_ssaf(alpha) -> SparsePoly:
    """Weight sum of the skyline fillings of shape exactly ``alpha``."""
    alpha = tuple(alpha)
    return weight_sum(enumerate_ssaf(alpha), len(alpha))


def key_via_ssaf(alpha) -> SparsePoly:
    """Weight sum of the skyline fillings whose shape is <= ``alpha``."""
    alpha = tuple(alpha)
    return weight_sum(
        (
            f
            for beta in orbit(alpha)
            if orbit_bruhat_leq(beta, alpha)
            for f in enumerate_ssaf(beta)
        ),
        len(alpha),
    )


def schur_polynomial(lam, n: int) -> SparsePoly:
    """Schur polynomial as the weight sum over all tableaux of the shape."""
    return weight_sum(enumerate_ssyt(tuple(lam), n), n)


def unique_key_tableau(tableaux) -> SSYT:
    """The single key tableau in a collection; raises if not exactly one."""
    keys = [t for t in tableaux if is_key(t)]
    if len(keys) != 1:
        raise ValueError(f"expected exactly one key tableau, found {len(keys)}")
    return keys[0]


def bruhat_leq_subword(theta, sigma) -> bool:
    """Subword-property test; exponential, intended as a small-n oracle."""
    theta, sigma = check_permutation(theta), check_permutation(sigma)
    if len(theta) != len(sigma):
        raise ValueError("size mismatch")
    word = reduced_word(sigma)

    @lru_cache(maxsize=None)
    def rec(pos: int, th: Permutation) -> bool:
        if length(th) == 0:
            return True
        if pos == len(word):
            return False
        if rec(pos + 1, th):
            return True
        i = word[pos]
        # use word[pos] as the leftmost letter of a reduced word for th
        shorter = tuple(
            i + 1 if v == i else i if v == i + 1 else v for v in th
        )
        if length(shorter) < length(th):
            return rec(pos + 1, shorter)
        return False

    return rec(0, theta)


def _standardized(filling: SSAF) -> dict[tuple[int, int], int]:
    """Standardization ranks for all cells, basement included.

    The i-th occurrence of a letter in reading order gets rank i plus the
    total count of smaller letters; basement cells participate as the last
    row.  Equivalent to sorting by (value, reading position).
    """
    cells = []
    pos = 0
    for r in range(max(filling.shape, default=0), -1, -1):
        for j in range(filling.n):
            if r == 0:
                cells.append((j + 1, pos, (r, j + 1)))
                pos += 1
            elif len(filling.columns[j]) >= r:
                cells.append((filling.columns[j][r - 1], pos, (r, j + 1)))
                pos += 1
    ranks = {}
    for rank, (_, _, cell) in enumerate(sorted(cells, key=lambda t: (t[0], t[1]))):
        ranks[cell] = rank
    return ranks


def _orientation(points) -> int:
    """Sign of the turn p1 -> p2 -> p3; positive is counterclockwise."""
    (x1, y1), (x2, y2), (x3, y3) = points
    return (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)


def validate_via_orientation(filling: SSAF) -> bool:
    """Triple check straight from the orientation definition of an SSAF."""
    if not _basics_ok(filling):
        return False
    ranks = _standardized(filling)
    h = filling.shape
    n = filling.n

    def point(r, j):
        return (j, r)

    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            if h[j1] >= h[j2]:
                for i in range(1, h[j2] + 1):
                    trip = [(i, j1 + 1), (i - 1, j1 + 1), (i, j2 + 1)]
                    ordered = sorted(trip, key=lambda cell: ranks[cell])
                    if _orientation([point(*cell) for cell in ordered]) <= 0:
                        return False
            if h[j2] > h[j1]:
                for i in range(0, h[j1] + 1):
                    trip = [(i, j1 + 1), (i + 1, j2 + 1), (i, j2 + 1)]
                    ordered = sorted(trip, key=lambda cell: ranks[cell])
                    if _orientation([point(*cell) for cell in ordered]) >= 0:
                        return False
    return True


def insert_by_reading_order(k: int, filling: SSAF):
    """Mason's insertion over an explicit list of cells in reading order.

    Builds the whole reading order, basement last, and copies every column
    before scanning; returns (new SSAF, terminal height, terminal column,
    carried values) like :func:`skyline.fillings.insert_with_chain`.
    """
    n = filling.n
    if not 1 <= k <= n:
        raise ValueError(f"letter {k} outside alphabet [1, {n}]")
    cols = [list(c) for c in filling.columns]
    order = [
        (r, j)
        for r in range(max(filling.shape, default=0), 0, -1)
        for j in range(n)
        if len(cols[j]) >= r
    ]
    order.extend((0, j) for j in range(n))

    def val(r, j):
        return cols[j][r - 1] if r >= 1 else j + 1

    def above(r, j):
        return cols[j][r] if len(cols[j]) > r else 0

    x = k
    chain = [k]
    for r, j in order:
        if val(r, j) < x or above(r, j) >= x:
            continue
        if len(cols[j]) > r:
            cols[j][r], x = x, cols[j][r]
            chain.append(x)
        else:
            if any(len(cols[j2]) == r + 1 for j2 in range(j + 1, n)):
                raise AssertionError(
                    "the terminal column must be the rightmost one of its height"
                )
            cols[j].append(x)
            return SSAF(tuple(tuple(c) for c in cols)), r + 1, j + 1, tuple(chain)
    raise AssertionError("insertion scan exhausted; filling was not a valid SSAF")


def stabiliser_order(lam) -> int:
    """Order of the subgroup of position permutations fixing ``lam``."""
    out = 1
    for entry in set(lam):
        out *= factorial(sum(1 for e in lam if e == entry))
    return out


def atom_set_by_subtraction(alpha, n: int) -> frozenset[SSYT]:
    """Tableaux of the Demazure crystal below no smaller orbit element."""
    alpha = tuple(alpha)
    keep = set(demazure_crystal(alpha, n).vertices)
    for beta in orbit(alpha):
        if beta != alpha and orbit_bruhat_leq(beta, alpha):
            keep -= demazure_crystal(beta, n).vertices
    return frozenset(keep)


def demazure_graph_by_filtering(alpha, n: int) -> CrystalGraph:
    """Build all of B(lambda), then keep the Demazure vertices and their edges."""
    kept = demazure_crystal(alpha, n).vertices
    graph = crystal_graph(decreasing_rearrangement(alpha), n)
    return CrystalGraph(
        graph.shape,
        graph.n,
        tuple(t for t in graph.vertices if t in kept),
        tuple(e for e in graph.edges if e[0] in kept and e[2] in kept),
    )


def is_key_by_columns(tab: SSYT) -> bool:
    """True when each column's entry set contains the next column's."""
    width = len(tab.rows[0]) if tab.rows else 0
    cols = [
        {row[c] for row in tab.rows if len(row) > c} for c in range(width)
    ]
    return all(cols[j + 1] <= cols[j] for j in range(width - 1))
