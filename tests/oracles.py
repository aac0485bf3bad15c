"""Slow, independent routes that the tests check the library against.

None of these is a production path: each one restates a definition
directly, so that an agreement with the library's faster route means
something.
"""
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import add

from skyline import correspondences
from skyline.correspondences import Biword, phi, rsk
from skyline.crystal import CrystalGraph, crystal_graph, demazure_crystal
from skyline.demazure import pi_op
from skyline.fillings import SSAF, _basics_ok, empty_ssaf, insert_columns, psi, validate
from skyline.kernel import KernelInstance, rhs_pairs
from skyline.permutations import orbit_bruhat_leq
from skyline.polynomials import SparsePoly, poly_sum
from skyline.shapes import (
    Composition,
    compositions_with_sum,
    decreasing_rearrangement,
    num_parts,
    reverse,
)
from skyline.tableaux import SSYT, enumerate_ssyt, is_key, key_columns, key_tableau

# Permutations are tuples in one-line notation with values 1..n.  A
# permutation acts on a composition by moving the entry at position i to
# position w(i), so that acting on the decreasing rearrangement recovers any
# orbit element.
Permutation = tuple[int, ...]


def check_permutation(w) -> Permutation:
    w = tuple(w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def longest(n: int) -> Permutation:
    """The order-reversing permutation, maximal in Bruhat order."""
    return tuple(range(n, 0, -1))


def length(w) -> int:
    """Number of inversions, which equals the reduced-word length."""
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


def compose(u, v) -> Permutation:
    """(u o v)(i) = u(v(i))."""
    if len(u) != len(v):
        raise ValueError("size mismatch")
    return tuple(u[v[i] - 1] for i in range(len(v)))


def simple(n: int, i: int) -> Permutation:
    """The adjacent transposition swapping i and i+1."""
    if not 1 <= i < n:
        raise ValueError(f"simple transposition index {i} out of range for n={n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def act(w, gamma) -> Composition:
    """Position action on compositions: the entry at i moves to w(i)."""
    if len(w) != len(gamma):
        raise ValueError("size mismatch")
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi - 1] = gamma[i]
    return tuple(out)


def from_word(n: int, word) -> Permutation:
    """Product of simple transpositions, rightmost index applied first."""
    w = identity(n)
    for i in word:
        w = compose(w, simple(n, i))
    return w


def is_reduced(word, n: int) -> bool:
    """True when the product of ``word`` in S_n has length len(word)."""
    return length(from_word(n, word)) == len(word)


def reduced_word(w) -> tuple[int, ...]:
    """A reduced word for w by repeatedly stripping the leftmost descent."""
    w = check_permutation(w)
    v = list(w)
    picked = []
    while True:
        i = next((i for i in range(len(v) - 1) if v[i] > v[i + 1]), None)
        if i is None:
            break
        v[i], v[i + 1] = v[i + 1], v[i]
        picked.append(i + 1)
    return tuple(reversed(picked))


def all_reduced_words(w, n: int) -> list[tuple[int, ...]]:
    """Every reduced word of w in S_n, by growing reduced prefixes."""
    target = length(w)
    out = []

    def grow(prefix):
        if len(prefix) == target:
            if from_word(n, prefix) == w:
                out.append(tuple(prefix))
            return
        for i in range(1, n):
            cand = prefix + [i]
            if is_reduced(cand, n):
                grow(cand)

    grow([])
    return out


def tableau_criterion_leq(sigma, beta) -> bool:
    """Strong Bruhat order: compare the two permutations' staircase keys."""
    sigma, beta = check_permutation(sigma), check_permutation(beta)
    staircase = longest(len(sigma))
    return orbit_bruhat_leq(act(sigma, staircase), act(beta, staircase))


def min_coset_rep(gamma) -> Permutation:
    """The shortest permutation sending the sorted composition to ``gamma``.

    Built by reading the new elements of the key tableau's columns from the
    rightmost column to the first, each batch in increasing order, after
    prepending the full column when ``gamma`` has a zero entry.
    """
    gamma = tuple(gamma)
    cols = key_columns(gamma)
    if 0 in gamma or not cols:
        cols.insert(0, tuple(range(1, len(gamma) + 1)))
    seen: set[int] = set()
    word: list[int] = []
    for col in reversed(cols):
        word.extend(sorted(set(col) - seen))
        seen.update(col)
    return check_permutation(word)


def bubble_sort_op(i: int, gamma) -> Composition:
    """Sort positions i, i+1 into weakly increasing order."""
    gamma = tuple(gamma)
    if not 1 <= i < len(gamma):
        raise ValueError(f"index {i} out of range for length {len(gamma)}")
    if gamma[i - 1] > gamma[i]:
        gamma = gamma[: i - 1] + (gamma[i], gamma[i - 1]) + gamma[i + 1 :]
    return gamma


def apply_word(word, gamma) -> Composition:
    """Compose bubble sorts in operator order: rightmost index acts first."""
    gamma = tuple(gamma)
    for i in reversed(tuple(word)):
        gamma = bubble_sort_op(i, gamma)
    return gamma


def sigma_se_word(n: int, m: int, k: int) -> tuple[int, ...]:
    """Word read off the south-east skew cells, rows top to bottom.

    Defined for k <= m; the factors may be empty.
    """
    KernelInstance(n, m, k)
    if not k <= m:
        raise ValueError(f"south-east word needs k <= m, got k={k}, m={m}")
    word: list[int] = []
    for i in range(1, k - (n - m)):
        word.extend(range(i + n - k - 1, i - 1, -1))
    for i in range(0, n - m + 1):
        word.extend(range(m - 1, k - (n - m) + i - 1, -1))
    return tuple(word)


def sigma_nw_word(n: int, m: int, k: int) -> tuple[int, ...]:
    """North-west word: the south-east word of the conjugate shape."""
    KernelInstance(n, m, k)
    if not m <= k:
        raise ValueError(f"north-west word needs m <= k, got m={m}, k={k}")
    return sigma_se_word(n, k, m)


def alpha_via_sorting(mu, n: int, m: int, k: int) -> Composition:
    """Bubble-sort the padded reversed ``mu`` along the south-east word.

    Returns the full length-n composition, which the expansion theorem
    asserts to be zeros, then the alpha vector, then zeros.
    """
    word = sigma_se_word(n, m, k)
    mu = tuple(mu)
    if len(mu) != k:
        raise ValueError(f"mu must have length k={k}")
    start = reverse(mu) + (0,) * (n - k)
    return apply_word(tuple(i for i in word if i < m), start)


def truncated_product(p: SparsePoly, q: SparsePoly, d) -> SparsePoly:
    """``(p * q).truncate(d)`` without building the dropped terms: ``q``'s
    terms are grouped by x-degree, so a term of ``p`` of degree s visits
    only the groups of degree <= d - s."""
    if d < 0:
        raise ValueError("truncation degree must be non-negative")
    p._check_compatible(q)
    nx = p.nx
    groups: dict[int, list] = {}
    for key, coeff in q.terms.items():
        groups.setdefault(sum(key[:nx]), []).append((key, coeff))
    terms: dict = {}
    for k1, c1 in p.terms.items():
        room = d - sum(k1[:nx])
        for degree, group in groups.items():
            if degree > room:
                continue
            for k2, c2 in group:
                key = tuple(map(add, k1, k2))
                terms[key] = terms.get(key, 0) + c1 * c2
    return SparsePoly(nx, terms, p.ny)


def pair_product(px: SparsePoly, py: SparsePoly) -> SparsePoly:
    """Outer product of an x-polynomial and a y-polynomial."""
    if px.ny is not None or py.ny is not None:
        raise ValueError("pair_product expects two single-alphabet polynomials")
    terms = {}
    for xexp, cx in px.terms.items():
        for yexp, cy in py.terms.items():
            terms[xexp + yexp] = cx * cy
    return SparsePoly(px.nx, terms, py.nx)


def swap_alphabets(p: SparsePoly) -> SparsePoly:
    """Exchange the roles of x and y (two-alphabet polynomials only)."""
    if p.ny is None:
        raise ValueError("single-alphabet polynomial has nothing to swap")
    nx = p.nx
    return SparsePoly(p.ny, {k[nx:] + k[:nx]: c for k, c in p.terms.items()}, nx)


def _json_exponents(item: dict, field: str) -> tuple[int, ...]:
    value = item[field]
    if not isinstance(value, list) or not all(type(e) is int and e >= 0 for e in value):
        raise ValueError(f"{field!r} must list non-negative integers, got {value!r}")
    return tuple(value)


def poly_from_json(data) -> SparsePoly:
    """Rebuild a polynomial from its JSON term list; the first term fixes the arity.

    Raises ``ValueError`` on input that :meth:`SparsePoly.to_json` never
    writes: a term that is not an object with ``coeff`` and ``x_exp``, a
    coefficient that is not an integer, an exponent that is not a
    non-negative integer, or the same exponent key twice.
    """
    if not isinstance(data, list):
        raise ValueError(f"expected a JSON list of terms, got {type(data).__name__}")
    terms = {}
    arity = None
    for item in data:
        if not isinstance(item, dict) or not {"coeff", "x_exp"} <= item.keys():
            raise ValueError(f"term {item!r} is not an object with 'coeff' and 'x_exp'")
        if type(item["coeff"]) is not int:
            raise ValueError(f"coefficient {item['coeff']!r} is not an integer")
        xexp = _json_exponents(item, "x_exp")
        yexp = _json_exponents(item, "y_exp") if "y_exp" in item else None
        shape = (len(xexp), None if yexp is None else len(yexp))
        if arity is None:
            arity = shape
        elif shape != arity:
            raise ValueError(f"term {item} does not match arity {arity}")
        key = xexp + (yexp or ())
        if key in terms:
            raise ValueError(f"term {item} repeats an earlier exponent key")
        terms[key] = item["coeff"]
    if arity is None:
        raise ValueError("cannot infer arity from an empty term list")
    return SparsePoly(arity[0], terms, arity[1])


def is_rectangle(inst: KernelInstance) -> bool:
    return inst.n + 1 == inst.m + inst.k


def is_staircase(inst: KernelInstance) -> bool:
    return inst.m == inst.k == inst.n


def lhs_by_row_products(inst: KernelInstance, d: int) -> SparsePoly:
    """The kernel's left side as a product of row factors.

    Variables: x indexed by rows (k of them), y by columns (m of them).
    The cells of row i share x_i, so their series multiply to the row
    factor sum_t x_i^t h_t(y_1..y_{lambda_i}); the k row factors are folded
    with a product that builds no term above degree d.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    k, m = inst.k, inst.m
    total = SparsePoly.one(k, m)
    for i, length in enumerate(inst.shape):
        row_terms = {}
        for t in range(d + 1):
            xexp = (0,) * i + (t,) + (0,) * (k - i - 1)
            for yexp in compositions_with_sum(t, length):
                row_terms[xexp + yexp + (0,) * (m - length)] = 1
        total = truncated_product(total, SparsePoly(k, row_terms, m), d)
    return total


def rhs_by_pair_products(inst: KernelInstance, d: int) -> SparsePoly:
    """The kernel's right side as the sum of the outer products of
    ``rhs_pairs``, each built whole."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    products = (pair_product(px, py) for px, py in rhs_pairs(inst, d))
    return poly_sum(products, inst.k, inst.m)


@dataclass(frozen=True)
class WholeExpansionReport:
    """The kernel check made on the two whole truncated polynomials."""

    n: int
    m: int
    k: int
    degree: int
    lhs: SparsePoly
    rhs: SparsePoly
    equal: bool
    first_diff: tuple | None

    @property
    def terms(self) -> int:
        return len(self.lhs.terms)

    def summary(self) -> str:
        head = f"kernel n={self.n} m={self.m} k={self.k} deg={self.degree}: "
        if self.equal:
            return head + f"equal ({len(self.lhs.terms)} terms)"
        xexp, yexp, lc, rc = self.first_diff
        return head + (
            f"MISMATCH at x^{xexp} y^{yexp}: lhs has {lc}, rhs has {rc}"
        )

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "degree": self.degree,
            "equal": self.equal,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }
        if self.first_diff is not None:
            xexp, yexp, lc, rc = self.first_diff
            out["first_diff"] = {
                "x_exp": list(xexp),
                "y_exp": list(yexp),
                "lhs_coeff": lc,
                "rhs_coeff": rc,
            }
        return out


def verify_by_whole_polynomials(inst: KernelInstance, d: int) -> WholeExpansionReport:
    """Build both truncated sides whole, compare them and locate the first
    mismatch in the order ``(|x|, x, y)`` from their difference."""
    lhs = lhs_by_row_products(inst, d)
    rhs = rhs_by_pair_products(inst, d)
    equal = lhs == rhs
    first_diff = None
    if not equal:
        key, _ = (lhs - rhs).sorted_terms()[0]
        k = inst.k
        first_diff = (key[:k], key[k:], lhs.terms.get(key, 0), rhs.terms.get(key, 0))
    return WholeExpansionReport(inst.n, inst.m, inst.k, d, lhs, rhs, equal, first_diff)


def cells_in_column_order(tab: SSYT) -> list[tuple[int, int]]:
    """Cells (row, col) of each column top to bottom, columns left to right."""
    width = len(tab.rows[0]) if tab.rows else 0
    top_down = range(len(tab.rows) - 1, -1, -1)
    return [(r, c) for c in range(width) for r in top_down if len(tab.rows[r]) > c]


def unmatched_positions(word, i: int) -> tuple[list[int], list[int]]:
    """Positions in ``word`` of the unmatched i (closers) and i+1 (openers)."""
    closers: list[int] = []
    openers: list[int] = []
    for pos, letter in enumerate(word):
        if letter == i + 1:
            openers.append(pos)
        elif letter == i:
            if openers:
                openers.pop()
            else:
                closers.append(pos)
    return closers, openers


def _bracket_one_colour(i: int, tab: SSYT, raising: bool):
    """f_i (``raising``) or e_i by bracketing colour i alone on the cells."""
    cells = cells_in_column_order(tab)
    closers, openers = unmatched_positions([tab.rows[r][c] for r, c in cells], i)
    found = closers[-1:] if raising else openers[:1]
    if not found:
        return None
    r, c = cells[found[0]]
    rows = list(tab.rows)
    rows[r] = rows[r][:c] + (i + 1 if raising else i,) + rows[r][c + 1 :]
    return SSYT(tuple(rows), tab.n)


def reference_f(i: int, tab: SSYT):
    """Raise the rightmost unmatched i to i+1, or None at a string end."""
    return _bracket_one_colour(i, tab, True)


def reference_e(i: int, tab: SSYT):
    """Lower the leftmost unmatched i+1 to i, or None at a string head."""
    return _bracket_one_colour(i, tab, False)


def demazure_vertices_along(word, alpha) -> frozenset[SSYT]:
    """Saturate string heads from the dominant key tableau along ``word``.

    The rightmost letter acts first; a reduced word of ``min_coset_rep(alpha)``
    gives the Demazure crystal of ``alpha``.  Each string is walked one
    ``reference_f`` at a time from a head, where ``reference_e`` is None.
    """
    current = {key_tableau(decreasing_rearrangement(alpha))}
    for i in reversed(word):
        grown = set(current)
        for tab in current:
            if reference_e(i, tab) is None:
                while (tab := reference_f(i, tab)) is not None:
                    grown.add(tab)
        current = grown
    return frozenset(current)


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


def apply_op_word(word, f: SparsePoly) -> SparsePoly:
    """Compose operators pi_i in word order: the rightmost index acts first."""
    for i in reversed(tuple(word)):
        f = pi_op(i, f)
    return f


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


@lru_cache(maxsize=None)
def bruhat_lower_interval(sigma: Permutation) -> frozenset[Permutation]:
    """The products of all subwords of one reduced word of ``sigma``.

    By the subword property these are exactly the theta <= sigma.
    """
    n = len(sigma)
    products = {identity(n)}
    for i in reduced_word(sigma):
        products |= {compose(w, simple(n, i)) for w in products}
    return frozenset(products)


def bruhat_leq_subword(theta, sigma) -> bool:
    """Subword-property test; exponential, intended as a small-n oracle."""
    theta, sigma = check_permutation(theta), check_permutation(sigma)
    if len(theta) != len(sigma):
        raise ValueError("size mismatch")
    return theta in bruhat_lower_interval(sigma)


def reading_word(filling: SSAF) -> tuple[int, ...]:
    """Non-basement entries, rows top to bottom, left to right."""
    word = []
    for r in range(max(filling.shape, default=0), 0, -1):
        word.extend(col[r - 1] for col in filling.columns if len(col) >= r)
    return tuple(word)


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
    """Build all of B(lambda), then keep the Demazure vertices and their edges,
    renumbering the kept vertices in order."""
    kept = demazure_crystal(alpha, n).vertices
    graph = crystal_graph(decreasing_rearrangement(alpha), n)
    renumber = {}  # position in B(lambda) -> position among the kept vertices
    for pos, tab in enumerate(graph.vertices):
        if tab in kept:
            renumber[pos] = len(renumber)
    return CrystalGraph(
        graph.shape,
        graph.n,
        tuple(t for t in graph.vertices if t in kept),
        tuple(
            (renumber[s], c, renumber[d])
            for s, c, d in graph.edges
            if s in renumber and d in renumber
        ),
    )


def induced_graph_via_f_op(lam, n: int, vertices) -> CrystalGraph:
    """The subgraph of B(lam) induced on ``vertices``, one ``reference_f`` per edge.

    Vertices are listed in column-word order, edges ``(s, i, t)``, with
    ``vertices[t]`` being f_i of ``vertices[s]``, by source and then colour,
    keeping those whose target is a vertex.
    """
    def word(tab):
        return [tab.rows[r][c] for r, c in cells_in_column_order(tab)]

    vertices = tuple(sorted(vertices, key=word))
    position = {tab: pos for pos, tab in enumerate(vertices)}
    edges = tuple(
        (pos, i, position[out])
        for pos, tab in enumerate(vertices)
        for i in range(1, n)
        if (out := reference_f(i, tab)) in position
    )
    return CrystalGraph(lam[: num_parts(lam)], n, vertices, edges)


def is_key_by_columns(tab: SSYT) -> bool:
    """True when each column's entry set contains the next column's."""
    width = len(tab.rows[0]) if tab.rows else 0
    cols = [
        {row[c] for row in tab.rows if len(row) > c} for c in range(width)
    ]
    return all(cols[j + 1] <= cols[j] for j in range(width - 1))


def key_columns_leq(alpha1, alpha2) -> bool:
    """The orbit Bruhat order by its definition, rebuilt on every call:
    the key columns of two rearrangements compared entrywise."""
    if decreasing_rearrangement(alpha1) != decreasing_rearrangement(alpha2):
        raise ValueError(f"{alpha1} and {alpha2} are not rearrangements of each other")
    return all(
        a <= b
        for c1, c2 in zip(key_columns(alpha1), key_columns(alpha2))
        for a, b in zip(c1, c2)
    )


def square_walk(n: int, max_len: int):
    """Every biword over [n] x [n] of length <= ``max_len``, depth first.

    Yields ``(pairs, shapes)`` once per biword, in no fixed order, with
    ``shapes`` the shape of G followed by the shape of F.  phi reads the
    last biletter first, so a search that prepends biletters in
    non-increasing lexicographic order gets each child's F and G's heights
    from its parent's by one ``correspondences._step_columns``, whose memo
    table lives for one call: the biword-by-biword reference for the
    package's count over (F, heights of G) states.
    """
    if n < 0 or max_len < 0:
        raise ValueError(f"need n >= 0 and max_len >= 0, got {n} and {max_len}")
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    inserted, empty = {}, (0,) * n
    # (pairs, columns of F, heights of G, number of cells still prependable)
    stack = [((), empty_ssaf(n).columns, empty, len(cells))]
    while stack:
        pairs, f, g, allowed = stack.pop()
        yield pairs, g + tuple(map(len, f))
        if len(pairs) < max_len:
            for c, (i, j) in enumerate(cells[:allowed]):
                f2, g2, _ = correspondences._step_columns(f, g, i, j, inserted)
                stack.append((((i, j),) + pairs, f2, g2, c + 1))


def criterion_sweep(n: int, max_len: int):
    """Both sides of the staircase criterion for every biword over [n] x [n].

    Yields ``(pairs, lhs, rhs)`` as ``main_theorem_predicate`` gives them
    for ``Biword(pairs)``, once per biword of length <= ``max_len``, in no
    fixed order: the full sweep that ``verify_criterion`` replaces by a
    count of the staircase's biwords per state.  Each distinct shape pair
    costs one Bruhat test, made through ``correspondences`` so that a patch
    reaches it.
    """
    bruhat = {}
    for pairs, shapes in square_walk(n, max_len):
        rhs = bruhat.get(shapes)
        if rhs is None:
            rhs = bruhat[shapes] = correspondences.orbit_bruhat_leq(
                shapes[:n], reverse(shapes[n:])
            )
        yield pairs, all(i + j <= n + 1 for i, j in pairs), rhs


def _place_by_top_test(cols, letter: int, h: int):
    """Step 3 of the correspondence as Mason states it: record ``letter`` at
    height ``h``.  Height 1 starts column ``letter``; otherwise the leftmost
    column of height h-1 whose top is >= ``letter`` grows by one cell."""
    c = letter - 1 if h == 1 else next(
        (c for c, col in enumerate(cols) if len(col) == h - 1 and col[-1] >= letter), None
    )
    if c is None or len(cols[c]) != h - 1:
        raise AssertionError("no admissible column for the recording placement")
    return cols[:c] + (cols[c] + (letter,),) + cols[c + 1 :]


def phi_by_top_test(w: Biword, n: int) -> tuple[SSAF, SSAF]:
    """phi with G grown by Mason's rule, top test included, where the
    package places each recorded letter by G's heights alone."""
    f = g = empty_ssaf(n).columns
    for i, j in reversed(w.pairs):
        f, h, _, _ = insert_columns(j, f)
        g = _place_by_top_test(g, i, h)
    return SSAF(f), SSAF(g)


def phi_steps(w: Biword, n: int) -> list[tuple[SSAF, SSAF]]:
    """All intermediate (insertion, recording) pairs, one per biletter.

    phi reads right to left, so stage t is phi of the last t biletters.
    """
    return [phi(Biword(w.pairs[len(w) - t :]), n) for t in range(1, len(w) + 1)]


def swap_rows(w: Biword) -> Biword:
    """Exchange the two rows and re-sort lexicographically."""
    return Biword(tuple(sorted((j, i) for i, j in w.pairs)))


def rsk_commutes_check(w: Biword, n: int) -> bool:
    """Does mapping the RSK pair through psi reproduce the skyline pair?"""
    p, q = rsk(w, n)
    f, g = phi(w, n)
    return psi(p) == f and psi(q) == g


def alphabet_support_check(w: Biword, n: int, k: int, m: int) -> bool:
    """Zero-tail conditions when the rows use alphabets [k] and [m]."""
    if any(i > k for i in w.top()) or any(j > m for j in w.bottom()):
        raise ValueError(f"biword rows exceed the alphabets [{k}] and [{m}]")
    f, g = phi(w, n)
    return all(e == 0 for e in g.shape[k:]) and all(e == 0 for e in f.shape[m:])
