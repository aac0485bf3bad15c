"""Truncated-staircase Cauchy kernel machinery.

The kernel over a truncated staircase expands as a sum of products of
Demazure atoms in x and Demazure characters in y; the character index is
produced from each atom index by a windowed maximum scan, equivalently by
a fixed bubble-sorting word read off the skew part of the shape.

``verify_expansion`` checks the truncated expansion one x-exponent ``a``
at a time, in graded order: on each side the coefficient of ``x^a`` is a
y-polynomial, built, compared and dropped before the next ``a``.  In that
pass a y-exponent is one int whose digits, in a base above every exponent
on either side, are its entries with ``y_1`` most significant; so a
product of monomials is a sum of ints, and int order is lexicographic
order.  ``kernel_lhs`` and ``kernel_rhs`` are views of the same walk: each
puts one side's buckets together into a two-alphabet polynomial.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .demazure import atom, key_polynomial
from .polynomials import SparsePoly
from .shapes import (
    Composition,
    compositions_with_sum,
    reverse,
    truncated_staircase,
)


@dataclass(frozen=True)
class KernelInstance:
    """A truncated staircase with k rows and m columns inside size n."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        truncated_staircase(self.n, self.m, self.k)

    @property
    def shape(self) -> Composition:
        return truncated_staircase(self.n, self.m, self.k)

    def conjugate(self) -> "KernelInstance":
        return KernelInstance(self.n, self.k, self.m)


def alpha_vector(mu, n: int, m: int, k: int) -> Composition:
    """Character index for the atom index ``mu`` (orientation k <= m).

    Scanning i = k down to 1, entry i is the maximum over the last
    min(i, n-m+1) surviving entries of the reversed ``mu``; the rightmost
    occurrence of that maximum is then removed.  On the staircase the
    window is 1, so the index is the reversal:

    >>> alpha_vector((1, 0, 2), 3, 3, 3)
    (2, 0, 1)
    """
    KernelInstance(n, m, k)
    if not k <= m:
        raise ValueError(f"alpha vector needs k <= m, got k={k}, m={m}")
    mu = tuple(mu)
    if len(mu) != k:
        raise ValueError(f"mu must have length k={k}")
    remaining = list(reverse(mu))
    window = n - m + 1
    alpha = [0] * k
    for i in range(k, 0, -1):
        span = min(i, window)
        tail = remaining[-span:]
        best = max(tail)
        pos = len(remaining) - 1 - tail[::-1].index(best)
        alpha[i - 1] = best
        del remaining[pos]
    return tuple(alpha)


@dataclass(frozen=True)
class ExpansionReport:
    """Outcome of one truncated kernel comparison.

    ``terms`` counts the left side's terms; ``first_diff`` is
    ``(x_exp, y_exp, lhs_coeff, rhs_coeff)`` at the first mismatch in the
    order ``(|x|, x, y)``, or None.
    """

    n: int
    m: int
    k: int
    degree: int
    terms: int
    equal: bool
    first_diff: tuple | None

    def summary(self) -> str:
        head = f"kernel n={self.n} m={self.m} k={self.k} deg={self.degree}: "
        if self.equal:
            return head + f"equal ({self.terms} terms)"
        xexp, yexp, lc, rc = self.first_diff
        return head + (
            f"MISMATCH at x^{xexp} y^{yexp}: lhs has {lc}, rhs has {rc}"
        )

    def to_json(self) -> dict:
        """The report with every term of both sides, listed by a second
        walk over the buckets (the check itself keeps no term)."""
        lhs, rhs = _json_sides(KernelInstance(self.n, self.m, self.k), self.degree)
        out = {
            "n": self.n,
            "m": self.m,
            "k": self.k,
            "degree": self.degree,
            "equal": self.equal,
            "lhs": lhs,
            "rhs": rhs,
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


def kernel_lhs(inst: KernelInstance, d: int) -> SparsePoly:
    """The truncated product of the geometric series, one per shape cell:
    the left buckets of ``split_by_x`` as one polynomial in x (rows) and y
    (columns).

    >>> print(kernel_lhs(KernelInstance(1, 1, 1), 2))
    1 + x^(1)y^(1) + x^(2)y^(2)
    """
    return _whole_side(inst, d, 0)


def rhs_pairs(inst: KernelInstance, d: int):
    """The right side as (x-polynomial, y-polynomial) pairs: it is the sum
    of their outer products.

    One pair per atom index mu with |mu| <= d: ``atom(mu)`` and
    ``key(0^{m-k} + alpha_vector(mu))`` when k <= m.  When k > m the pairs
    are the conjugate instance's, each with its two polynomials exchanged.
    """
    flip = inst.k > inst.m
    oriented = inst.conjugate() if flip else inst
    n, m, k = oriented.n, oriented.m, oriented.k
    pad = (0,) * (m - k)
    for size in range(d + 1):
        for mu in compositions_with_sum(size, k):
            pair = atom(mu), key_polynomial(pad + alpha_vector(mu, n, m, k))
            yield pair[::-1] if flip else pair


def kernel_rhs(inst: KernelInstance, d: int) -> SparsePoly:
    """The atom-times-character expansion truncated to total degree d: the
    right buckets of ``split_by_x`` as one polynomial."""
    return _whole_side(inst, d, 1)


def _whole_side(inst: KernelInstance, d: int, side: int) -> SparsePoly:
    """The left (0) or right (1) buckets of ``split_by_x``, put together."""
    base, buckets = split_by_x(inst, d)
    terms = {}
    for a, *polys in buckets:
        for p, c in polys[side].items():
            terms[a + _unpack(p, base, inst.m)] = c
    return SparsePoly(inst.k, terms, inst.m)


def split_by_x(inst: KernelInstance, d: int):
    """Both truncated sides by x-exponent: ``(base, buckets)``.

    ``buckets`` yields ``(a, lhs, rhs)`` for each x-exponent ``a`` of a term
    of either side, by ``|a|`` and then lexicographically.  ``lhs`` and
    ``rhs`` map a y-exponent packed in ``base`` to the coefficient of its
    term with ``x^a``; they are read-only.  The left one is
    ``prod_i h_{a_i}(y_1..y_{lambda_i})``, extending the product over the
    longest prefix ``a`` shares with the x-exponent before it.  The right
    one sums ``c * py`` over the ``rhs_pairs`` whose x-polynomial has the
    term ``c x^a``.  Each bucket is built when it is reached and not kept.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    k, m, shape = inst.k, inst.m, inst.shape
    pairs = list(rhs_pairs(inst, d))
    base = 1 + max([d] + [max(exp) for _, py in pairs for exp in py.terms])
    weights = [base**e for e in range(m - 1, -1, -1)]
    by_x: dict = {}
    for px, py in pairs:
        packed = {sum(map(mul, exp, weights)): c for exp, c in py.terms.items()}
        for a, c in px.terms.items():
            by_x.setdefault(a, []).append((c, packed))
    xs = {a for size in range(d + 1) for a in compositions_with_sum(size, k)}
    xs = sorted(xs.union(by_x), key=lambda a: (sum(a), a))
    rows: dict = {}

    def row(t: int, length: int) -> list[int]:
        """The packed exponents of h_t(y_1..y_length), all of coefficient 1."""
        if (t, length) not in rows:
            pad = (0,) * (m - length)
            rows[t, length] = [
                sum(map(mul, exp + pad, weights))
                for exp in compositions_with_sum(t, length)
            ]
        return rows[t, length]

    def buckets():
        prefix, last = [{0: 1}], ()
        for a in xs:
            lhs = {}
            if sum(a) <= d:
                same = 0
                while same < len(last) and a[same] == last[same]:
                    same += 1
                del prefix[same + 1 :]
                for t, length in zip(a[same:], shape[same:]):
                    poly = prefix[-1]
                    prefix.append(_times_row(poly, row(t, length)) if t else poly)
                lhs, last = prefix[-1], a
            yield a, lhs, _combine(by_x.pop(a, ()))

    return base, buckets()


def _times_row(poly: dict, row: list[int]) -> dict:
    """``poly`` times the sum of the monomials in ``row``, on packed exponents."""
    out: dict = {}
    get = out.get
    for p, c in poly.items():
        for q in row:
            q += p
            out[q] = get(q, 0) + c
    return out


def _combine(parts) -> dict:
    """The sum of ``c * poly`` over ``(c, poly)`` in ``parts``."""
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    out: dict = {}
    get = out.get
    for c, poly in parts:
        for p, cy in poly.items():
            out[p] = get(p, 0) + c * cy
    return out


def _unpack(value: int, base: int, m: int) -> tuple[int, ...]:
    """The m-entry y-exponent packed in ``value``."""
    digits = []
    for _ in range(m):
        value, e = divmod(value, base)
        digits.append(e)
    return tuple(reversed(digits))


def verify_expansion(inst: KernelInstance, d: int) -> ExpansionReport:
    """Compare both truncated sides, one x-exponent at a time, and locate
    the first mismatch if any."""
    base, buckets = split_by_x(inst, d)
    terms, first_diff = 0, None
    for a, lhs, rhs in buckets:
        terms += len(lhs)
        if first_diff is None and lhs != rhs:
            first_diff = _first_diff(a, lhs, rhs, base, inst.m)
    return ExpansionReport(
        inst.n, inst.m, inst.k, d, terms, first_diff is None, first_diff
    )


def _first_diff(a, lhs: dict, rhs: dict, base: int, m: int) -> tuple | None:
    """``(a, y_exp, lhs_coeff, rhs_coeff)`` at the least y-exponent whose
    coefficients differ, or None if the buckets differ only in zero terms."""
    diff = [p for p in lhs.keys() | rhs.keys() if lhs.get(p, 0) != rhs.get(p, 0)]
    if not diff:
        return None
    p = min(diff)
    return a, _unpack(p, base, m), lhs.get(p, 0), rhs.get(p, 0)


def _json_sides(inst: KernelInstance, d: int) -> tuple[list, list]:
    """Both sides' terms as ``SparsePoly.to_json`` lists them."""
    base, buckets = split_by_x(inst, d)
    sides = ([], [])
    for a, *polys in buckets:
        for side, poly in zip(sides, polys):
            for p in sorted(poly):
                if poly[p]:
                    y_exp = list(_unpack(p, base, inst.m))
                    side.append({"coeff": poly[p], "x_exp": list(a), "y_exp": y_exp})
    return sides
