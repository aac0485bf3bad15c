"""Truncated-staircase Cauchy kernel machinery.

The kernel over a truncated staircase expands as a sum of products of
Demazure atoms in x and Demazure characters in y; the character index is
produced from each atom index by a windowed maximum scan, equivalently by
a fixed bubble-sorting word read off the skew part of the shape.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .demazure import atom, key_polynomial
from .polynomials import SparsePoly, pair_product, poly_sum
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

    @property
    def is_rectangle(self) -> bool:
        return self.n + 1 == self.m + self.k

    @property
    def is_staircase(self) -> bool:
        return self.m == self.k == self.n

    def conjugate(self) -> "KernelInstance":
        return KernelInstance(self.n, self.k, self.m)


def alpha_vector(mu, n: int, m: int, k: int) -> Composition:
    """Character index for the atom index ``mu`` (orientation k <= m).

    Scanning i = k down to 1, entry i is the maximum over the last
    min(i, n-m+1) surviving entries of the reversed ``mu``; the rightmost
    occurrence of that maximum is then removed.
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
    """Outcome of one truncated kernel comparison."""

    n: int
    m: int
    k: int
    degree: int
    lhs: SparsePoly = field(repr=False)
    rhs: SparsePoly = field(repr=False)
    equal: bool
    first_diff: tuple | None

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


def kernel_lhs(inst: KernelInstance, d: int) -> SparsePoly:
    """Truncated product of the geometric series, one per shape cell.

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
        total = total.truncated_mul(SparsePoly(k, row_terms, m), d)
    return total


def kernel_rhs(inst: KernelInstance, d: int) -> SparsePoly:
    """Atom-times-character expansion, truncated to total degree d.

    Each term is homogeneous of equal x- and y-degree, so summing over
    atom indices of size at most d is the exact truncation.  The m <= k
    orientation is handled by conjugating the shape and swapping the
    alphabets.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if inst.k > inst.m:
        return kernel_rhs(inst.conjugate(), d).swap_alphabets()
    n, m, k = inst.n, inst.m, inst.k
    pad = (0,) * (m - k)
    terms = (
        pair_product(atom(mu), key_polynomial(pad + alpha_vector(mu, n, m, k)))
        for size in range(d + 1)
        for mu in compositions_with_sum(size, k)
    )
    return poly_sum(terms, k, m)


def verify_expansion(inst: KernelInstance, d: int) -> ExpansionReport:
    """Compare both truncated sides and locate the first mismatch if any."""
    lhs = kernel_lhs(inst, d)
    rhs = kernel_rhs(inst, d)
    equal = lhs == rhs
    first_diff = None
    if not equal:
        key, _ = (lhs - rhs).sorted_terms()[0]
        k = inst.k
        first_diff = (key[:k], key[k:], lhs.terms.get(key, 0), rhs.terms.get(key, 0))
    return ExpansionReport(inst.n, inst.m, inst.k, d, lhs, rhs, equal, first_diff)
