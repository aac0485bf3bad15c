"""Exact sparse multivariate polynomials keyed by exponent vectors.

One alphabet (x) or two (x and y).  Coefficients are Python integers, so
all arithmetic is exact; no term with a zero coefficient is ever stored.
Values are immutable by convention: every operation builds a new one.
"""
from __future__ import annotations

from operator import add


class SparsePoly:
    """Sparse polynomial over Z in x_1..x_nx and optionally y_1..y_ny.

    Terms map one flat exponent tuple, the nx x-exponents followed by the
    ny y-exponents (none for one alphabet), to a nonzero integer
    coefficient:

    >>> SparsePoly.monomial(2, (1, 0), (0, 3)).terms
    {(1, 0, 0, 3): 2}
    """

    __slots__ = ("nx", "ny", "terms")

    def __init__(self, nx: int, terms=None, ny: int | None = None):
        self.nx = nx
        self.ny = ny
        width = nx + (ny or 0)
        terms = terms or {}
        for key in terms:
            if len(key) != width:
                raise ValueError(f"exponent {key} has length != {width}")
        # Copying a dict reuses its stored hashes, so no exponent tuple is
        # hashed again; only the keys of zero terms are looked up.
        clean = dict(terms)
        if 0 in clean.values():
            for key in [key for key, coeff in clean.items() if coeff == 0]:
                del clean[key]
        self.terms = clean

    @classmethod
    def zero(cls, nx: int, ny: int | None = None) -> "SparsePoly":
        return cls(nx, {}, ny)

    @classmethod
    def one(cls, nx: int, ny: int | None = None) -> "SparsePoly":
        return cls(nx, {(0,) * (nx + (ny or 0)): 1}, ny)

    @classmethod
    def monomial(cls, coeff: int, xexp, yexp=None) -> "SparsePoly":
        xexp = tuple(xexp)
        if yexp is None:
            return cls(len(xexp), {xexp: coeff})
        yexp = tuple(yexp)
        return cls(len(xexp), {xexp + yexp: coeff}, len(yexp))

    def _check_compatible(self, other: "SparsePoly"):
        if self.nx != other.nx or self.ny != other.ny:
            raise ValueError(
                f"arity mismatch: ({self.nx}, {self.ny}) vs ({other.nx}, {other.ny})"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.nx, self.ny, self.terms) == (other.nx, other.ny, other.terms)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        return poly_sum((self, other), self.nx, self.ny)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.nx, {k: -c for k, c in self.terms.items()}, self.ny)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, int):
            return SparsePoly(
                self.nx, {k: c * other for k, c in self.terms.items()}, self.ny
            )
        self._check_compatible(other)
        terms: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(map(add, k1, k2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return SparsePoly(self.nx, terms, self.ny)

    __rmul__ = __mul__

    def truncate(self, d: int) -> "SparsePoly":
        """Drop every term whose total x-degree exceeds d."""
        if d < 0:
            raise ValueError("truncation degree must be non-negative")
        nx = self.nx
        return SparsePoly(
            nx, {k: c for k, c in self.terms.items() if sum(k[:nx]) <= d}, self.ny
        )

    def sorted_terms(self):
        """Terms by x-degree, then lexicographically by the flat key.

        Every x part has length nx, so this is the order (|x|, x, y).
        """
        nx = self.nx
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0][:nx]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        nx = self.nx
        chunks = []
        for key, coeff in self.sorted_terms():
            xexp, yexp = key[:nx], key[nx:]
            body = ""
            if any(xexp):
                body += "x^(" + ",".join(map(str, xexp)) + ")"
            if any(yexp):
                body += "y^(" + ",".join(map(str, yexp)) + ")"
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag} {body}"
            if not chunks:
                chunks.append(text if coeff > 0 else "-" + text)
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + text)
        return " ".join(chunks)

    __repr__ = __str__

    def to_json(self) -> list[dict]:
        nx = self.nx
        out = []
        for key, coeff in self.sorted_terms():
            item = {"coeff": coeff, "x_exp": list(key[:nx])}
            if self.ny is not None:
                item["y_exp"] = list(key[nx:])
            out.append(item)
        return out


def poly_sum(parts, nx: int, ny: int | None = None) -> SparsePoly:
    """Sum any number of polynomials of arity (nx, ny) in one pass."""
    terms: dict = {}
    for part in parts:
        if part.nx != nx or part.ny != ny:
            raise ValueError(
                f"arity mismatch: ({nx}, {ny}) vs ({part.nx}, {part.ny})"
            )
        for key, coeff in part.terms.items():
            terms[key] = terms.get(key, 0) + coeff
    return SparsePoly(nx, terms, ny)
