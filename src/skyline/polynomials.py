"""Exact sparse multivariate polynomials keyed by exponent vectors.

One alphabet (x) or two (x and y).  Coefficients are Python integers, so
all arithmetic is exact; no term with a zero coefficient is ever stored.
Values are immutable by convention: every operation builds a new one.
"""
from __future__ import annotations

from math import inf
from operator import add


class SparsePoly:
    """Sparse polynomial over Z in x_1..x_nx and optionally y_1..y_ny.

    Terms map an exponent tuple (or a pair of tuples for two alphabets) to
    a nonzero integer coefficient.
    """

    __slots__ = ("nx", "ny", "terms")

    def __init__(self, nx: int, terms=None, ny: int | None = None):
        self.nx = nx
        self.ny = ny
        clean = {}
        for key, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            if ny is None:
                if len(key) != nx:
                    raise ValueError(f"exponent {key} has length != {nx}")
            else:
                xexp, yexp = key
                if len(xexp) != nx or len(yexp) != ny:
                    raise ValueError(f"exponent pair {key} does not match ({nx}, {ny})")
            clean[key] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, nx: int, ny: int | None = None) -> "SparsePoly":
        return cls(nx, {}, ny)

    @classmethod
    def one(cls, nx: int, ny: int | None = None) -> "SparsePoly":
        return cls.monomial(1, (0,) * nx, (0,) * ny if ny is not None else None)

    @classmethod
    def monomial(cls, coeff: int, xexp, yexp=None) -> "SparsePoly":
        xexp = tuple(xexp)
        if yexp is None:
            return cls(len(xexp), {xexp: coeff})
        yexp = tuple(yexp)
        return cls(len(xexp), {(xexp, yexp): coeff}, len(yexp))

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
        return self.truncated_mul(other, inf)

    __rmul__ = __mul__

    def _xexp(self, key):
        return key if self.ny is None else key[0]

    def truncate(self, d: int) -> "SparsePoly":
        """Drop every term whose total x-degree exceeds d."""
        if d < 0:
            raise ValueError("truncation degree must be non-negative")
        return SparsePoly(
            self.nx,
            {k: c for k, c in self.terms.items() if sum(self._xexp(k)) <= d},
            self.ny,
        )

    def truncated_mul(self, other: "SparsePoly", d) -> "SparsePoly":
        """``(self * other).truncate(d)`` without building the dropped terms.

        ``other``'s terms are grouped by x-degree, so a term of ``self`` of
        degree s visits only the groups of degree <= d - s. ``__mul__``
        calls this with ``d = inf``: it is the one product loop.
        """
        if d < 0:
            raise ValueError("truncation degree must be non-negative")
        self._check_compatible(other)
        groups: dict[int, list] = {}
        for key, coeff in other.terms.items():
            groups.setdefault(sum(self._xexp(key)), []).append((key, coeff))
        terms: dict = {}
        for k1, c1 in self.terms.items():
            room = d - sum(self._xexp(k1))
            for degree, group in groups.items():
                if degree > room:
                    continue
                for k2, c2 in group:
                    if self.ny is None:
                        key = tuple(map(add, k1, k2))
                    else:
                        key = (
                            tuple(map(add, k1[0], k2[0])),
                            tuple(map(add, k1[1], k2[1])),
                        )
                    terms[key] = terms.get(key, 0) + c1 * c2
        return SparsePoly(self.nx, terms, self.ny)

    def s_action(self, i: int) -> "SparsePoly":
        """Swap the x-exponents at positions i and i+1 in every term."""
        if not 1 <= i < self.nx:
            raise ValueError(f"index {i} out of range for {self.nx} x-variables")

        def swap(e):
            e = list(e)
            e[i - 1], e[i] = e[i], e[i - 1]
            return tuple(e)

        if self.ny is None:
            terms = {swap(k): c for k, c in self.terms.items()}
        else:
            terms = {(swap(k[0]), k[1]): c for k, c in self.terms.items()}
        return SparsePoly(self.nx, terms, self.ny)

    def swap_alphabets(self) -> "SparsePoly":
        """Exchange the roles of x and y (two-alphabet polynomials only)."""
        if self.ny is None:
            raise ValueError("single-alphabet polynomial has nothing to swap")
        return SparsePoly(
            self.ny, {(y, x): c for (x, y), c in self.terms.items()}, self.nx
        )

    def sorted_terms(self):
        """Terms in graded lexicographic order of the exponents."""
        if self.ny is None:
            key = lambda kv: (sum(kv[0]), kv[0])
        else:
            key = lambda kv: (sum(kv[0][0]), kv[0][0], kv[0][1])
        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for key, coeff in self.sorted_terms():
            if self.ny is None:
                xexp, yexp = key, None
            else:
                xexp, yexp = key
            body = ""
            if any(xexp):
                body += "x^(" + ",".join(map(str, xexp)) + ")"
            if yexp is not None and any(yexp):
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
        out = []
        for key, coeff in self.sorted_terms():
            if self.ny is None:
                out.append({"coeff": coeff, "x_exp": list(key)})
            else:
                out.append({"coeff": coeff, "x_exp": list(key[0]), "y_exp": list(key[1])})
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


def poly_from_json(data) -> SparsePoly:
    """Rebuild a polynomial from its JSON term list; the first term fixes the arity."""
    terms = {}
    nx = ny = None
    for item in data:
        xexp = tuple(item["x_exp"])
        if nx is None:
            nx = len(xexp)
        if "y_exp" in item:
            yexp = tuple(item["y_exp"])
            if ny is None:
                ny = len(yexp)
            terms[(xexp, yexp)] = item["coeff"]
        else:
            terms[xexp] = item["coeff"]
    if nx is None:
        raise ValueError("cannot infer arity from an empty term list")
    return SparsePoly(nx, terms, ny)


def pair_product(px: SparsePoly, py: SparsePoly) -> SparsePoly:
    """Outer product of an x-polynomial and a y-polynomial."""
    if px.ny is not None or py.ny is not None:
        raise ValueError("pair_product expects two single-alphabet polynomials")
    terms = {}
    for xexp, cx in px.terms.items():
        for yexp, cy in py.terms.items():
            terms[(xexp, yexp)] = cx * cy
    return SparsePoly(px.nx, terms, py.nx)
