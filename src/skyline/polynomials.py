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
        return self.truncated_mul(other, inf)

    __rmul__ = __mul__

    def truncate(self, d: int) -> "SparsePoly":
        """Drop every term whose total x-degree exceeds d."""
        if d < 0:
            raise ValueError("truncation degree must be non-negative")
        nx = self.nx
        return SparsePoly(
            nx, {k: c for k, c in self.terms.items() if sum(k[:nx]) <= d}, self.ny
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
        nx = self.nx
        groups: dict[int, list] = {}
        for key, coeff in other.terms.items():
            groups.setdefault(sum(key[:nx]), []).append((key, coeff))
        terms: dict = {}
        for k1, c1 in self.terms.items():
            room = d - sum(k1[:nx])
            for degree, group in groups.items():
                if degree > room:
                    continue
                for k2, c2 in group:
                    key = tuple(map(add, k1, k2))
                    terms[key] = terms.get(key, 0) + c1 * c2
        return SparsePoly(nx, terms, self.ny)

    def swap_alphabets(self) -> "SparsePoly":
        """Exchange the roles of x and y (two-alphabet polynomials only)."""
        if self.ny is None:
            raise ValueError("single-alphabet polynomial has nothing to swap")
        nx = self.nx
        return SparsePoly(
            self.ny, {k[nx:] + k[:nx]: c for k, c in self.terms.items()}, nx
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


def pair_product(px: SparsePoly, py: SparsePoly) -> SparsePoly:
    """Outer product of an x-polynomial and a y-polynomial."""
    if px.ny is not None or py.ny is not None:
        raise ValueError("pair_product expects two single-alphabet polynomials")
    terms = {}
    for xexp, cx in px.terms.items():
        for yexp, cy in py.terms.items():
            terms[xexp + yexp] = cx * cy
    return SparsePoly(px.nx, terms, py.nx)
