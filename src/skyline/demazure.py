"""Isobaric divided differences, key polynomials, and Demazure atoms.

The operator pi_i acts monomial by monomial through the closed telescoping
formula; pihat_i is pi_i minus the identity.  Key polynomials and atoms are
generated by the sorting recursions from the dominant monomial.
"""
from __future__ import annotations

from functools import lru_cache

from .polynomials import SparsePoly


def pi_op(i: int, f: SparsePoly) -> SparsePoly:
    """Demazure operator on the x-alphabet.

    On a monomial with exponents a, b at positions i, i+1: adds the
    telescoping sum when a > b, fixes the monomial when a = b, and
    subtracts the telescoping sum (cancelling the monomial) when a < b.
    """
    if f.ny is not None:
        raise ValueError("operators act on single-alphabet polynomials")
    if not 1 <= i < f.nx:
        raise ValueError(f"operator index {i} out of range for {f.nx} variables")
    terms: dict = {}

    def put(exp, coeff):
        terms[exp] = terms.get(exp, 0) + coeff

    for exp, coeff in f.terms.items():
        a, b = exp[i - 1], exp[i]
        if a >= b:
            for j in range(a - b + 1):
                put(exp[: i - 1] + (a - j, b + j) + exp[i + 1 :], coeff)
        else:
            put(exp, coeff)
            for j in range(b - a):
                put(exp[: i - 1] + (a + j, b - j) + exp[i + 1 :], -coeff)
    return SparsePoly(f.nx, terms)


def pihat_op(i: int, f: SparsePoly) -> SparsePoly:
    """The complementary operator pi_i - 1."""
    return pi_op(i, f) - f


def apply_op_word(word, f: SparsePoly) -> SparsePoly:
    """Compose operators pi_i in word order: the rightmost index acts first."""
    for i in reversed(tuple(word)):
        f = pi_op(i, f)
    return f


def _first_ascent(alpha) -> int | None:
    for i in range(len(alpha) - 1):
        if alpha[i] < alpha[i + 1]:
            return i
    return None


@lru_cache(maxsize=None)
def key_polynomial(alpha: tuple[int, ...]) -> SparsePoly:
    """Demazure character indexed by a weak composition.

    The alphabet size equals len(alpha); callers pad with zeros themselves.
    """
    alpha = tuple(alpha)
    i = _first_ascent(alpha)
    if i is None:
        return SparsePoly.monomial(1, alpha)
    swapped = alpha[:i] + (alpha[i + 1], alpha[i]) + alpha[i + 2 :]
    return pi_op(i + 1, key_polynomial(swapped))


@lru_cache(maxsize=None)
def atom(alpha: tuple[int, ...]) -> SparsePoly:
    """Demazure atom: the same recursion with the complementary operator."""
    alpha = tuple(alpha)
    i = _first_ascent(alpha)
    if i is None:
        return SparsePoly.monomial(1, alpha)
    swapped = alpha[:i] + (alpha[i + 1], alpha[i]) + alpha[i + 2 :]
    return pihat_op(i + 1, atom(swapped))
