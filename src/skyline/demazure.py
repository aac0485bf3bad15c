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


def sorting_step(alpha) -> tuple[int, tuple[int, ...]] | None:
    """The first ascent ``alpha_i < alpha_{i+1}`` (1-based ``i``) and ``alpha``
    with entries i, i+1 swapped; None when ``alpha`` is weakly decreasing.

    The object indexed by ``alpha`` is operator i applied to the object
    indexed by the swapped composition.
    """
    for i in range(1, len(alpha)):
        a, b = alpha[i - 1], alpha[i]
        if a < b:
            return i, alpha[: i - 1] + (b, a) + alpha[i + 1 :]
    return None


@lru_cache(maxsize=None)
def key_polynomial(alpha: tuple[int, ...]) -> SparsePoly:
    """Demazure character indexed by a weak composition.

    The alphabet size equals len(alpha); callers pad with zeros themselves.
    """
    alpha = tuple(alpha)
    step = sorting_step(alpha)
    if step is None:
        return SparsePoly.monomial(1, alpha)
    i, swapped = step
    return pi_op(i, key_polynomial(swapped))


@lru_cache(maxsize=None)
def atom(alpha: tuple[int, ...]) -> SparsePoly:
    """Demazure atom: the same recursion with the complementary operator."""
    alpha = tuple(alpha)
    step = sorting_step(alpha)
    if step is None:
        return SparsePoly.monomial(1, alpha)
    i, swapped = step
    return pihat_op(i, atom(swapped))
