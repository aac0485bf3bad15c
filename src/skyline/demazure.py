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
    The image starts as a copy of ``f``, which keeps the first term of each
    sum and the hash of every exponent tuple; only the moved monomials and
    the cancelled ones are hashed again.
    """
    if f.ny is not None:
        raise ValueError("operators act on single-alphabet polynomials")
    if not 1 <= i < f.nx:
        raise ValueError(f"operator index {i} out of range for {f.nx} variables")
    terms = dict(f.terms)
    get = terms.get
    for exp, coeff in f.terms.items():
        a, b = exp[i - 1], exp[i]
        if a >= b:
            step, span = 1, range(1, a - b + 1)
        else:  # the sum's first term cancels the monomial
            terms[exp] -= coeff
            step, span, coeff = -1, range(1, b - a), -coeff
        if span:
            head, tail = exp[: i - 1], exp[i + 1 :]
            for j in span:
                key = head + (a - step * j, b + step * j) + tail
                terms[key] = get(key, 0) + coeff
    return SparsePoly(f.nx, terms)


def pihat_op(i: int, f: SparsePoly) -> SparsePoly:
    """The complementary operator pi_i - 1."""
    return pi_op(i, f) - f


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


# Sorting chains longer than this are warmed from their dominant end first.
_STRIDE = 200


def _along_chain(cached, alpha):
    """``cached(alpha)`` for a function that recurses once per sorting step.

    A chain has at most len(alpha) choose 2 steps.  When that bound exceeds
    ``_STRIDE``, ``cached`` is first called on every ``_STRIDE``-th
    composition of the chain, from the dominant end up, so that no call
    recurses more than ``_STRIDE`` steps before it reaches a cached value.
    Every composition of the chain still gets its own cache entry.
    """
    alpha = tuple(alpha)
    if len(alpha) * (len(alpha) - 1) // 2 > _STRIDE:
        chain = [alpha]
        while (step := sorting_step(chain[-1])) is not None:
            chain.append(step[1])
        for beta in chain[::-_STRIDE]:
            cached(beta)
    return cached(alpha)


@lru_cache(maxsize=None)
def _key(alpha: tuple[int, ...]) -> SparsePoly:
    step = sorting_step(alpha)
    if step is None:
        return SparsePoly.monomial(1, alpha)
    i, swapped = step
    return pi_op(i, _key(swapped))


@lru_cache(maxsize=None)
def _atom(alpha: tuple[int, ...]) -> SparsePoly:
    step = sorting_step(alpha)
    if step is None:
        return SparsePoly.monomial(1, alpha)
    i, swapped = step
    return pihat_op(i, _atom(swapped))


def key_polynomial(alpha) -> SparsePoly:
    """Demazure character indexed by a weak composition.

    The alphabet size equals len(alpha); callers pad with zeros themselves.
    """
    return _along_chain(_key, alpha)


def atom(alpha) -> SparsePoly:
    """Demazure atom: the same recursion with the complementary operator."""
    return _along_chain(_atom, alpha)
