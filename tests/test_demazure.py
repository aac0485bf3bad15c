import random

import pytest

from skyline.demazure import atom, key_polynomial, pi_op, pihat_op
from skyline.permutations import orbit_bruhat_leq
from skyline.polynomials import SparsePoly
from skyline.shapes import decreasing_rearrangement
from oracles import (
    all_reduced_words,
    apply_op_word,
    atom_via_ssaf,
    key_via_ssaf,
    min_coset_rep,
    orbit,
    pair_product,
    reduced_word,
    s_action,
    schur_polynomial,
)
from util import partitions_up_to

MONO_310 = SparsePoly.monomial(1, (3, 1, 0))

KEYPOLY_103 = {
    (3, 1, 0), (2, 2, 0), (1, 3, 0), (3, 0, 1), (2, 1, 1),
    (2, 0, 2), (1, 2, 1), (1, 1, 2), (1, 0, 3),
}
ATOM_103 = {(2, 1, 1), (2, 0, 2), (1, 2, 1), (1, 1, 2), (1, 0, 3)}


def random_polys(count, nx, max_deg, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            exp = tuple(rng.randrange(max_deg + 1) for _ in range(nx))
            terms[exp] = rng.randrange(-5, 6)
        out.append(SparsePoly(nx, terms))
    return out


def test_pi_examples():
    assert pi_op(1, MONO_310).terms == {(3, 1, 0): 1, (2, 2, 0): 1, (1, 3, 0): 1}
    fixed = SparsePoly.monomial(1, (2, 2, 0))
    assert pi_op(1, fixed) == fixed
    assert pi_op(1, SparsePoly.monomial(1, (1, 3))).terms == {(2, 2): -1}


def test_pi_matches_quotient_definition():
    # (x_i - x_{i+1}) pi_i f == x_i f - s_i(x_i f), multiplication only
    for f in random_polys(30, 3, 4, seed=1):
        for i in (1, 2):
            xi = SparsePoly.monomial(1, tuple(1 if t == i - 1 else 0 for t in range(3)))
            xi1 = SparsePoly.monomial(1, tuple(1 if t == i else 0 for t in range(3)))
            lhs = (xi - xi1) * pi_op(i, f)
            rhs = xi * f - s_action(xi * f, i)
            assert lhs == rhs


def test_pihat_examples():
    assert pihat_op(1, SparsePoly.monomial(1, (2, 2, 0))).is_zero()
    assert pihat_op(1, MONO_310).terms == {(2, 2, 0): 1, (1, 3, 0): 1}
    assert pihat_op(1, SparsePoly.monomial(1, (1, 0))).terms == {(0, 1): 1}


def test_vanishing_iff_symmetric():
    for f in random_polys(20, 3, 3, seed=2):
        for i in (1, 2):
            sym = f + s_action(f, i)
            assert pihat_op(i, sym).is_zero()
            assert pi_op(i, sym) == sym


def test_operator_relations():
    for f in random_polys(25, 4, 4, seed=3):
        for i in (1, 2, 3):
            assert pi_op(i, pi_op(i, f)) == pi_op(i, f)
            assert pihat_op(i, pihat_op(i, f)) == -1 * pihat_op(i, f)
        assert pi_op(1, pi_op(3, f)) == pi_op(3, pi_op(1, f))
        assert pihat_op(1, pihat_op(3, f)) == pihat_op(3, pihat_op(1, f))
        for i in (1, 2):
            assert pi_op(i, pi_op(i + 1, pi_op(i, f))) == pi_op(
                i + 1, pi_op(i, pi_op(i + 1, f))
            )
            assert pihat_op(i, pihat_op(i + 1, pihat_op(i, f))) == pihat_op(
                i + 1, pihat_op(i, pihat_op(i + 1, f))
            )


def test_apply_op_word():
    f = MONO_310
    assert apply_op_word((), f) == f
    assert {e for e in apply_op_word((2, 1), f).terms} == KEYPOLY_103
    for f in random_polys(10, 3, 3, seed=4):
        assert apply_op_word((1, 2, 1), f) == apply_op_word((2, 1, 2), f)


def test_key_polynomial_examples():
    assert {e for e in key_polynomial((1, 0, 3)).terms} == KEYPOLY_103
    assert all(c == 1 for c in key_polynomial((1, 0, 3)).terms.values())
    assert key_polynomial((3, 1, 0)) == MONO_310
    assert key_polynomial((0, 1)).terms == {(1, 0): 1, (0, 1): 1}


def test_atom_examples():
    assert atom((3, 1, 0)) == MONO_310
    assert {e for e in atom((1, 0, 3)).terms} == ATOM_103
    assert atom((0, 1)).terms == {(0, 1): 1}


def test_atom_via_decomposition_oracle():
    # subtracting every strictly smaller orbit element's atom from the
    # character must reproduce the atom
    for alpha in [(1, 0, 3), (0, 2, 1), (2, 0, 1, 1)]:
        total = key_polynomial(alpha)
        for beta in orbit(alpha):
            if beta != alpha and orbit_bruhat_leq(beta, alpha):
                total = total - atom(beta)
        assert total == atom(alpha)


def test_ssaf_routes_match():
    for lam in partitions_up_to(5, 4, include_empty=False):
        n = max(len(lam), 2)
        padded = lam + (0,) * (n - len(lam))
        for alpha in orbit(padded):
            assert atom_via_ssaf(alpha) == atom(alpha)
            assert key_via_ssaf(alpha) == key_polynomial(alpha)


def test_character_decomposes_into_atoms():
    for n in (2, 3, 4):
        for lam in partitions_up_to(6, n, include_empty=False):
            padded = lam + (0,) * (n - len(lam))
            for alpha in orbit(padded):
                total = SparsePoly.zero(n)
                for beta in orbit(alpha):
                    if orbit_bruhat_leq(beta, alpha):
                        total = total + atom(beta)
                assert total == key_polynomial(alpha)


def test_schur_decomposition():
    for n in (2, 3, 4):
        for lam in partitions_up_to(6, n, include_empty=False):
            padded = lam + (0,) * (n - len(lam))
            total = SparsePoly.zero(n)
            for alpha in orbit(padded):
                total = total + atom(alpha)
            assert total == schur_polynomial(lam, n)


def test_symmetry_criterion():
    for n in (2, 3, 4):
        for lam in partitions_up_to(6, n, include_empty=False):
            padded = lam + (0,) * (n - len(lam))
            for alpha in orbit(padded):
                kappa = key_polynomial(alpha)
                for i in range(1, n):
                    assert (s_action(kappa, i) == kappa) == (alpha[i - 1] <= alpha[i])


def test_sorting_action_on_characters():
    for n in (2, 3, 4):
        for lam in partitions_up_to(6, n, include_empty=False):
            padded = lam + (0,) * (n - len(lam))
            for alpha in orbit(padded):
                for i in range(1, n):
                    if alpha[i - 1] > alpha[i]:
                        swapped = list(alpha)
                        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                        assert pi_op(i, key_polynomial(alpha)) == key_polynomial(
                            tuple(swapped)
                        )
                    else:
                        assert pi_op(i, key_polynomial(alpha)) == key_polynomial(alpha)


def test_well_defined_over_reduced_words():
    # two different reduced words of the coset minimum give the same result
    for lam in [(2, 1, 0), (3, 1, 0), (2, 2, 1, 0)]:
        n = len(lam)
        for alpha in orbit(lam):
            w = min_coset_rep(alpha)
            words = all_reduced_words(w, n)
            assert reduced_word(w) in words
            base = SparsePoly.monomial(1, decreasing_rearrangement(alpha))
            results = {
                tuple(sorted(apply_op_word(word, base).terms.items()))
                for word in words
            }
            assert len(results) == 1
            assert apply_op_word(words[0], base) == key_polynomial(alpha)


def test_operator_rejects_two_alphabets():
    two = pair_product(SparsePoly.monomial(1, (1, 0)), SparsePoly.monomial(1, (1,)))
    with pytest.raises(ValueError):
        pi_op(1, two)
