import pytest
from hypothesis import given
from hypothesis import strategies as st

from skyline.polynomials import SparsePoly, poly_sum
from oracles import (
    pair_product,
    poly_from_json,
    s_action,
    swap_alphabets,
    truncated_product,
)


def poly_strategy(nx=3, max_terms=5, max_exp=4):
    exps = st.tuples(*([st.integers(0, max_exp)] * nx))
    return st.dictionaries(exps, st.integers(-9, 9), max_size=max_terms).map(
        lambda terms: SparsePoly(nx, terms)
    )


def pair_strategy(nx=2, ny=3, max_terms=5, max_exp=3):
    exps = st.tuples(*([st.integers(0, max_exp)] * (nx + ny)))
    return st.dictionaries(exps, st.integers(-9, 9), max_size=max_terms).map(
        lambda terms: SparsePoly(nx, terms, ny)
    )


def test_monomial_and_zero():
    p = SparsePoly.monomial(3, (1, 0, 2))
    assert p.terms == {(1, 0, 2): 3}
    assert SparsePoly.zero(2).is_zero()
    assert SparsePoly.monomial(0, (1, 1)).is_zero()


def test_add_identity_and_cancellation():
    p = SparsePoly.monomial(2, (1, 0))
    assert p + SparsePoly.zero(2) == p
    assert (p - p).is_zero()
    assert (p - p).terms == {}


def test_product_examples():
    x1 = SparsePoly.monomial(1, (1, 0))
    x2 = SparsePoly.monomial(1, (0, 1))
    square = (x1 + x2) * (x1 + x2)
    assert square.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    xy = pair_product(x1, SparsePoly.monomial(1, (1, 0, 0)))
    assert xy.terms == {(1, 0, 1, 0, 0): 1}
    assert xy.nx == 2 and xy.ny == 3


def test_arity_mismatch():
    with pytest.raises(ValueError):
        SparsePoly.monomial(1, (1, 0)) + SparsePoly.monomial(1, (1, 0, 0))
    with pytest.raises(ValueError):
        SparsePoly(2, {(1, 0, 0): 1})
    assert SparsePoly(2, {(1, 0, 0, 1, 2): 1}, 3).terms == {(1, 0, 0, 1, 2): 1}
    for key in [(1, 0, 0, 1), (1, 0, 0, 1, 2, 0), (1, 0), ((1, 0), (0, 1, 2))]:
        with pytest.raises(ValueError):
            SparsePoly(2, {key: 1}, 3)


def test_constructor_drops_zeros_checks_widths_and_copies():
    terms = {(1, 0): 2, (0, 1): 0, (2, 2): -1}
    p = SparsePoly(2, terms)
    assert p.terms == {(1, 0): 2, (2, 2): -1}
    assert terms == {(1, 0): 2, (0, 1): 0, (2, 2): -1}  # the input is left as it was
    terms[(3, 3)] = 5
    assert p.terms == {(1, 0): 2, (2, 2): -1}  # and is not aliased
    dense = {(1, 0): 2, (2, 2): -1}
    q = SparsePoly(2, dense)
    assert q.terms == dense and q.terms is not dense
    assert SparsePoly(2, {(0, 0): 0}).is_zero()
    with pytest.raises(ValueError):
        SparsePoly(2, {(1, 0): 2, (1, 0, 0): 1})
    with pytest.raises(ValueError):
        SparsePoly(1, {(0,): 1}, 2)


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(st.lists(poly_strategy(), max_size=6))
def test_poly_sum_matches_pairwise_sum(parts):
    expected = SparsePoly.zero(3)
    for part in parts:
        expected = expected + part
    assert poly_sum(parts, 3) == expected
    assert poly_sum(iter(parts), 3) == expected


def test_poly_sum_checks_every_arity():
    x = SparsePoly.monomial(1, (1, 0))
    with pytest.raises(ValueError):
        poly_sum([x, x, SparsePoly.monomial(1, (1, 0, 0))], 2)
    with pytest.raises(ValueError):
        poly_sum([x], 2, 1)


def test_truncate_examples():
    x1 = SparsePoly.monomial(1, (1, 0))
    p = x1 + SparsePoly.monomial(1, (2, 0)) + SparsePoly.monomial(5, (0, 0))
    assert p.truncate(0) == SparsePoly.monomial(5, (0, 0))
    assert p.truncate(1) == x1 + SparsePoly.monomial(5, (0, 0))


@given(poly_strategy(max_exp=3), poly_strategy(max_exp=3), st.integers(0, 4))
def test_truncate_product_identity(p, q, d):
    assert (p * q).truncate(d) == (p.truncate(d) * q.truncate(d)).truncate(d)


@given(poly_strategy(max_exp=3), poly_strategy(max_exp=3), st.integers(0, 6))
def test_truncated_mul_matches_truncated_product(p, q, d):
    assert truncated_product(p, q, d) == (p * q).truncate(d)


@given(pair_strategy(), pair_strategy(), st.integers(0, 6))
def test_truncated_mul_matches_truncated_product_two_alphabets(p, q, d):
    assert truncated_product(p, q, d) == (p * q).truncate(d)


def test_truncated_mul_rejects_an_arity_mismatch():
    with pytest.raises(ValueError):
        truncated_product(SparsePoly.one(2), SparsePoly.one(3), 2)
    with pytest.raises(ValueError):
        truncated_product(SparsePoly.one(2, 2), SparsePoly.one(2, 3), 2)


def test_truncated_mul_rejects_a_negative_degree():
    with pytest.raises(ValueError):
        truncated_product(SparsePoly.one(2), SparsePoly.one(2), -1)


def test_s_action_examples():
    p = SparsePoly.monomial(1, (3, 1, 0))
    assert s_action(p, 1) == SparsePoly.monomial(1, (1, 3, 0))
    sym = SparsePoly.monomial(1, (1, 1, 0))
    assert s_action(sym, 1) == sym
    with pytest.raises(ValueError):
        s_action(p, 3)


@given(poly_strategy(), st.integers(1, 2))
def test_s_action_involution(p, i):
    assert s_action(s_action(p, i), i) == p


def test_swap_alphabets():
    p = pair_product(SparsePoly.monomial(2, (1, 0)), SparsePoly.monomial(1, (0, 3)))
    q = swap_alphabets(p)
    assert q.terms == {(0, 3, 1, 0): 2}
    with pytest.raises(ValueError):
        swap_alphabets(SparsePoly.monomial(1, (1,)))


def test_canonical_text():
    p = SparsePoly.monomial(1, (1, 0, 3)) - SparsePoly.monomial(1, (2, 2, 0))
    assert str(p) == "x^(1,0,3) - x^(2,2,0)"
    q = SparsePoly.monomial(2, (1, 0)) + SparsePoly.monomial(-1, (0, 0))
    assert str(q) == "-1 + 2 x^(1,0)"
    assert str(SparsePoly.zero(2)) == "0"
    two = pair_product(SparsePoly.monomial(1, (1,)), SparsePoly.monomial(3, (2,)))
    assert str(two) == "3 x^(1)y^(2)"


def test_exact_big_integers():
    p = SparsePoly.monomial(10**20, (1,))
    q = p * p * 7
    assert q.terms == {(2,): 7 * 10**40}


def test_json_roundtrip():
    p = SparsePoly.monomial(1, (1, 0, 3)) - SparsePoly.monomial(4, (2, 2, 0))
    assert poly_from_json(p.to_json()) == p
    two = pair_product(SparsePoly.monomial(2, (1, 0)), SparsePoly.monomial(1, (2,)))
    assert poly_from_json(two.to_json()) == two
    with pytest.raises(ValueError):
        poly_from_json([])


def test_poly_from_json_rejects_terms_of_another_arity():
    first = {"coeff": 1, "x_exp": [1, 0], "y_exp": [0, 1, 2]}
    for other in [
        {"coeff": 1, "x_exp": [1, 0, 0], "y_exp": [1, 2]},  # same total width
        {"coeff": 1, "x_exp": [1, 0]},
        {"coeff": 1, "x_exp": [1, 0], "y_exp": [0, 1]},
    ]:
        with pytest.raises(ValueError):
            poly_from_json([first, other])


@pytest.mark.parametrize(
    "data",
    [
        {"coeff": 1, "x_exp": [1]},  # not a list of terms
        [[1, [1]]],  # a term that is not an object
        [{"x_exp": [1]}],  # no coefficient
        [{"coeff": 1}],  # no x-exponents
        [{"coeff": 1.5, "x_exp": [1]}],  # inexact coefficient
        [{"coeff": True, "x_exp": [1]}],
        [{"coeff": 1, "x_exp": ["a"]}],
        [{"coeff": 1, "x_exp": [-1]}],
        [{"coeff": 1, "x_exp": [True]}],
        [{"coeff": 1, "x_exp": 1}],
        [{"coeff": 1, "x_exp": [1], "y_exp": [-2]}],
        [{"coeff": 1, "x_exp": [[1]], "y_exp": [[1]]}],  # pair-shaped key
        [{"coeff": 1, "x_exp": [1]}, {"coeff": 2, "x_exp": [1]}],  # repeated key
    ],
)
def test_poly_from_json_rejects_malformed_terms(data):
    with pytest.raises(ValueError):
        poly_from_json(data)
