import io
import itertools
import json

import pytest

from skyline import cli, kernel
from skyline.correspondences import from_multiset, phi
from skyline.demazure import atom, key_polynomial
from skyline.kernel import (
    ExpansionReport,
    KernelInstance,
    alpha_vector,
    kernel_lhs,
    kernel_rhs,
    verify_expansion,
)
from skyline.permutations import orbit_bruhat_leq
from skyline.polynomials import SparsePoly
from skyline.shapes import (
    cells,
    compositions_with_sum,
    decreasing_rearrangement,
    reverse,
)
from oracles import (
    alpha_via_sorting,
    is_rectangle,
    is_reduced,
    is_staircase,
    lhs_by_row_products,
    pair_product,
    rhs_by_pair_products,
    schur_polynomial,
    sigma_nw_word,
    sigma_se_word,
    swap_alphabets,
    verify_by_whole_polynomials,
    weight_sum,
)

# (n, m, k, degree) of the bench's kernel workload
KERNEL_CASES = [
    (4, 4, 4, 5), (5, 5, 5, 4),
    (6, 4, 3, 5), (6, 3, 4, 5), (5, 3, 3, 5), (6, 5, 2, 5), (6, 2, 5, 5),
    (6, 5, 4, 4), (6, 4, 5, 4), (5, 5, 4, 5), (5, 4, 5, 5), (6, 6, 3, 4), (6, 3, 6, 4),
]

SMALL_INSTANCES = [
    (n, m, k, d)
    for n in range(1, 6)
    for m in range(1, n + 1)
    for k in range(n + 1 - m, n + 1)
    for d in range(5)
]


def _lhs_by_cells(inst: KernelInstance, d: int) -> SparsePoly:
    """Oracle: one geometric series per shape cell, truncated after each product."""
    total = SparsePoly.one(inst.k, inst.m)
    for i, j in sorted(cells(inst.shape)):
        series_terms = {}
        for t in range(d + 1):
            xexp = [0] * inst.k
            yexp = [0] * inst.m
            xexp[i - 1] = t
            yexp[j - 1] = t
            series_terms[tuple(xexp + yexp)] = 1
        series = SparsePoly(inst.k, series_terms, inst.m)
        total = (total * series).truncate(d)
    return total


def test_instance_validation():
    KernelInstance(5, 4, 3)
    with pytest.raises(ValueError):
        KernelInstance(5, 1, 1)
    assert is_rectangle(KernelInstance(4, 3, 2))
    assert is_staircase(KernelInstance(3, 3, 3))


def test_sigma_se_word_examples():
    assert sigma_se_word(5, 4, 3) == (2, 1, 3, 2, 3)
    assert sigma_se_word(4, 3, 2) == (2, 1, 2)
    assert sigma_se_word(3, 3, 3) == ()
    with pytest.raises(ValueError):
        sigma_se_word(5, 3, 4)


def test_sigma_se_word_length_is_skew_size():
    for n, m, k in [(5, 4, 3), (4, 3, 2), (5, 5, 3), (6, 5, 4), (4, 4, 2)]:
        lam = KernelInstance(n, m, k).shape
        rho_size = min(k, m) * (min(k, m) + 1) // 2
        word = sigma_se_word(n, m, k)
        assert is_reduced(word, n)
        assert len(word) == sum(lam) - rho_size


def test_sigma_nw_word():
    assert sigma_nw_word(5, 3, 4) == sigma_se_word(5, 4, 3)
    assert sigma_nw_word(3, 3, 3) == ()
    with pytest.raises(ValueError):
        sigma_nw_word(5, 4, 3)


def test_alpha_vector_examples():
    assert alpha_vector((1, 1, 2), 5, 4, 3) == (1, 2, 1)
    # m = n: plain reversal
    for mu in compositions_with_sum(4, 3):
        assert alpha_vector(mu, 5, 5, 3) == reverse(mu)
    # rectangle: sorted increasingly
    for mu in compositions_with_sum(4, 2):
        assert alpha_vector(mu, 4, 3, 2) == reverse(decreasing_rearrangement(mu))


def test_alpha_via_sorting_examples():
    assert alpha_via_sorting((1, 1, 2), 5, 4, 3) == (0, 1, 2, 1, 0)
    assert alpha_via_sorting((0, 0, 0), 5, 4, 3) == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("n,m,k", [(5, 4, 3), (4, 3, 2), (4, 4, 3)])
def test_alpha_routes_agree(n, m, k):
    for mu in itertools.product(range(4), repeat=k):
        expected = (0,) * (m - k) + alpha_vector(mu, n, m, k) + (0,) * (n - m)
        assert alpha_via_sorting(mu, n, m, k) == expected


def test_alpha_vector_bounds():
    for n, m, k in [(5, 4, 3), (4, 3, 2), (4, 4, 3), (5, 5, 3)]:
        for mu in itertools.product(range(3), repeat=k):
            alpha = alpha_vector(mu, n, m, k)
            assert orbit_bruhat_leq(reverse(mu), alpha)
            assert orbit_bruhat_leq(alpha, reverse(decreasing_rearrangement(mu)))


def test_kernel_lhs_small():
    inst = KernelInstance(2, 2, 2)  # the staircase shape (2, 1)
    assert inst.shape == (2, 1)
    assert kernel_lhs(inst, 0) == SparsePoly.one(2, 2)
    lhs1 = kernel_lhs(inst, 1)
    expected = SparsePoly.one(2, 2)
    for i, j in sorted(cells((2, 1))):
        xexp = [0, 0]
        yexp = [0, 0]
        xexp[i - 1] = 1
        yexp[j - 1] = 1
        expected = expected + SparsePoly.monomial(1, xexp, yexp)
    assert lhs1 == expected


def test_kernel_lhs_single_cell_geometric():
    inst = KernelInstance(1, 1, 1)  # shape (1)
    lhs = kernel_lhs(inst, 2)
    assert lhs.terms == {
        (0, 0): 1,
        (1, 1): 1,
        (2, 2): 1,
    }


@pytest.mark.parametrize("n", range(1, 6))
def test_kernel_lhs_matches_cell_by_cell_product(n):
    for m in range(1, n + 1):
        for k in range(n + 1 - m, n + 1):
            inst = KernelInstance(n, m, k)
            for d in range(5):
                assert kernel_lhs(inst, d) == _lhs_by_cells(inst, d), (n, m, k, d)


def test_kernel_lhs_rejects_a_negative_degree():
    with pytest.raises(ValueError):
        kernel_lhs(KernelInstance(3, 3, 3), -1)


def test_kernel_rhs_degree_zero():
    assert kernel_rhs(KernelInstance(4, 3, 2), 0) == SparsePoly.one(2, 3)


def test_kernel_rhs_staircase_term_structure():
    inst = KernelInstance(2, 2, 2)
    d = 2
    expected = SparsePoly.zero(2, 2)
    for size in range(d + 1):
        for mu in compositions_with_sum(size, 2):
            expected = expected + pair_product(
                atom(mu), key_polynomial(reverse(mu))
            )
    assert kernel_rhs(inst, d) == expected


def test_kernel_rhs_rectangle_collapses_to_sorted_index():
    inst = KernelInstance(4, 3, 2)
    d = 3
    expected = SparsePoly.zero(2, 3)
    for size in range(d + 1):
        for mu in compositions_with_sum(size, 2):
            index = (0,) + reverse(decreasing_rearrangement(mu))
            expected = expected + pair_product(atom(mu), key_polynomial(index))
    assert kernel_rhs(inst, d) == expected


def test_verify_expansion_basic():
    report = verify_expansion(KernelInstance(3, 3, 3), 3)
    assert report.equal and report.first_diff is None
    assert "equal" in report.summary()
    assert verify_expansion(KernelInstance(4, 3, 2), 0).equal


def test_verify_expansion_report_on_mismatch():
    report = ExpansionReport(1, 1, 1, 2, 3, False, ((1,), (1,), 1, 2))
    assert "MISMATCH" in report.summary()
    assert report.to_json()["first_diff"]["lhs_coeff"] == 1


def test_verify_expansion_names_the_graded_least_real_mismatch(monkeypatch):
    # k=2 rows, m=3 columns; the lhs has x_1 y_1 with coefficient 1
    inst = KernelInstance(3, 3, 2)
    true_pairs = kernel.rhs_pairs
    shared = SparsePoly.monomial(3, (1, 0)), SparsePoly.monomial(1, (1, 0, 0))
    rhs_only = SparsePoly.monomial(5, (1, 0)), SparsePoly.monomial(1, (2, 0, 0))
    higher = SparsePoly.monomial(7, (0, 2)), SparsePoly.monomial(1, (0, 0, 0))
    beyond = SparsePoly.monomial(2, (0, 4)), SparsePoly.monomial(1, (0, 0, 1))

    def report_with(*extra):
        # the extra (x, y) pairs add 3 x_1 y_1, 5 x_1 y_1^2, 7 x_2^2 or 2 x_2^4 y_3
        def pairs(i, d):
            yield from true_pairs(i, d)
            yield from extra

        monkeypatch.setattr(kernel, "rhs_pairs", pairs)
        return verify_expansion(inst, 3)

    report = report_with(shared, rhs_only, higher)
    assert not report.equal
    assert report.first_diff == ((1, 0), (1, 0, 0), 1, 4)
    assert report.summary() == (
        "kernel n=3 m=3 k=2 deg=3: "
        "MISMATCH at x^(1, 0) y^(1, 0, 0): lhs has 1, rhs has 4"
    )
    assert report.to_json()["first_diff"] == {
        "x_exp": [1, 0], "y_exp": [1, 0, 0], "lhs_coeff": 1, "rhs_coeff": 4
    }
    assert report_with(rhs_only, higher).first_diff == ((1, 0), (2, 0, 0), 0, 5)
    assert report_with(higher).first_diff == ((0, 2), (0, 0, 0), 0, 7)
    # a right-side term above the degree is still compared
    assert report_with(beyond).first_diff == ((0, 4), (0, 0, 1), 0, 2)


def _assert_matches_oracle(inst, d):
    streamed = verify_expansion(inst, d)
    whole = verify_by_whole_polynomials(inst, d)
    assert (streamed.equal, streamed.terms, streamed.first_diff) == (
        whole.equal, whole.terms, whole.first_diff
    )
    assert streamed.summary() == whole.summary()
    assert streamed.to_json() == whole.to_json()
    return streamed


@pytest.mark.parametrize("n,m,k,d", KERNEL_CASES)
def test_streamed_check_matches_the_whole_polynomials_on_the_bench_cases(n, m, k, d):
    assert _assert_matches_oracle(KernelInstance(n, m, k), d).equal


def test_streamed_check_matches_the_whole_polynomials_on_every_small_instance():
    assert len(SMALL_INSTANCES) == 175
    for n, m, k, d in SMALL_INSTANCES:
        assert _assert_matches_oracle(KernelInstance(n, m, k), d).equal, (n, m, k, d)


def _sorted_index(mu, n, m, k):
    return tuple(sorted(mu))


def _oversized_index(mu, n, m, k):
    # the first entry grows by 5, so the index has size |mu| + 5 > d; the
    # name alpha_vector here is the import, which the tests do not patch
    alpha = alpha_vector(mu, n, m, k)
    return (alpha[0] + 5,) + alpha[1:]


@pytest.mark.parametrize("broken", [_sorted_index, _oversized_index])
@pytest.mark.parametrize("n,m,k,d", [(3, 3, 3, 4), (5, 4, 3, 3), (5, 3, 4, 3)])
def test_a_broken_character_index_fails_with_the_oracles_first_diff(
    monkeypatch, broken, n, m, k, d
):
    inst = KernelInstance(n, m, k)
    monkeypatch.setattr(kernel, "alpha_vector", broken)
    whole = verify_by_whole_polynomials(inst, d)
    assert not whole.equal
    assert not _assert_matches_oracle(inst, d).equal
    out = io.StringIO()
    argv = ["verify-kernel", "--n", str(n), "--m", str(m), "--k", str(k)]
    assert cli.run(argv + ["--deg", str(d), "--json", "-"], out) == 1
    assert out.getvalue() == (
        whole.summary() + "\n" + json.dumps(whole.to_json(), sort_keys=True) + "\n"
    )


@pytest.mark.parametrize("broken", [None, _sorted_index, _oversized_index])
def test_views_match_the_oracle_routes(monkeypatch, broken):
    # kernel_lhs and kernel_rhs are views of one walk; the oracles build each
    # side whole by its own route, and a broken index must still show
    if broken is not None:
        monkeypatch.setattr(kernel, "alpha_vector", broken)
    unequal = set()
    for n, m, k, d in SMALL_INSTANCES + KERNEL_CASES:
        inst = KernelInstance(n, m, k)
        lhs, rhs = kernel_lhs(inst, d), kernel_rhs(inst, d)
        assert lhs == lhs_by_row_products(inst, d), (n, m, k, d)
        assert rhs == rhs_by_pair_products(inst, d), (n, m, k, d)
        if lhs != rhs:
            unequal.add((n, m, k, d))
    if broken is None:
        assert unequal == set()
    else:
        assert {(3, 3, 3, 4), (5, 4, 3, 3), (5, 3, 4, 3)} <= unequal


def test_a_sorted_index_changes_24_of_the_35_classes_of_3_3_3_4():
    changed = [
        mu
        for size in range(5)
        for mu in compositions_with_sum(size, 3)
        if key_polynomial(tuple(sorted(mu))) != key_polynomial(alpha_vector(mu, 3, 3, 3))
    ]
    assert len(changed) == 24


def test_rectangle_matches_classical_cauchy():
    inst = KernelInstance(4, 3, 2)
    d = 4
    lhs = kernel_lhs(inst, d)
    total = SparsePoly.zero(2, 3)
    seen = set()
    for size in range(d + 1):
        for mu in compositions_with_sum(size, 2):
            lam = decreasing_rearrangement(mu)
            if lam in seen:
                continue
            seen.add(lam)
            total = total + pair_product(
                schur_polynomial(lam, 2), schur_polynomial(lam, 3)
            )
    assert lhs == total


def test_expansion_k_greater_than_m_at_degree_4():
    # both views come from one walk, so each is compared with the other
    # side's independent route
    inst = KernelInstance(6, 3, 5)
    assert kernel_rhs(inst, 4) == lhs_by_row_products(inst, 4)


@pytest.mark.parametrize("n,m,k,d", [(7, 7, 7, 5), (7, 6, 5, 6)])
def test_expansion_at_large_sizes(n, m, k, d):
    inst = KernelInstance(n, m, k)
    assert kernel_lhs(inst, d) == rhs_by_pair_products(inst, d)


def test_conjugation_symmetry():
    for (n, m, k), d in [((5, 4, 3), 2), ((4, 3, 2), 3), ((4, 4, 3), 2)]:
        direct = kernel_rhs(KernelInstance(n, k, m), d)
        swapped = swap_alphabets(kernel_rhs(KernelInstance(n, m, k), d))
        assert direct == swapped
        assert kernel_lhs(KernelInstance(n, k, m), d) == swap_alphabets(
            kernel_lhs(KernelInstance(n, m, k), d)
        )


def test_bijection_level_binning():
    # every cell multiset lands, through the correspondence, in the single
    # term of the expansion indexed by the recording shape
    n, m, k, d = 5, 4, 3, 3
    inst = KernelInstance(n, m, k)
    lam_cells = sorted(cells(inst.shape))
    buckets = {}
    for r in range(d + 1):
        for ms in itertools.combinations_with_replacement(lam_cells, r):
            w = from_multiset(ms, n)
            f, g = phi(w, n)
            assert all(e == 0 for e in g.shape[k:])
            assert all(e == 0 for e in f.shape[m:])
            mu = g.shape[:k]
            mono = pair_product(
                SparsePoly.monomial(1, g.content()[:k]),
                SparsePoly.monomial(1, f.content()[:m]),
            )
            buckets[mu] = buckets.get(mu, SparsePoly.zero(k, m)) + mono
    for size in range(d + 1):
        for mu in compositions_with_sum(size, k):
            expected = pair_product(
                atom(mu),
                key_polynomial((0,) * (m - k) + alpha_vector(mu, n, m, k)),
            )
            assert buckets.get(mu, SparsePoly.zero(k, m)) == expected


def test_entry_restriction_matches_kernel_character():
    # restricting the crystal of the padded reversed index to small entries
    # gives exactly the character appearing in the kernel expansion
    from skyline.crystal import bounded_entry_restriction, demazure_crystal

    for n, m, k in [(5, 4, 3), (4, 3, 2)]:
        for mu in itertools.product(range(3), repeat=k):
            gamma = (0,) * (n - k) + reverse(mu)
            restricted = bounded_entry_restriction(demazure_crystal(gamma, n), m)
            target = key_polynomial(
                (0,) * (m - k) + alpha_vector(mu, n, m, k) + (0,) * (n - m)
            )
            assert weight_sum(restricted, n) == target
