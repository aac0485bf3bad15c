"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line with its elapsed time; run with
``pytest -s tests/test_acceptance.py`` to see them.
"""
import random
import time

from skyline.correspondences import Biword, main_theorem_predicate, parse_biword, phi, phi_inverse
from skyline.crystal import atom_set, bounded_entry_restriction, demazure_crystal
from skyline.demazure import atom, key_polynomial, pi_op, pihat_op
from skyline.fillings import SSAF, insert_with_chain, psi, psi_inverse, right_key
from skyline.kernel import KernelInstance, alpha_vector, verify_expansion
from skyline.permutations import orbit_bruhat_leq
from skyline.polynomials import SparsePoly
from skyline.shapes import reverse
from skyline.tableaux import SSYT, enumerate_ssyt, key_tableau
from oracles import (
    atom_via_ssaf,
    key_via_ssaf,
    min_coset_rep,
    orbit,
    pair_product,
    rsk_commutes_check,
    schur_polynomial,
    weight_sum,
)
from util import biword_multisets, partitions_up_to


def _report(num, title, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num} ({title}): PASS in {elapsed:.2f}s")
    assert elapsed < budget


def test_acceptance_1_worked_examples():
    t0 = time.monotonic()

    assert min_coset_rep((1, 3, 0, 0, 1)) == (2, 1, 5, 3, 4)

    big_tab = SSYT(((1, 1, 1, 3), (2, 3, 4), (3, 4), (5,)), 5)
    assert psi(big_tab).shape == (2, 0, 4, 3, 1)
    assert right_key(big_tab) == key_tableau((2, 0, 4, 3, 1))

    start = SSAF(((), (), (3, 2, 1), (4, 1), (), (6,)))
    bumped, h, col, chain = insert_with_chain(3, start)
    assert bumped.shape == (0, 0, 3, 2, 0, 2)
    assert (h, col, chain) == (2, 6, (3, 2, 1))

    w1 = parse_biword("4 6 6 7 / 4 1 2 1")
    f, g = phi(w1, 7)
    assert f.shape == (2, 1, 0, 1, 0, 0, 0)
    assert g.shape == (0, 0, 0, 1, 0, 2, 1)
    assert orbit_bruhat_leq(g.shape, reverse(f.shape))

    w2 = parse_biword("1 2 3 3 5 6 / 6 3 2 4 3 1")
    f2, g2 = phi(w2, 6)
    assert not orbit_bruhat_leq(g2.shape, reverse(f2.shape))
    assert orbit_bruhat_leq(reverse(f2.shape), g2.shape)
    assert g2.shape != reverse(f2.shape)
    f4, g4 = phi(Biword(w2.pairs[2:]), 6)
    assert not orbit_bruhat_leq(g4.shape, reverse(f4.shape))
    assert not orbit_bruhat_leq(reverse(f4.shape), g4.shape)

    nine = {
        (3, 1, 0), (2, 2, 0), (1, 3, 0), (3, 0, 1), (2, 1, 1),
        (2, 0, 2), (1, 2, 1), (1, 1, 2), (1, 0, 3),
    }
    assert key_polynomial((1, 0, 3)).terms == {e: 1 for e in nine}

    big = demazure_crystal((0, 0, 2, 1, 1), 5)
    assert bounded_entry_restriction(big, 4) == demazure_crystal(
        (0, 1, 2, 1, 0), 5
    ).vertices
    assert alpha_vector((1, 1, 2), 5, 4, 3) == (1, 2, 1)

    _report(1, "worked-example fidelity", t0, 1.0)


def test_acceptance_2_main_theorem_exhaustive():
    t0 = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for pairs in biword_multisets(n, 4):
            lhs, rhs = main_theorem_predicate(Biword(pairs), n)
            assert lhs == rhs
            checked += 1
    assert checked == 70 + 715 + 4845
    _report(2, f"staircase criterion on {checked} biwords", t0, 300.0)


def test_acceptance_3_operator_algebra():
    t0 = time.monotonic()
    rng = random.Random(20260809)
    polys = []
    for _ in range(100):
        nx = rng.choice((2, 3, 4))
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            exp = tuple(rng.randrange(5) for _ in range(nx))
            terms[exp] = rng.randrange(-6, 7)
        polys.append(SparsePoly(nx, terms))
    for f in polys:
        idx = range(1, f.nx)
        for i in idx:
            assert pi_op(i, pi_op(i, f)) == pi_op(i, f)
            assert pihat_op(i, pihat_op(i, f)) == -1 * pihat_op(i, f)
        for i in idx:
            for j in idx:
                if abs(i - j) > 1:
                    assert pi_op(i, pi_op(j, f)) == pi_op(j, pi_op(i, f))
                    assert pihat_op(i, pihat_op(j, f)) == pihat_op(j, pihat_op(i, f))
        for i in range(1, f.nx - 1):
            assert pi_op(i, pi_op(i + 1, pi_op(i, f))) == pi_op(
                i + 1, pi_op(i, pi_op(i + 1, f))
            )
            assert pihat_op(i, pihat_op(i + 1, pihat_op(i, f))) == pihat_op(
                i + 1, pihat_op(i, pihat_op(i + 1, f))
            )
    _report(3, "operator algebra on 100 random polynomials", t0, 60.0)


def test_acceptance_4_three_route_agreement():
    t0 = time.monotonic()
    checked = 0
    for n in (2, 3, 4):
        for lam in partitions_up_to(5, n, include_empty=False):
            padded = lam + (0,) * (n - len(lam))
            orbit_atoms = SparsePoly.zero(n)
            for alpha in orbit(padded):
                checked += 1
                kappa = key_polynomial(alpha)
                assert key_via_ssaf(alpha) == kappa
                assert weight_sum(demazure_crystal(alpha, n).vertices, n) == kappa
                hat = atom(alpha)
                assert atom_via_ssaf(alpha) == hat
                assert weight_sum(atom_set(alpha, n), n) == hat
                decomposition = SparsePoly.zero(n)
                for beta in orbit(padded):
                    if orbit_bruhat_leq(beta, alpha):
                        decomposition = decomposition + atom(beta)
                assert decomposition == kappa
                orbit_atoms = orbit_atoms + hat
            assert orbit_atoms == schur_polynomial(lam, n)
    _report(4, f"three-route agreement on {checked} indices", t0, 120.0)


def test_acceptance_5_kernel_expansions():
    t0 = time.monotonic()
    instances = [
        (3, 3, 3, 4),
        (4, 4, 4, 3),
        (5, 4, 3, 3),
        (5, 3, 4, 3),
        (4, 3, 2, 4),
        (4, 4, 3, 3),
    ]
    for n, m, k, d in instances:
        report = verify_expansion(KernelInstance(n, m, k), d)
        assert report.equal, report.summary()
    # the rectangle also matches the truncated classical expansion
    from skyline.kernel import kernel_lhs

    inst = KernelInstance(4, 3, 2)
    d = 4
    classical = SparsePoly.zero(2, 3)
    for lam in partitions_up_to(d, 2):
        classical = classical + pair_product(
            schur_polynomial(lam, 2), schur_polynomial(lam, 3)
        )
    assert kernel_lhs(inst, d) == classical
    _report(5, "kernel expansions on 6 instances", t0, 300.0)


def test_acceptance_6_bijection_roundtrips():
    t0 = time.monotonic()
    for n in (2, 3, 4, 5):
        for lam in partitions_up_to(6, n, include_empty=False):
            for tab in enumerate_ssyt(lam, n):
                assert psi_inverse(psi(tab)) == tab
    for n in (3, 4):
        for pairs in biword_multisets(n, 3):
            w = Biword(pairs)
            f, g = phi(w, n)
            assert phi_inverse(f, g) == w
            assert rsk_commutes_check(w, n)
    _report(6, "bijection roundtrips", t0, 60.0)
