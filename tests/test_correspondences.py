import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyline import correspondences, fillings
from skyline.correspondences import (
    Biword,
    biword_from_json,
    biword_to_json,
    criterion_sweep,
    format_biword,
    from_multiset,
    inverse_rsk,
    main_theorem_predicate,
    parse_biword,
    phi,
    phi_inverse,
    rsk,
)
from skyline.fillings import SSAF, empty_ssaf, psi_inverse, validate
from skyline.permutations import orbit_bruhat_leq
from skyline.shapes import reverse
from oracles import alphabet_support_check, phi_steps, rsk_commutes_check, swap_rows
from util import biword_multisets, raw_fillings

W1 = parse_biword("4 6 6 7 / 4 1 2 1")
W2 = parse_biword("1 2 3 3 5 6 / 6 3 2 4 3 1")


def test_biword_validation():
    with pytest.raises(ValueError):
        Biword(((2, 1), (1, 1)))
    with pytest.raises(ValueError):
        Biword(((1, 2), (1, 1)))
    with pytest.raises(ValueError):
        Biword(((0, 1),))


def test_from_multiset():
    assert from_multiset([], 4) == Biword(())
    ms = [(1, 6), (2, 3), (3, 2), (3, 4), (5, 3), (6, 1)]
    assert from_multiset(ms, 6) == W2
    assert len(from_multiset([(1, 1), (1, 1)], 2)) == 2
    with pytest.raises(ValueError):
        from_multiset([(1, 5)], 4)


def test_text_and_json_formats():
    assert parse_biword(format_biword(W1)) == W1
    assert biword_from_json(biword_to_json(W2)) == W2
    with pytest.raises(ValueError):
        parse_biword("1 2 3")


def test_rsk_basics():
    p, q = rsk(Biword(()))
    assert p.rows == () and q.rows == ()
    p, q = rsk(Biword(((2, 5),)), 5)
    assert p.rows == ((5,),) and q.rows == ((2,),)


def test_rsk_worked_example_shape():
    p, q = rsk(W1, 7)
    assert p.shape == q.shape == (2, 1, 1)
    assert p.content() == (2, 1, 0, 1, 0, 0, 0)
    assert q.content() == (0, 0, 0, 1, 0, 2, 1)


def test_rsk_rejects_content_mismatch():
    with pytest.raises(ValueError):
        Biword(((1, 1), (1, 0)))


def test_phi_worked_example_small():
    f, g = phi(W1, 7)
    assert f.shape == (2, 1, 0, 1, 0, 0, 0)
    assert g.shape == (0, 0, 0, 1, 0, 2, 1)
    assert f.columns == ((1, 1), (2,), (), (4,), (), (), ())
    assert g.columns == ((), (), (), (4,), (), (6, 6), (7,))


def test_phi_worked_example_trace():
    expected = [
        ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
        ((1, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1)),
        ((1, 0, 1, 1, 0, 0), (0, 0, 1, 0, 1, 1)),
        ((1, 0, 2, 1, 0, 0), (0, 0, 2, 0, 1, 1)),
        ((1, 0, 2, 2, 0, 0), (0, 0, 2, 0, 2, 1)),
        ((1, 0, 2, 2, 0, 1), (1, 0, 2, 0, 2, 1)),
    ]
    stages = phi_steps(W2, 6)
    assert [(f.shape, g.shape) for f, g in stages] == expected
    f, g = stages[-1]
    assert f.columns == ((1,), (), (3, 3), (4, 2), (), (6,))
    assert g.columns == ((1,), (), (3, 3), (), (5, 2), (6,))


def test_phi_empty_and_errors():
    assert phi(Biword(()), 3) == (empty_ssaf(3), empty_ssaf(3))
    with pytest.raises(ValueError):
        phi(W1, 5)


def test_phi_outputs_validate():
    for pairs in biword_multisets(3, 3):
        f, g = phi(Biword(pairs), 3)
        assert validate(f) and validate(g)
        fc = [0, 0, 0]
        gc = [0, 0, 0]
        for i, j in pairs:
            gc[i - 1] += 1
            fc[j - 1] += 1
        assert f.content() == tuple(fc)
        assert g.content() == tuple(gc)


def test_phi_inverse_roundtrip_worked_examples():
    for w, n in [(W1, 7), (W2, 6)]:
        f, g = phi(w, n)
        assert phi_inverse(f, g) == w


def test_phi_inverse_empty_and_errors():
    assert phi_inverse(empty_ssaf(2), empty_ssaf(2)) == Biword(())
    with pytest.raises(ValueError):
        phi_inverse(SSAF(((1,), ())), SSAF(((1,), (2,))))


def test_phi_inverse_rejects_exactly_the_pairs_whose_shapes_differ():
    # inverse_rsk's shape check is the only one: every pair of valid fillings
    # with 1 <= n <= 3 and at most 4 cells, sorted shapes equal or not
    checked = 0
    for n in range(1, 4):
        valid = [f for f in map(SSAF, raw_fillings(n, 4)) if validate(f)]
        for f, g in itertools.product(valid, repeat=2):
            if sorted(f.shape) == sorted(g.shape):
                assert phi(phi_inverse(f, g), n) == (f, g)
            else:
                with pytest.raises(ValueError):
                    phi_inverse(f, g)
            checked += 1
    assert checked == 5550


def test_inverses_never_replay_psi(monkeypatch):
    cases = []
    for pairs in biword_multisets(3, 3):
        w = Biword(pairs)
        f, g = phi(w, 3)
        cases.append((w, f, g, psi_inverse(f)))

    def replay(tab):
        raise AssertionError("psi called by an inverse")

    monkeypatch.setattr(fillings, "psi", replay)
    for w, f, g, tab in cases:
        assert psi_inverse(f) == tab
        assert phi_inverse(f, g) == w


def test_phi_inverse_exhaustive():
    for pairs in biword_multisets(3, 3):
        w = Biword(pairs)
        f, g = phi(w, 3)
        assert phi_inverse(f, g) == w


def test_phi_inverse_roundtrip_n10_28_biletters():
    rng = random.Random(28)
    n = 10
    w = from_multiset(
        [(rng.randint(1, n), rng.randint(1, n)) for _ in range(28)], n
    )
    f, g = phi(w, n)
    assert phi_inverse(f, g) == w


@st.composite
def biwords_with_alphabet(draw):
    n = draw(st.integers(1, 12))
    letter = st.integers(1, n)
    cells = draw(st.lists(st.tuples(letter, letter), max_size=60))
    return from_multiset(cells, n), n


@settings(max_examples=200)
@given(biwords_with_alphabet())
def test_phi_inverse_roundtrip_random(case):
    w, n = case
    f, g = phi(w, n)
    assert phi_inverse(f, g) == w


def test_inverse_rsk_roundtrip():
    for pairs in biword_multisets(3, 3):
        w = Biword(pairs)
        p, q = rsk(w, 3)
        assert inverse_rsk(p, q) == w


def test_rsk_commutes_exhaustive():
    assert rsk_commutes_check(Biword(()), 3)
    assert rsk_commutes_check(W1, 7)
    for pairs in biword_multisets(3, 3):
        assert rsk_commutes_check(Biword(pairs), 3)


def test_swap_rows():
    assert swap_rows(Biword(())) == Biword(())
    assert swap_rows(Biword(((2, 3),))) == Biword(((3, 2),))
    for pairs in biword_multisets(3, 3):
        w = Biword(pairs)
        f, g = phi(w, 3)
        f2, g2 = phi(swap_rows(w), 3)
        assert (f2, g2) == (g, f)


def test_main_theorem_worked_examples():
    assert main_theorem_predicate(W1, 7) == (True, True)
    lhs, rhs = main_theorem_predicate(W2, 6)
    assert (lhs, rhs) == (False, False)
    # final keys compare strictly the other way
    f, g = phi(W2, 6)
    assert orbit_bruhat_leq(reverse(f.shape), g.shape)
    assert g.shape != reverse(f.shape)
    # restricted to the last four biletters the pair is incomparable
    w_tail = Biword(W2.pairs[2:])
    f4, g4 = phi(w_tail, 6)
    assert not orbit_bruhat_leq(g4.shape, reverse(f4.shape))
    assert not orbit_bruhat_leq(reverse(f4.shape), g4.shape)
    assert main_theorem_predicate(Biword(()), 6) == (True, True)


@pytest.mark.parametrize(
    "n, max_len",
    [(0, 4), (1, 4), (2, 4), (3, 4), (4, 3), (5, 3), (2, 6), (4, 4), (3, 5)],
)
def test_criterion_sweep_matches_the_predicate(n, max_len):
    swept = list(criterion_sweep(n, max_len))
    assert len({pairs for pairs, _, _ in swept}) == len(swept)  # each biword once
    assert Counter(swept) == Counter(
        (pairs, *main_theorem_predicate(Biword(pairs), n))
        for pairs in biword_multisets(n, max_len)
    )


def test_criterion_sweep_rejects_negative_arguments():
    with pytest.raises(ValueError):
        list(criterion_sweep(-1, 2))
    with pytest.raises(ValueError):
        list(criterion_sweep(2, -1))


def _grow_column_0(cols, letter, h):
    return (cols[0] + (letter,),) + cols[1:]


def test_criterion_sweep_checks_shapes_on_every_child(monkeypatch):
    monkeypatch.setattr(correspondences, "_place_in_recording", _grow_column_0)
    with pytest.raises(AssertionError, match="shapes diverged"):
        list(criterion_sweep(3, 3))


def test_phi_checks_shapes_through_the_same_step(monkeypatch):
    monkeypatch.setattr(correspondences, "_place_in_recording", _grow_column_0)
    with pytest.raises(AssertionError, match="shapes diverged"):
        phi(W1, 7)


def test_criterion_sweep_and_phi_share_one_step_routine(monkeypatch):
    calls = []
    step = correspondences._step_columns

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(correspondences, "_step_columns", counting)
    # one step per child of the search: every biword but the empty one
    children = sum(1 for pairs, _, _ in criterion_sweep(3, 3) if pairs)
    assert children > 0 and len(calls) == children
    for w, n in [(W1, 7), (W2, 6), (Biword(()), 2)]:
        del calls[:]
        phi(w, n)
        assert len(calls) == len(w)


def _count_insertions(monkeypatch):
    calls = []
    insert = correspondences.insert_columns

    def counting(k, columns):
        calls.append(k)
        return insert(k, columns)

    monkeypatch.setattr(correspondences, "insert_columns", counting)
    return calls


def test_criterion_sweep_memo_tables_live_for_one_call(monkeypatch):
    calls = _count_insertions(monkeypatch)
    separate = []
    for _ in range(2):
        del calls[:]
        separate.append((Counter(criterion_sweep(3, 4)), len(calls)))
    # a table outliving the first call would make the second one cheaper
    assert separate[0] == separate[1]
    del calls[:]
    a, b = criterion_sweep(3, 4), criterion_sweep(3, 4)
    swept_a, swept_b = Counter(), Counter()
    for x, y in zip(a, b):
        swept_a[x] += 1
        swept_b[y] += 1
    assert next(a, None) is None and next(b, None) is None
    assert swept_a == swept_b == separate[0][0]
    assert len(calls) == 2 * separate[0][1]


@pytest.mark.parametrize("n, max_len", [(4, 4), (6, 3), (2, 8)])
def test_criterion_sweep_inserts_once_per_bottom_prefix_and_letter(
    monkeypatch, n, max_len
):
    calls = _count_insertions(monkeypatch)
    for _ in criterion_sweep(n, max_len):
        pass
    assert len(calls) <= n * sum(n**l for l in range(max_len))


def _count_dominance(f, g, j_col, i_col):
    """k_i >= r_i over all heights: columns right of J vs left of I."""
    max_h = max(max(f.shape, default=0), max(g.shape, default=0))
    for height in range(1, max_h + 1):
        r_i = sum(1 for j2 in range(j_col, f.n) if f.shape[j2] >= height)
        k_i = sum(1 for j2 in range(i_col - 1) if g.shape[j2] >= height)
        if not 0 <= r_i <= k_i:
            return False
    return True


def _first_violation(pairs, n):
    for t, (i, j) in enumerate(reversed(pairs), start=1):
        if i + j > n + 1:
            return t, i, j
    return None


def test_count_dominance_on_worked_trace():
    info = _first_violation(W2.pairs, 6)
    assert info == (2, 5, 3)
    t, i_t, j_t = info
    for d, (f, g) in enumerate(phi_steps(W2, 6), start=1):
        if d >= t:
            assert _count_dominance(f, g, j_t, i_t)


def test_count_dominance_random_single_violations():
    rng = random.Random(7)
    for n in (4, 5):
        staircase_cells = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i + j <= n + 1
        ]
        outside = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i + j > n + 1
        ]
        for _ in range(40):
            ms = [rng.choice(staircase_cells) for _ in range(rng.randrange(4))]
            ms.append(rng.choice(outside))
            w = from_multiset(ms, n)
            info = _first_violation(w.pairs, n)
            t = info[0]
            for d, (f, g) in enumerate(phi_steps(w, n), start=1):
                if d >= t:
                    assert _count_dominance(f, g, info[2], info[1])


def test_alphabet_support_check():
    assert alphabet_support_check(W1, 7, 7, 4)
    assert alphabet_support_check(Biword(()), 4, 2, 3)
    for pairs in biword_multisets(4, 3, cells=[(i, j) for i in (1, 2) for j in (1, 2, 3)]):
        assert alphabet_support_check(Biword(pairs), 4, 2, 3)
    with pytest.raises(ValueError):
        alphabet_support_check(W1, 7, 3, 4)
