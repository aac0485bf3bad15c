import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skyline import permutations
from skyline.permutations import orbit_bruhat_leq
from skyline.shapes import compositions_with_sum, decreasing_rearrangement
from oracles import (
    act,
    apply_word,
    bruhat_leq_subword,
    bubble_sort_op,
    compose,
    from_word,
    identity,
    is_reduced,
    key_columns_leq,
    length,
    longest,
    min_coset_rep,
    orbit,
    reduced_word,
    tableau_criterion_leq,
)
from util import small_compositions


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def test_length_examples():
    assert longest(3) == (3, 2, 1)
    assert length(identity(4)) == 0
    for n in range(1, 6):
        assert length(longest(n)) == n * (n - 1) // 2
    assert length((2, 1, 5, 3, 4)) == 3


def test_reduced_word_roundtrip():
    for n in range(1, 5):
        for w in all_perms(n):
            word = reduced_word(w)
            assert from_word(n, word) == w
            assert len(word) == length(w)


def test_reduced_word_example():
    # the shortest coset representative 21534 factors through s_1 s_4 s_3
    assert from_word(5, (1, 4, 3)) == (2, 1, 5, 3, 4)


def test_is_reduced_examples():
    assert is_reduced((1, 4, 3), 5)
    assert not is_reduced((1, 1), 3)
    assert not is_reduced((1, 2, 1, 2), 3)


def test_bruhat_extremes():
    for n in (2, 3, 4):
        for w in all_perms(n):
            assert tableau_criterion_leq(identity(n), w)
            assert tableau_criterion_leq(w, longest(n))


def test_bruhat_incomparable_pair():
    s1 = (2, 1, 3)
    s2 = (1, 3, 2)
    assert not tableau_criterion_leq(s1, s2)
    assert not tableau_criterion_leq(s2, s1)


def test_tableau_criterion_reflexive_and_example():
    assert tableau_criterion_leq((2, 1, 3), (2, 1, 3))
    assert tableau_criterion_leq((2, 1, 3), longest(3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_agrees_with_subword_oracle(n):
    for u in all_perms(n):
        for v in all_perms(n):
            assert tableau_criterion_leq(u, v) == bruhat_leq_subword(u, v)


def test_bruhat_agrees_with_subword_oracle_s5():
    perms = all_perms(5)
    for u in perms:
        for v in perms:
            assert tableau_criterion_leq(u, v) == bruhat_leq_subword(u, v)


def test_bruhat_size_mismatch():
    with pytest.raises(ValueError):
        tableau_criterion_leq((1, 2), (1, 2, 3))


def test_longest_translations_are_antiautomorphisms():
    for n in (2, 3, 4):
        w0 = longest(n)
        for u in all_perms(n):
            for v in all_perms(n):
                expected = tableau_criterion_leq(u, v)
                assert tableau_criterion_leq(compose(w0, v), compose(w0, u)) == expected
                assert tableau_criterion_leq(compose(v, w0), compose(u, w0)) == expected


def test_orbit_bruhat_examples():
    lam = (3, 1, 0)
    for gamma in orbit(lam):
        assert orbit_bruhat_leq(lam, gamma)
    assert orbit_bruhat_leq((3, 2, 2, 1, 0, 0, 1), (2, 0, 3, 0, 1, 2, 1))
    assert orbit_bruhat_leq((3, 1, 0), (1, 0, 3))
    assert not orbit_bruhat_leq((1, 0, 3), (3, 1, 0))


def test_orbit_bruhat_rejects_different_multisets():
    with pytest.raises(ValueError):
        orbit_bruhat_leq((1, 0), (1, 1))


def test_orbit_bruhat_matches_the_uncached_key_columns_exhaustive():
    permutations._key_word.cache_clear()
    pairs = 0
    for n in range(6):
        for d in range(6):
            orbits = {}
            for gamma in compositions_with_sum(d, n):
                orbits.setdefault(decreasing_rearrangement(gamma), []).append(gamma)
            for members in orbits.values():
                for a1 in members:
                    for a2 in members:
                        assert orbit_bruhat_leq(a1, a2) == key_columns_leq(a1, a2)
                        pairs += 1
    assert pairs == 6_628


@pytest.mark.parametrize(
    "a1, a2", [((1, 0), (1, 1)), ((1, 0), (1,)), ((2, 0), (1, 1)), ((), (0,)), ((0, 3), (2, 1))]
)
def test_orbit_bruhat_rejects_non_rearrangements_with_cached_words(a1, a2):
    for _ in range(2):  # the second pass finds both key words cached
        with pytest.raises(ValueError, match="not rearrangements"):
            orbit_bruhat_leq(a1, a2)
        with pytest.raises(ValueError, match="not rearrangements"):
            orbit_bruhat_leq(a2, a1)
    with pytest.raises(ValueError):
        key_columns_leq(a1, a2)


def test_orbit_bruhat_builds_each_key_word_once_in_a_functools_cache():
    cache = permutations._key_word
    # the bench clears every functools cache bound in a package module
    assert type(cache).__module__ == "functools" and callable(cache.cache_clear)
    assert vars(permutations)["_key_word"] is cache
    cache.cache_clear()
    assert orbit_bruhat_leq((2, 0, 1), (1, 0, 2))
    assert cache.cache_info().currsize == 2
    assert not orbit_bruhat_leq([1, 0, 2], [2, 0, 1])
    info = cache.cache_info()
    assert (info.currsize, info.hits) == (2, 2)
    cache.cache_clear()
    assert cache.cache_info().currsize == 0


def test_orbit_bruhat_via_evacuated_keys():
    # the reversal of the composition plays the role of the evacuated key
    from skyline.tableaux import entrywise_leq, evacuation, key_tableau

    for lam in [(2, 1, 0), (3, 1, 0), (2, 2, 1, 0)]:
        for a1 in orbit(lam):
            for a2 in orbit(lam):
                direct = orbit_bruhat_leq(a1, a2)
                via_evac = entrywise_leq(
                    evacuation(key_tableau(a2)), evacuation(key_tableau(a1))
                )
                assert direct == via_evac


def test_orbit_bruhat_matches_key_tableau_oracle():
    # the former route: build both key tableaux and compare them cellwise
    from skyline.tableaux import entrywise_leq, key_tableau

    for alpha in small_compositions(4, 2):
        members = sorted(orbit(alpha))
        for a1 in members:
            for a2 in members:
                expected = entrywise_leq(key_tableau(a1), key_tableau(a2))
                assert orbit_bruhat_leq(a1, a2) == expected


def test_min_coset_rep_examples():
    assert min_coset_rep((1, 3, 0, 0, 1)) == (2, 1, 5, 3, 4)
    assert act((2, 1, 5, 3, 4), (3, 1, 1, 0, 0)) == (1, 3, 0, 0, 1)
    assert min_coset_rep((3, 1, 1, 0, 0)) == identity(5)
    assert min_coset_rep((0, 1)) == (2, 1)


def test_min_coset_rep_is_shortest():
    # exhaustive over compositions with length <= 4 and entries <= 3
    for gamma in small_compositions(4, 3, min_len=1):
        n = len(gamma)
        w = min_coset_rep(gamma)
        assert act(w, decreasing_rearrangement(gamma)) == gamma
        shorter = [
            u
            for u in all_perms(n)
            if act(u, decreasing_rearrangement(gamma)) == gamma
            and length(u) <= length(w)
        ]
        assert shorter == [w]


def test_bubble_sort_examples():
    assert bubble_sort_op(1, (2, 1)) == (1, 2)
    assert bubble_sort_op(1, (1, 2)) == (1, 2)
    with pytest.raises(ValueError):
        bubble_sort_op(2, (2, 1))


def test_bubble_relations_exhaustive():
    for gamma in small_compositions(4, 3, min_len=2):
        for i in range(1, len(gamma)):
            once = bubble_sort_op(i, gamma)
            assert bubble_sort_op(i, once) == once
            for j in range(1, len(gamma)):
                if abs(i - j) > 1:
                    assert bubble_sort_op(i, bubble_sort_op(j, gamma)) == bubble_sort_op(
                        j, bubble_sort_op(i, gamma)
                    )
        for i in range(1, len(gamma) - 1):
            braid1 = apply_word((i, i + 1, i), gamma)
            braid2 = apply_word((i + 1, i, i + 1), gamma)
            assert braid1 == braid2


def test_apply_word_basics():
    assert apply_word((), (2, 1)) == (2, 1)
    assert apply_word((1,), (2, 1)) == (1, 2)
    # rightmost acts first
    assert apply_word((2, 1), (2, 1, 0)) == apply_word((2,), apply_word((1,), (2, 1, 0)))


@given(st.lists(st.integers(0, 3), min_size=2, max_size=5).map(tuple))
def test_bubble_sorts_reach_increasing(gamma):
    word = []
    for _ in range(len(gamma) ** 2):
        word.extend(range(1, len(gamma)))
    sorted_all = apply_word(tuple(word), gamma)
    assert sorted_all == tuple(sorted(gamma))
