import pytest

from skyline.fillings import (
    SSAF,
    empty_ssaf,
    insert,
    insert_with_chain,
    key_ssaf,
    psi,
    psi_inverse,
    right_key,
    ssaf_from_json,
    ssaf_to_json,
    validate,
)
from skyline.shapes import decreasing_rearrangement, num_parts
from skyline.tableaux import enumerate_ssyt, key_tableau
from oracles import (
    enumerate_ssaf,
    insert_by_reading_order,
    orbit,
    reading_word,
    validate_via_orientation,
)
from util import partitions_up_to, raw_fillings, small_compositions

KNOWN_FILLING = SSAF(((1,), (), (3, 3, 1), (4, 2), (), (6,)))  # shape (1,0,3,2,0,1)
BUMP_START = SSAF(((), (), (3, 2, 1), (4, 1), (), (6,)))  # insertion example


def test_validate_known_filling():
    assert validate(KNOWN_FILLING)
    assert reading_word(KNOWN_FILLING) == (1, 3, 2, 1, 3, 4, 6)
    assert KNOWN_FILLING.content() == (2, 1, 2, 1, 0, 1)


def test_validate_key_ssaf_figure():
    filling = key_ssaf((1, 1, 3, 2, 0, 1))
    assert validate(filling)
    assert filling.columns == ((1,), (2,), (3, 3, 3), (4, 4), (), (6,))


def test_validate_rejects_increasing_column():
    assert not validate(SSAF(((1, 2), (2,))))
    # first-row entry must equal its basement
    assert not validate(SSAF(((), (1,))))


def test_validate_rejects_triple_violations():
    # basics hold but a type-2 triple fails: 1 atop the taller column 2
    assert not validate(SSAF(((1,), (2, 1))))
    assert validate(SSAF(((1,), (2, 2))))
    assert validate(SSAF(((1,), (2, 2, 2), (3, 3))))


# every raw filling with n = 1 or 2 up to 6 cells, n = 3 up to 5, n = 4 up to 4
RAW_SWEEP = ((1, 6), (2, 6), (3, 5), (4, 4))


def _swept_fillings():
    for n, max_cells in RAW_SWEEP:
        yield from map(SSAF, raw_fillings(n, max_cells))


def test_validators_agree_on_raw_fillings():
    fillings = list(_swept_fillings())
    valid = [filling for filling in fillings if validate_via_orientation(filling)]
    assert (len(fillings), len(valid)) == (17845, 378)
    for filling in fillings:
        assert validate(filling) == validate_via_orientation(filling)


def test_psi_inverse_accepts_exactly_the_valid_raw_fillings():
    # psi is a bijection onto valid SSAFs, so psi_inverse needs no replay
    for filling in _swept_fillings():
        if validate_via_orientation(filling):
            assert psi(psi_inverse(filling)) == filling
        else:
            with pytest.raises(ValueError):
                psi_inverse(filling)


def test_key_ssaf_exhaustive_valid():
    for gamma in small_compositions(4, 3, min_len=1):
        filling = key_ssaf(gamma)
        assert validate(filling)
        assert filling.shape == gamma
        assert filling.content() == gamma
    assert key_ssaf(()) == empty_ssaf(0)


def test_insert_bump_chain():
    new, h, col, chain = insert_with_chain(3, BUMP_START)
    assert new.shape == (0, 0, 3, 2, 0, 2)
    assert chain == (3, 2, 1)
    assert h == 2 and col == 6
    assert new.columns == ((), (), (3, 3, 1), (4, 2), (), (6, 1))
    assert validate(new)


def test_insert_into_empty():
    for n in (1, 3, 5):
        for k in range(1, n + 1):
            new, h, col = insert(k, empty_ssaf(n))
            assert new == key_ssaf(tuple(1 if j == k - 1 else 0 for j in range(n)))
            assert (h, col) == (1, k)


def test_insert_small_trace():
    new, h, col = insert(1, key_ssaf((1, 0)))
    assert new.shape == (2, 0)
    assert h == 2 and col == 1


def test_insert_rejects_out_of_alphabet():
    with pytest.raises(ValueError):
        insert(3, key_ssaf((1, 0)))


def test_insert_rejects_every_invalid_raw_filling():
    # every raw filling with n <= 3 and at most 4 cells, with every letter
    rejected = 0
    for n in range(4):
        for columns in raw_fillings(n, 4):
            filling = SSAF(columns)
            valid = validate_via_orientation(filling)
            for k in range(1, n + 1):
                if valid:
                    assert insert_with_chain(k, filling) == insert_by_reading_order(
                        k, filling
                    )
                else:
                    with pytest.raises(ValueError):
                        insert(k, filling)
                    rejected += 1
    assert rejected == 4648


def test_insert_preserves_validity_and_content():
    for gamma in small_compositions(3, 2, min_len=2):
        if len(gamma) != 3:
            continue
        for filling in enumerate_ssaf(gamma):
            for k in range(1, 4):
                new, h, col = insert(k, filling)
                assert validate(new)
                assert new.size() == filling.size() + 1
                before = list(filling.content())
                before[k - 1] += 1
                assert new.content() == tuple(before)
                # exactly one column grew, by one cell, at the reported spot
                diff = [
                    (j, a, b)
                    for j, (a, b) in enumerate(zip(filling.shape, new.shape))
                    if a != b
                ]
                assert diff == [(col - 1, h - 1, h)]


def test_insert_matches_the_reading_order_oracle():
    insertions = 0
    for gamma in small_compositions(5, 3, min_len=1):
        if sum(gamma) > 7:
            continue
        for filling in enumerate_ssaf(gamma):
            for k in range(1, filling.n + 1):
                assert insert_with_chain(k, filling) == insert_by_reading_order(k, filling)
                insertions += 1
    assert insertions == 13032


def test_psi_known_images():
    tab = psi_inverse(KNOWN_FILLING)
    assert psi(tab) == KNOWN_FILLING
    from skyline.tableaux import SSYT

    T = SSYT(((1, 1, 1, 3), (2, 3, 4), (3, 4), (5,)), 5)
    assert psi(T).shape == (2, 0, 4, 3, 1)
    assert psi(T).content() == T.content()


def test_psi_empty():
    from skyline.tableaux import SSYT

    assert psi(SSYT((), 3)) == empty_ssaf(3)


def test_psi_on_keys_exhaustive():
    for gamma in small_compositions(4, 3, min_len=1):
        assert psi(key_tableau(gamma)) == key_ssaf(gamma)


def test_psi_inverse_on_keys():
    for gamma in small_compositions(3, 3, min_len=1):
        assert psi_inverse(key_ssaf(gamma)) == key_tableau(gamma)


def _psi_inverse_by_search(filling):
    """Slow oracle for psi_inverse: replay psi on every tableau of the content."""
    lam = decreasing_rearrangement(filling.shape)
    lam = lam[: num_parts(lam)]
    for tab in enumerate_ssyt(lam, filling.n):
        if tab.content() == filling.content() and psi(tab) == filling:
            return tab
    raise ValueError("filling is not in the image of psi")


def test_psi_inverse_matches_search_oracle():
    for n in (1, 2, 3, 4):
        for lam in partitions_up_to(6, n, include_empty=False):
            for tab in enumerate_ssyt(lam, n):
                filling = psi(tab)
                assert psi_inverse(filling) == _psi_inverse_by_search(filling)


def test_psi_inverse_rejects_a_filling_outside_the_image():
    for inverse in (psi_inverse, _psi_inverse_by_search):
        with pytest.raises(ValueError):
            inverse(SSAF(((1,), (1,))))


def test_psi_roundtrip_broad():
    for n, max_size in ((2, 6), (3, 6), (4, 6), (5, 7)):
        for lam in partitions_up_to(max_size, n, include_empty=False):
            for tab in enumerate_ssyt(lam, n):
                filling = psi(tab)
                assert filling.content() == tab.content()
                assert decreasing_rearrangement(filling.shape)[: len(lam)] == lam
                assert psi_inverse(filling) == tab


def test_psi_bijective_onto_valid_ssafs():
    # image of psi over all tableaux with at most 6 cells equals the set of
    # all valid SSAFs with at most 6 cells; distinct tableaux give distinct
    # images, so this is the full bijectivity check
    from skyline.shapes import compositions_with_sum
    from skyline.tableaux import SSYT

    for n in (2, 3, 4):
        images = {psi(SSYT((), n))}
        count = 1
        for lam in partitions_up_to(6, n, include_empty=False):
            for tab in enumerate_ssyt(lam, n):
                images.add(psi(tab))
                count += 1
        assert len(images) == count  # injectivity
        everything = set()
        for size in range(0, 7):
            for shape in compositions_with_sum(size, n):
                everything.update(enumerate_ssaf(shape))
        assert images == everything  # surjectivity


def test_type2_triples_satisfy_lemma():
    # in every valid SSAF each type-2 triple has F(a) < F(b) <= F(c)
    for shape in small_compositions(3, 2, min_len=3):
        if len(shape) != 3:
            continue
        for filling in enumerate_ssaf(shape):
            h = filling.shape
            for j1 in range(3):
                for j2 in range(j1 + 1, 3):
                    if h[j2] <= h[j1]:
                        continue
                    for i in range(0, h[j1] + 1):
                        a = filling.columns[j1][i - 1] if i else j1 + 1
                        c = filling.columns[j2][i - 1] if i else j2 + 1
                        b = filling.columns[j2][i]
                        assert a < b <= c


def test_right_key_examples():
    from skyline.tableaux import SSYT

    T = SSYT(((1, 1, 1, 3), (2, 3, 4), (3, 4), (5,)), 5)
    assert right_key(T) == key_tableau((2, 0, 4, 3, 1))
    for gamma in small_compositions(4, 3, min_len=1):
        assert right_key(key_tableau(gamma)) == key_tableau(gamma)


def test_atom_bridge_ssaf_vs_right_key():
    # fillings of one shape match tableaux with that right key
    from skyline.tableaux import SSYT

    for lam in partitions_up_to(5, 4, include_empty=False):
        n = 4
        if len(lam) > n:
            continue
        padded = lam + (0,) * (n - len(lam))
        tabs_by_key = {}
        for tab in enumerate_ssyt(lam, n):
            tabs_by_key.setdefault(right_key(tab).content(), []).append(tab)
        for gamma in orbit(padded):
            fillings = enumerate_ssaf(gamma)
            matching = tabs_by_key.get(gamma, [])
            assert sorted(f.content() for f in fillings) == sorted(
                t.content() for t in matching
            )


def test_json_roundtrip():
    data = ssaf_to_json(KNOWN_FILLING)
    assert ssaf_from_json(data) == KNOWN_FILLING
    # the decoder checks the form only; the operations reject invalid fillings
    assert ssaf_from_json({"n": 2, "columns": [[1, 2], []]}) == SSAF(((1, 2), ()))
    for bad in (
        {"n": 3, "columns": [[1], []]},
        {"columns": [[3], []]},
        {"columns": [[1], [0]]},
        {"n": "2", "columns": [[1], []]},
        {"columns": [[1.0], []]},
    ):
        with pytest.raises(ValueError):
            ssaf_from_json(bad)
