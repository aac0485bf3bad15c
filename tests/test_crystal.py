import json
from itertools import zip_longest

import pytest

from skyline.crystal import (
    atom_set,
    bounded_entry_restriction,
    crystal_graph,
    demazure_crystal,
    demazure_graph,
    e_op,
    export_graph,
    f_op,
    string_decomposition,
)
from skyline.demazure import atom, key_polynomial
from skyline.fillings import right_key
from skyline.permutations import orbit_bruhat_leq
from skyline.polynomials import SparsePoly
from skyline.shapes import decreasing_rearrangement, reverse
from skyline.tableaux import SSYT, enumerate_ssyt, key_tableau, ssyt_to_json
from oracles import (
    all_reduced_words,
    apply_op_word,
    reference_e,
    reference_f,
    atom_set_by_subtraction,
    demazure_graph_by_filtering,
    demazure_vertices_along,
    induced_graph_via_f_op,
    min_coset_rep,
    orbit,
    reduced_word,
    unique_key_tableau,
    weight_sum,
)
from util import BENCH_ALPHAS, BENCH_SHAPES, partitions_up_to, small_compositions

# the highest-weight tableau of B(3, 1) over [3]: row i holds the letter i
YAM_31 = SSYT(((1, 1, 1), (2,)), 3)


def test_f_op_on_yamanouchi():
    out = f_op(1, YAM_31)
    assert out is not None and out.content() == (2, 2, 0)
    assert e_op(1, out) == YAM_31
    assert f_op(2, SSYT(((1, 1, 1),), 3)) is None  # no letter 2 to raise
    assert e_op(1, YAM_31) is None and e_op(2, YAM_31) is None


def test_f_e_roundtrip_shape21():
    tabs = list(enumerate_ssyt((2, 1), 3))
    for tab in tabs:
        for i in (1, 2):
            out = f_op(i, tab)
            if out is not None:
                assert e_op(i, out) == tab
                shift = [0, 0, 0]
                shift[i - 1] = -1
                shift[i] = 1
                assert out.content() == tuple(
                    c + s for c, s in zip(tab.content(), shift)
                )
            back = e_op(i, tab)
            if back is not None:
                assert f_op(i, back) == tab


def test_operators_match_the_one_colour_reference():
    cases = [(lam, n) for n in (1, 2, 3, 4) for lam in partitions_up_to(5, n)]
    checked = 0
    for lam, n in cases + BENCH_SHAPES:
        for tab in enumerate_ssyt(lam, n):
            for i in range(1, n):
                assert f_op(i, tab) == reference_f(i, tab)
                assert e_op(i, tab) == reference_e(i, tab)
                checked += 1
    assert checked == 35_403


def test_crystal_graph_sizes_and_degrees():
    g = crystal_graph((3, 1), 3)
    assert len(g.vertices) == 15
    g1 = crystal_graph((1,), 2)
    assert len(g1.vertices) == 2 and len(g1.edges) == 1
    checked = 0
    for n in (1, 2, 3, 4):
        for lam in partitions_up_to(5, n):
            graph = crystal_graph(lam, n)
            members = set(graph.vertices)
            for tab in graph.vertices:
                for colour in range(1, n):
                    out = f_op(colour, tab)
                    assert out is None or out in members
            for colour in range(1, n):
                outs = [e[0] for e in graph.edges if e[1] == colour]
                ins = [e[2] for e in graph.edges if e[1] == colour]
                assert len(outs) == len(set(outs))
                assert len(ins) == len(set(ins))
            checked += 1
    assert checked == 52


def test_crystal_graph_connected_from_highest_weight():
    g = crystal_graph((3, 1), 3)
    reached = {g.vertices.index(YAM_31)}
    frontier = list(reached)
    adj = {}
    for src, _, dst in g.edges:
        adj.setdefault(src, []).append(dst)
    while frontier:
        pos = frontier.pop()
        for nxt in adj.get(pos, []):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    assert {g.vertices[pos] for pos in reached} == set(g.vertices)


def test_demazure_crystal_examples():
    lam = (3, 1, 0)
    assert demazure_crystal(lam, 3).vertices == frozenset({YAM_31})
    b = demazure_crystal((1, 0, 3), 3)
    assert len(b.vertices) == 9
    assert weight_sum(b.vertices, b.n) == key_polynomial((1, 0, 3))
    full = demazure_crystal(reverse(lam), 3)
    assert full.vertices == frozenset(crystal_graph((3, 1), 3).vertices)


def test_demazure_crystal_requires_full_length():
    with pytest.raises(ValueError):
        demazure_crystal((1, 0, 3), 4)


def test_crystal_inputs_must_be_weak_compositions():
    for call in (
        lambda: key_tableau((-1, 2)),
        lambda: list(enumerate_ssyt((2, -1), 2)),
        lambda: crystal_graph((2, -1), 2),
        lambda: demazure_crystal((-1, 2), 2),
        lambda: demazure_crystal((1.5, 0), 2),
        lambda: demazure_graph((0, -1), 2),
        lambda: atom_set((True, 0), 2),
    ):
        with pytest.raises(ValueError, match="not a weak composition"):
            call()
    with pytest.raises(ValueError, match=r"not a partition: \(1, 2\)"):
        crystal_graph((1, 2), 3)


def test_demazure_crystal_monotone_and_union():
    for n in (2, 3, 4):
        for lam in partitions_up_to(5, n, include_empty=False):
            padded = lam + (0,) * (n - len(lam))
            crystals = {alpha: demazure_crystal(alpha, n) for alpha in orbit(padded)}
            for a1, b1 in crystals.items():
                for a2, b2 in crystals.items():
                    if orbit_bruhat_leq(a1, a2):
                        assert b1.vertices <= b2.vertices
            union = set()
            for b in crystals.values():
                union |= b.vertices
            assert union == set(crystal_graph(lam, n).vertices)


def test_demazure_crystal_same_along_any_reduced_word():
    for lam in [(2, 1, 0), (3, 1, 0)]:
        n = 3
        for alpha in orbit(lam):
            words = all_reduced_words(min_coset_rep(alpha), n)
            results = {demazure_vertices_along(word, alpha) for word in words}
            assert len(results) == 1
            assert results.pop() == demazure_crystal(alpha, n).vertices


def test_demazure_crystal_matches_the_coset_word_route():
    checked = 0
    for alpha in small_compositions(5, 3):
        if sum(alpha) > 8:
            continue
        word = reduced_word(min_coset_rep(alpha))
        expected = demazure_vertices_along(word, alpha)
        assert demazure_crystal(alpha, len(alpha)).vertices == expected
        checked += 1
    assert checked == 972


def test_triple_route_weight_sums():
    for lam in partitions_up_to(4, 3, include_empty=False):
        n = 3
        if len(lam) > n:
            continue
        padded = lam + (0,) * (n - len(lam))
        for alpha in orbit(padded):
            assert weight_sum(demazure_crystal(alpha, n).vertices, n) == key_polynomial(alpha)
            assert weight_sum(atom_set(alpha, n), n) == atom(alpha)


def test_atom_set_examples():
    lam = (3, 1, 0)
    assert atom_set(lam, 3) == frozenset({YAM_31})
    a = atom_set((1, 0, 3), 3)
    assert len(a) == 5
    assert unique_key_tableau(a) == key_tableau((1, 0, 3))


def test_atom_set_right_keys():
    for n in (2, 3, 4):
        for lam in partitions_up_to(5, n, include_empty=False):
            padded = lam + (0,) * (n - len(lam))
            for alpha in orbit(padded):
                members = atom_set(alpha, n)
                key = key_tableau(alpha)
                for tab in members:
                    assert right_key(tab) == key
                assert unique_key_tableau(members) == key


def test_atom_set_filter_matches_subtraction_oracle():
    checked = 0
    for n in (1, 2, 3, 4):
        for lam in partitions_up_to(5, n):
            padded = lam + (0,) * (n - len(lam))
            for alpha in orbit(padded):
                assert atom_set(alpha, n) == atom_set_by_subtraction(alpha, n)
                checked += 1
    assert checked == 209


def test_demazure_graph_matches_the_filtering_oracle():
    checked = 0
    for n in (1, 2, 3, 4):
        for lam in partitions_up_to(5, n):
            padded = lam + (0,) * (n - len(lam))
            for alpha in orbit(padded):
                assert demazure_graph(alpha, n) == demazure_graph_by_filtering(alpha, n)
                checked += 1
    assert checked == 209


def test_graphs_list_vertices_by_column_word_and_edges_by_source_then_colour():
    graphs = []
    for n in (1, 2, 3, 4):
        for lam in partitions_up_to(5, n):
            graphs.append(crystal_graph(lam, n))
            padded = lam + (0,) * (n - len(lam))
            graphs.extend(demazure_graph(alpha, n) for alpha in orbit(padded))
    assert len(graphs) == 261
    for graph in graphs:
        words = [tab.column_word() for tab in graph.vertices]
        assert words == sorted(words) and len(set(words)) == len(words)
        order = [(src, colour) for src, colour, _ in graph.edges]
        assert order == sorted(order) and len(set(order)) == len(order)


def test_induced_graphs_match_the_f_op_oracle():
    # the 261 graphs of the ordering test above, then the bench cases
    cases = []
    for n in (1, 2, 3, 4):
        for lam in partitions_up_to(5, n):
            expected = induced_graph_via_f_op(lam, n, enumerate_ssyt(lam, n))
            cases.append((crystal_graph(lam, n), expected))
            padded = lam + (0,) * (n - len(lam))
            for alpha in orbit(padded):
                vertices = demazure_crystal(alpha, n).vertices
                expected = induced_graph_via_f_op(lam, n, vertices)
                cases.append((demazure_graph(alpha, n), expected))
    assert len(cases) == 261
    # (2, 1) over [12]: most colours occur in no word of a vertex
    for lam, n in BENCH_SHAPES + [((2, 1), 12), ((3, 2), 7)]:
        expected = induced_graph_via_f_op(lam, n, enumerate_ssyt(lam, n))
        cases.append((crystal_graph(lam, n), expected))
    for alpha in BENCH_ALPHAS:
        n = len(alpha)
        vertices = demazure_crystal(alpha, n).vertices
        expected = induced_graph_via_f_op(decreasing_rearrangement(alpha), n, vertices)
        cases.append((demazure_graph(alpha, n), expected))
    for graph, expected in cases:
        assert graph == expected


def test_crystal_graph_over_a_large_alphabet():
    # one letter per vertex over [2000]: the chain 1 -1-> 2 -2-> ... -> 2000
    g = crystal_graph((1,), 2000)
    rows = [t.rows for t in g.vertices]
    assert rows == [((i,),) for i in range(1, 2001)]
    assert [(rows[s], c, rows[d]) for s, c, d in g.edges] == [
        (((i,),), i, ((i + 1,),)) for i in range(1, 2000)
    ]


def test_demazure_graph_over_a_large_alphabet():
    # the crystal of (0, ..., 0, 1) over [300] is all of B(1): the chain of letters
    g = demazure_graph((0,) * 299 + (1,), 300)
    rows = [t.rows for t in g.vertices]
    assert rows == [((i,),) for i in range(1, 301)]
    assert [(rows[s], c, rows[d]) for s, c, d in g.edges] == [
        (((i,),), i, ((i + 1,),)) for i in range(1, 300)
    ]


def test_string_decomposition():
    g1 = crystal_graph((1,), 2)
    strings = string_decomposition(g1, 1)
    assert len(strings) == 1 and len(strings[0]) == 2
    g = crystal_graph((3, 1), 3)
    for colour in (1, 2):
        strings = string_decomposition(g, colour)
        assert sum(len(s) for s in strings) == len(g.vertices)
        for s in strings:
            assert e_op(colour, s[0]) is None
            assert f_op(colour, s[-1]) is None
            # the operator sends the head monomial to the string weight sum
            head = SparsePoly.monomial(1, s[0].content())
            assert apply_op_word((colour,), head) == weight_sum(s, 3)
    assert all(s[0] == YAM_31 for s in string_decomposition(g, 1) if YAM_31 in s)


def test_string_decomposition_rejects_colours_outside_the_alphabet():
    g = crystal_graph((2, 1), 3)
    for colour in (0, -1, 3, 9):
        with pytest.raises(ValueError, match="out of range"):
            string_decomposition(g, colour)
    with pytest.raises(ValueError):
        string_decomposition(crystal_graph((1,), 1), 1)


def test_string_trichotomy():
    # for s_i(alpha) < alpha each i-string meets the smaller crystal in
    # nothing, everything, or exactly its head (then the string fills in)
    for lam in [(2, 1, 0), (3, 1, 0), (2, 2, 1)]:
        n = 3
        padded = lam + (0,) * (n - len(lam))
        g = crystal_graph(padded, n)
        for alpha in orbit(padded):
            for i in (1, 2):
                if alpha[i - 1] >= alpha[i]:
                    continue
                swapped = list(alpha)
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                smaller = demazure_crystal(tuple(swapped), n).vertices
                bigger = demazure_crystal(alpha, n).vertices
                for s in string_decomposition(g, i):
                    meet = smaller & set(s)
                    assert meet in (set(), set(s), {s[0]})
                    if meet == {s[0]} and len(s) > 1:
                        assert set(s) <= bigger


def test_bounded_entry_restriction_worked_example():
    big = demazure_crystal((0, 0, 2, 1, 1), 5)
    restricted = bounded_entry_restriction(big, 4)
    assert restricted == demazure_crystal((0, 1, 2, 1, 0), 5).vertices
    expected = apply_op_word((2, 1, 2, 3), SparsePoly.monomial(1, (2, 1, 1, 0, 0)))
    assert weight_sum(restricted, 5) == expected
    # the defining word with the large indices omitted gives the same sum
    full_word = (2, 1, 3, 2, 4, 3)
    omitted = tuple(i for i in full_word if i < 4)
    assert weight_sum(restricted, 5) == apply_op_word(
        omitted, SparsePoly.monomial(1, (2, 1, 1, 0, 0))
    )
    assert bounded_entry_restriction(big, 5) == big.vertices


def test_bounded_entry_restriction_rejects_bounds_outside_the_alphabet():
    crystal = demazure_crystal((0, 1, 2), 3)
    assert bounded_entry_restriction(crystal, 0) == frozenset()
    assert bounded_entry_restriction(crystal, 3) == crystal.vertices
    for m in (-1, -5, 4):
        with pytest.raises(ValueError, match="outside 0..3"):
            bounded_entry_restriction(crystal, m)


def test_export_graph_formats():
    g_empty = crystal_graph((), 2)
    dot = export_graph(g_empty, "dot")
    assert dot.count('";') == 1  # single vertex, no edges
    g1 = crystal_graph((1,), 2)
    dot1 = export_graph(g1, "dot")
    assert dot1 == export_graph(crystal_graph((1,), 2), "dot")
    assert '"1" -> "2" [label="1", color="black"];' in dot1
    payload = json.loads(export_graph(g1, "json"))
    assert len(payload["vertices"]) == 2 and payload["edges"] == [[0, 1, 1]]
    with pytest.raises(ValueError):
        export_graph(g1, "svg")


def test_export_dot_text():
    # colour 9 wraps round the eight DOT colours back to black
    assert export_graph(crystal_graph((1,), 10), "dot") == """digraph crystal {
  "1";
  "2";
  "3";
  "4";
  "5";
  "6";
  "7";
  "8";
  "9";
  "10";
  "1" -> "2" [label="1", color="black"];
  "2" -> "3" [label="2", color="red"];
  "3" -> "4" [label="3", color="blue"];
  "4" -> "5" [label="4", color="green"];
  "5" -> "6" [label="5", color="orange"];
  "6" -> "7" [label="6", color="purple"];
  "7" -> "8" [label="7", color="brown"];
  "8" -> "9" [label="8", color="cyan"];
  "9" -> "10" [label="9", color="black"];
}
"""
    dot = export_graph(crystal_graph((2, 1), 3), "dot")
    assert [line for line in dot.splitlines() if "->" in line] == [
        '  "2,1,1" -> "2,1,2" [label="1", color="black"];',
        '  "2,1,1" -> "3,1,1" [label="2", color="red"];',
        '  "2,1,2" -> "2,1,3" [label="2", color="red"];',
        '  "2,1,3" -> "3,1,3" [label="2", color="red"];',
        '  "3,1,1" -> "3,1,2" [label="1", color="black"];',
        '  "3,1,2" -> "3,2,2" [label="1", color="black"];',
        '  "3,1,3" -> "3,2,3" [label="1", color="black"];',
        '  "3,2,2" -> "3,2,3" [label="2", color="red"];',
    ]


def test_edges_are_vertex_positions_and_no_tableau_is_hashed(monkeypatch):
    graph = crystal_graph((4, 2, 1), 6)
    size = len(graph.vertices)
    assert len(graph.edges) == 6_700
    for src, colour, dst in graph.edges:
        assert type(src) is type(colour) is type(dst) is int
        assert 0 <= src < size and 0 <= dst < size
        assert f_op(colour, graph.vertices[src]) == graph.vertices[dst]
    outputs = (
        export_graph(graph, "dot"),
        export_graph(graph, "json"),
        [string_decomposition(graph, i) for i in range(1, 6)],
    )

    def unhashable(tab):
        raise AssertionError("a tableau was hashed")

    monkeypatch.setattr(SSYT, "__hash__", unhashable)
    with pytest.raises(AssertionError, match="hashed"):
        hash(graph.vertices[0])
    assert (
        export_graph(graph, "dot"),
        export_graph(graph, "json"),
        [string_decomposition(graph, i) for i in range(1, 6)],
    ) == outputs


def _stdlib_json(graph):
    payload = {
        "shape": list(graph.shape),
        "n": graph.n,
        "vertices": [ssyt_to_json(t) for t in graph.vertices],
        "edges": [list(edge) for edge in graph.edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _first_differing_line(got: str, want: str):
    """None when the texts agree, else (line number, got line, wanted line).

    Asserting on this small tuple keeps a failure fast: pytest would diff
    the two whole documents, which takes minutes on a bench graph.
    """
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for number, (g, w) in enumerate(zip_longest(got_lines, want_lines), 1):
        if g != w:
            return number, g, w


def test_export_json_matches_the_stdlib_encoder_byte_for_byte():
    graphs = [
        crystal_graph((), 2),  # one empty tableau
        crystal_graph((1,), 1),  # no colours, so no edges
        demazure_graph((3, 1, 0), 3),  # dominant: a single vertex
    ]
    assert [len(g.edges) for g in graphs] == [0, 0, 0]
    assert len(graphs[2].vertices) == 1
    graphs += [crystal_graph(lam, n) for lam, n in BENCH_SHAPES]
    graphs += [demazure_graph(alpha, len(alpha)) for alpha in BENCH_ALPHAS]
    for graph in graphs:
        got, want = export_graph(graph, "json"), _stdlib_json(graph)
        assert _first_differing_line(got, want) is None


def test_indented_json_writer_matches_json_dumps():
    graphs = [
        crystal_graph((2, 1), 11),  # two-digit entries
        crystal_graph((1, 1, 1), 4),  # a single column
        crystal_graph((3,), 2),  # a single row
        crystal_graph((0,), 0),  # the empty shape over an empty alphabet
        demazure_graph((2, 2, 0), 3),  # dominant: a single vertex
    ]
    assert max(t.max_entry() for t in graphs[0].vertices) == 11
    assert graphs[3].shape == () and graphs[3].n == 0
    assert [len(g.vertices) for g in graphs[3:]] == [1, 1]
    for graph in graphs:
        got, want = export_graph(graph, "json"), _stdlib_json(graph)
        assert _first_differing_line(got, want) is None
