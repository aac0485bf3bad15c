"""Crystal operators on tableaux, crystal graphs, and Demazure crystals.

The operators act through bracket matching on the column word: each letter
i closes, each i+1 opens, and after matching f_i raises the rightmost
unmatched i while e_i lowers the leftmost unmatched i+1.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .permutations import min_coset_rep, orbit_bruhat_leq, reduced_word
from .polynomials import SparsePoly
from .shapes import Composition, decreasing_rearrangement, num_parts, orbit
from .tableaux import SSYT, enumerate_ssyt, is_key, key_tableau, yamanouchi


def _word_cells(tab: SSYT) -> list[tuple[int, int]]:
    """Cells (row, col) in column-word order."""
    width = len(tab.rows[0]) if tab.rows else 0
    cells = []
    for c in range(width):
        cells.extend((r, c) for r in range(len(tab.rows) - 1, -1, -1) if len(tab.rows[r]) > c)
    return cells


def _replace_letter(tab: SSYT, word_pos: int, letter: int) -> SSYT:
    r, c = _word_cells(tab)[word_pos]
    rows = [list(row) for row in tab.rows]
    rows[r][c] = letter
    return SSYT(tuple(tuple(row) for row in rows), tab.n)


def _unmatched(word, i: int) -> tuple[list[int], list[int]]:
    """Positions of unmatched i (closers) and i+1 (openers), left to right."""
    closers: list[int] = []
    openers: list[int] = []
    for pos, letter in enumerate(word):
        if letter == i + 1:
            openers.append(pos)
        elif letter == i:
            if openers:
                openers.pop()
            else:
                closers.append(pos)
    return closers, openers


def f_op(i: int, tab: SSYT) -> SSYT | None:
    """Raise the rightmost unmatched i to i+1, or None at a string end."""
    if not 1 <= i < tab.n:
        raise ValueError(f"crystal operator index {i} out of range for n={tab.n}")
    closers, _ = _unmatched(tab.column_word(), i)
    if not closers:
        return None
    return _replace_letter(tab, closers[-1], i + 1)


def e_op(i: int, tab: SSYT) -> SSYT | None:
    """Lower the leftmost unmatched i+1 to i, or None at a string head."""
    if not 1 <= i < tab.n:
        raise ValueError(f"crystal operator index {i} out of range for n={tab.n}")
    _, openers = _unmatched(tab.column_word(), i)
    if not openers:
        return None
    return _replace_letter(tab, openers[0], i)


@dataclass(frozen=True)
class CrystalGraph:
    """Coloured digraph on all tableaux of one shape."""

    shape: Composition
    n: int
    vertices: tuple[SSYT, ...]
    edges: tuple[tuple[SSYT, int, SSYT], ...]


@dataclass(frozen=True)
class DemazureCrystal:
    """A string-saturated subset of a crystal graph."""

    alpha: Composition
    n: int
    vertices: frozenset[SSYT]

    def weight_sum(self) -> SparsePoly:
        return weight_sum(self.vertices, self.n)


def crystal_graph(lam, n: int) -> CrystalGraph:
    lam = tuple(lam)
    vertices = tuple(enumerate_ssyt(lam, n))
    index = {tab: pos for pos, tab in enumerate(vertices)}
    edges = []
    for tab in vertices:
        for i in range(1, n):
            out = f_op(i, tab)
            if out is not None:
                if out not in index:
                    raise AssertionError(f"f_{i} leaves the vertices of B({lam})")
                edges.append((tab, i, out))
    edges.sort(key=lambda e: (index[e[0]], e[1]))
    return CrystalGraph(lam[: num_parts(lam)], n, vertices, tuple(edges))


def _saturate_heads(current: set[SSYT], i: int) -> set[SSYT]:
    """Extend a vertex set by the full i-string of each of its heads."""
    grown = set(current)
    for tab in current:
        if e_op(i, tab) is None:
            walker = tab
            while True:
                walker = f_op(i, walker)
                if walker is None:
                    break
                grown.add(walker)
    return grown


def demazure_crystal(alpha, n: int) -> DemazureCrystal:
    """Saturate string heads along a reduced word for the coset minimum.

    Independent of the chosen word; for a partition this is the single
    highest-weight tableau, and the reversed partition fills the graph.
    """
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise ValueError(f"composition length {len(alpha)} != n = {n}")
    lam = decreasing_rearrangement(alpha)
    word = reduced_word(min_coset_rep(alpha))
    current = {yamanouchi(lam, n)}
    for i in reversed(word):
        current = _saturate_heads(current, i)
    return DemazureCrystal(alpha, n, frozenset(current))


def atom_set(alpha, n: int) -> frozenset[SSYT]:
    """Tableaux of the Demazure crystal below no smaller orbit element."""
    alpha = tuple(alpha)
    keep = set(demazure_crystal(alpha, n).vertices)
    for beta in orbit(alpha):
        if beta != alpha and orbit_bruhat_leq(beta, alpha):
            keep -= demazure_crystal(beta, n).vertices
    return frozenset(keep)


def string_decomposition(graph: CrystalGraph, i: int) -> list[list[SSYT]]:
    """Maximal i-strings, each listed from head to end."""
    nxt = {src: dst for src, colour, dst in graph.edges if colour == i}
    has_in = set(nxt.values())
    strings = []
    for tab in graph.vertices:
        if tab in has_in:
            continue
        string = [tab]
        while string[-1] in nxt:
            string.append(nxt[string[-1]])
        strings.append(string)
    return strings


def bounded_entry_restriction(crystal: DemazureCrystal, m: int) -> frozenset[SSYT]:
    """The tableaux of the crystal whose entries stay within 1..m."""
    if m > crystal.n:
        raise ValueError("entry bound exceeds the alphabet")
    return frozenset(t for t in crystal.vertices if t.max_entry() <= m)


def weight_sum(objects, n: int) -> SparsePoly:
    """Sum of x^content over tableaux or fillings with alphabet size n."""
    return SparsePoly(n, Counter(obj.content() for obj in objects))


def unique_key_tableau(tableaux) -> SSYT:
    """The single key tableau in a collection; raises if not exactly one."""
    keys = [t for t in tableaux if is_key(t)]
    if len(keys) != 1:
        raise ValueError(f"expected exactly one key tableau, found {len(keys)}")
    return keys[0]


_DOT_COLOURS = (
    "black", "red", "blue", "green", "orange", "purple", "brown", "cyan",
)


def export_graph(graph: CrystalGraph, format: str = "dot") -> str:
    """Deterministic DOT or JSON rendering, vertices labelled by word."""
    label = lambda tab: ",".join(map(str, tab.column_word()))
    if format == "dot":
        lines = ["digraph crystal {"]
        for tab in graph.vertices:
            lines.append(f'  "{label(tab)}";')
        for src, colour, dst in graph.edges:
            colour_name = _DOT_COLOURS[(colour - 1) % len(_DOT_COLOURS)]
            lines.append(
                f'  "{label(src)}" -> "{label(dst)}" '
                f'[label="{colour}", color="{colour_name}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        from .tableaux import ssyt_to_json

        index = {tab: pos for pos, tab in enumerate(graph.vertices)}
        payload = {
            "shape": list(graph.shape),
            "n": graph.n,
            "vertices": [ssyt_to_json(t) for t in graph.vertices],
            "edges": [[index[s], c, index[d]] for s, c, d in graph.edges],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unsupported format: {format!r}")
