"""Crystal operators on tableaux, crystal graphs, and Demazure crystals.

The operators act through bracket matching on the column word: each letter
i closes, each i+1 opens, and after matching f_i raises the rightmost
unmatched i while e_i lowers the leftmost unmatched i+1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .demazure import sorting_step
from .fillings import psi
from .shapes import Composition, decreasing_rearrangement, num_parts
from .tableaux import SSYT, enumerate_ssyt, key_tableau

def _replace_letter(tab: SSYT, cell: tuple[int, int], letter: int) -> SSYT:
    r, c = cell
    rows = list(tab.rows)
    rows[r] = rows[r][:c] + (letter,) + rows[r][c + 1 :]
    return SSYT(tuple(rows), tab.n)


def _unmatched(word, i: int) -> tuple[list[int], list[int]]:
    """Positions in ``word`` of the unmatched i (closers) and i+1 (openers)."""
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
    return _replace_letter(tab, tab.column_cells()[closers[-1]], i + 1)


def e_op(i: int, tab: SSYT) -> SSYT | None:
    """Lower the leftmost unmatched i+1 to i, or None at a string head."""
    if not 1 <= i < tab.n:
        raise ValueError(f"crystal operator index {i} out of range for n={tab.n}")
    _, openers = _unmatched(tab.column_word(), i)
    if not openers:
        return None
    return _replace_letter(tab, tab.column_cells()[openers[0]], i)


@dataclass(frozen=True)
class CrystalGraph:
    """Coloured digraph on tableaux of one shape: B(lambda) or an induced subgraph."""

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


def _induced_graph(lam, n: int, vertices) -> CrystalGraph:
    """The subgraph of B(lam) induced on ``vertices``, all of shape ``lam``.

    Vertices are listed in column-word order, edges ``(tab, i, f_i(tab))`` by
    source position and then colour, keeping those whose target is a vertex.
    A tableau of a given shape is determined by its column word, so f_i acts
    on the word and its target is looked up by the changed word: no tableau
    is built per edge.  One pass over a word matches all colours: letter a
    opens colour a - 1 and closes colour a.
    """
    vertices = list(vertices)
    cells = vertices[0].column_cells() if vertices else []
    by_word = {tuple([tab.rows[r][c] for r, c in cells]): tab for tab in vertices}
    by_word = {word: by_word[word] for word in sorted(by_word)}
    edges = []
    for word, tab in by_word.items():
        opened = [0] * (n + 1)
        closer = {}  # colour -> position of its rightmost unmatched closer
        for pos, a in enumerate(word):
            if opened[a]:
                opened[a] -= 1
            else:
                closer[a] = pos
            opened[a - 1] += 1
        closer.pop(n, None)  # there is no f_n
        for i, pos in sorted(closer.items()):
            out = by_word.get(word[:pos] + (i + 1,) + word[pos + 1 :])
            if out is not None:
                edges.append((tab, i, out))
    return CrystalGraph(lam[: num_parts(lam)], n, tuple(by_word.values()), tuple(edges))


def crystal_graph(lam, n: int) -> CrystalGraph:
    """The crystal graph B(lam) on all tableaux of shape ``lam`` over [n].

    >>> len(crystal_graph((2, 1), 3).vertices)
    8
    """
    lam = tuple(lam)
    return _induced_graph(lam, n, enumerate_ssyt(lam, n))


def _saturate_heads(current: set[SSYT], i: int) -> set[SSYT]:
    """Extend a vertex set by the full i-string of each of its heads."""
    grown = set(current)
    for tab in current:
        if e_op(i, tab) is None:
            while (tab := f_op(i, tab)) is not None:
                grown.add(tab)
    return grown


def demazure_crystal(alpha, n: int) -> DemazureCrystal:
    """The recursion of the key polynomial, with string saturation as pi_i.

    For a weakly decreasing ``alpha`` this is the single highest-weight
    tableau, its key tableau; otherwise it is the crystal of the sorting
    step's swapped composition with the heads of its i-strings saturated.
    The reversed partition fills the graph.  The recursion is unrolled, so
    a long sorting chain does not reach Python's recursion limit.
    """
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise ValueError(f"composition length {len(alpha)} != n = {n}")
    indices = []
    dominant = alpha
    while (step := sorting_step(dominant)) is not None:
        i, dominant = step
        indices.append(i)
    vertices = {key_tableau(dominant)}
    for i in reversed(indices):
        vertices = _saturate_heads(vertices, i)
    return DemazureCrystal(alpha, n, frozenset(vertices))


def demazure_graph(alpha, n: int) -> CrystalGraph:
    """The subgraph of B(lambda) induced on the Demazure crystal of ``alpha``."""
    vertices = demazure_crystal(alpha, n).vertices
    return _induced_graph(decreasing_rearrangement(alpha), n, vertices)


def atom_set(alpha, n: int) -> frozenset[SSYT]:
    """Tableaux of the Demazure crystal whose skyline image has shape ``alpha``.

    These are the tableaux with right key ``key(alpha)``, since the right
    key of T is the key tableau of the shape of psi(T) (Mason).
    """
    alpha = tuple(alpha)
    return frozenset(
        t for t in demazure_crystal(alpha, n).vertices if psi(t).shape == alpha
    )


def string_decomposition(graph: CrystalGraph, i: int) -> list[list[SSYT]]:
    """Maximal i-strings, each listed from head to end."""
    if not 1 <= i < graph.n:
        raise ValueError(f"crystal operator index {i} out of range for n={graph.n}")
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
    if not 0 <= m <= crystal.n:
        raise ValueError(f"entry bound {m} outside 0..{crystal.n}")
    return frozenset(t for t in crystal.vertices if t.max_entry() <= m)


_DOT_COLOURS = ("black", "red", "blue", "green", "orange", "purple", "brown", "cyan")


def _json_template(value, depth: int) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested ``depth`` levels
    deep, with each ``"%d"`` string unquoted into a format slot."""
    text = json.dumps(value, indent=2, sort_keys=True).replace('"%d"', "%d")
    return text.replace("\n", "\n" + "  " * depth)


def _json_items(items: list[str]) -> str:
    """A top-level list of already indented items."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def export_graph(graph: CrystalGraph, format: str = "dot") -> str:
    """Deterministic DOT or JSON rendering, vertices labelled by word."""
    if format == "dot":
        labels = {tab: ",".join(map(str, tab.column_word())) for tab in graph.vertices}
        lines = ["digraph crystal {"] + [f'  "{labels[t]}";' for t in graph.vertices]
        for src, colour, dst in graph.edges:
            colour_name = _DOT_COLOURS[(colour - 1) % len(_DOT_COLOURS)]
            lines.append(
                f'  "{labels[src]}" -> "{labels[dst]}" '
                f'[label="{colour}", color="{colour_name}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        # every vertex has the graph's shape and alphabet: only entries vary
        index = {tab: pos for pos, tab in enumerate(graph.vertices)}
        shape = list(graph.shape)
        rows = [["%d"] * length for length in shape]
        vertex = _json_template({"n": graph.n, "rows": rows, "shape": shape}, 2)
        edge = _json_template(["%d"] * 3, 2)
        vertices = [vertex % sum(t.rows, ()) for t in graph.vertices]
        edges = [edge % (index[s], c, index[d]) for s, c, d in graph.edges]
        return (
            f'{{\n  "edges": {_json_items(edges)},\n  "n": {graph.n},\n'
            f'  "shape": {_json_template(shape, 1)},\n'
            f'  "vertices": {_json_items(vertices)}\n}}\n'
        )
    raise ValueError(f"unsupported format: {format!r}")
