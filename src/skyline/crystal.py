"""Crystal operators on tableaux, crystal graphs, and Demazure crystals.

Everything here works on column words, which determine a tableau of a
given shape.  Letter i closes and i+1 opens colour i; after bracketing, f_i
raises the rightmost unmatched i and e_i lowers the leftmost unmatched i+1.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from .demazure import sorting_step
from .fillings import psi
from .shapes import Composition, composition
from .tableaux import SSYT, column_words, key_tableau, word_to_rows


def _brackets(word) -> tuple[list[int], dict[int, int]]:
    """One left-to-right pass that brackets every colour of ``word`` at once:
    letter a closes colour a and opens colour a - 1.  Returns the positions
    of the unmatched closers, each of its letter's colour, and per colour
    that occurs the number of its unmatched openers."""
    opened: dict[int, int] = defaultdict(int)
    closers = []
    for pos, a in enumerate(word):
        if opened[a]:
            opened[a] -= 1
        else:
            closers.append(pos)
        opened[a - 1] += 1
    return closers, opened


def _operate(i: int, tab: SSYT, raising: bool) -> SSYT | None:
    """f_i, or e_i as f_(n-i) on the word reversed with each letter a made
    n + 1 - a, which turns the brackets of colour i into those of n - i."""
    n = tab.n
    if not 1 <= i < n:
        raise ValueError(f"crystal operator index {i} out of range for n={n}")
    flip = (lambda w: w) if raising else (lambda w: tuple([n + 1 - a for a in w[::-1]]))
    word, colour = flip(tab.column_word()), (i if raising else n - i)
    found = [pos for pos in _brackets(word)[0] if word[pos] == colour]
    if not found:
        return None
    word = word[: found[-1]] + (colour + 1,) + word[found[-1] + 1 :]
    return SSYT._trusted(word_to_rows(tab.shape)(flip(word)), n)


def f_op(i: int, tab: SSYT) -> SSYT | None:
    """Raise the rightmost unmatched i to i+1, or None at a string end."""
    return _operate(i, tab, True)


def e_op(i: int, tab: SSYT) -> SSYT | None:
    """Lower the leftmost unmatched i+1 to i, or None at a string head."""
    return _operate(i, tab, False)


@dataclass(frozen=True)
class CrystalGraph:
    """Coloured digraph on tableaux of one shape: B(lambda) or an induced
    subgraph.  An edge ``(s, i, t)`` names its ends by position in ``vertices``,
    ``vertices[t]`` being f_i of ``vertices[s]``: the form the JSON export writes."""

    shape: Composition
    n: int
    vertices: tuple[SSYT, ...]
    edges: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class DemazureCrystal:
    """A string-saturated subset of a crystal graph."""

    alpha: Composition
    n: int
    vertices: frozenset[SSYT]


def _induced_graph(lam, n: int, words) -> CrystalGraph:
    """The subgraph of B(lam), ``lam`` without zero parts, induced on the
    tableaux with these column words: vertices by word, edges by source
    position and then colour.  Each target is looked up by its changed
    word, so no tableau is built per edge.
    """
    position = {word: pos for pos, word in enumerate(sorted(words))}
    edges = []
    for word, src in position.items():
        last = {word[pos]: pos for pos in _brackets(word)[0]}  # per colour
        for i, pos in sorted(last.items()):
            dst = position.get(word[:pos] + (i + 1,) + word[pos + 1 :])
            if dst is not None:  # never for colour n: no vertex holds n + 1
                edges.append((src, i, dst))
    rows = word_to_rows(lam)
    vertices = tuple([SSYT._trusted(rows(word), n) for word in position])
    return CrystalGraph(lam, n, vertices, tuple(edges))


def crystal_graph(lam, n: int) -> CrystalGraph:
    """The crystal graph B(lam) on all tableaux of shape ``lam`` over [n].

    >>> len(crystal_graph((2, 1), 3).vertices)
    8
    """
    lam, words = column_words(lam, n)
    return _induced_graph(lam, n, words)


def _demazure_words(alpha, n: int):
    """``alpha``, and the shape and column words of its Demazure crystal."""
    alpha = composition(alpha)
    if len(alpha) != n:
        raise ValueError(f"composition length {len(alpha)} != n = {n}")
    indices = []
    dominant = alpha
    while (step := sorting_step(dominant)) is not None:
        i, dominant = step
        indices.append(i)
    key = key_tableau(dominant)
    words = {key.column_word()}
    for i in reversed(indices):
        for word in list(words):
            closers, opened = _brackets(word)
            if not opened[i]:  # a head: f_i^k raises the k last closers
                word = list(word)
                for pos in reversed([pos for pos in closers if word[pos] == i]):
                    word[pos] = i + 1
                    words.add(tuple(word))
    return alpha, key.shape, words


def demazure_crystal(alpha, n: int) -> DemazureCrystal:
    """The recursion of the key polynomial, with string saturation as pi_i.

    For a weakly decreasing ``alpha`` this is the single highest-weight
    tableau, its key tableau; otherwise it is the crystal of the sorting
    step's swapped composition with the heads of its i-strings saturated:
    in a head f_i^k raises the k rightmost unmatched i, so one bracket pass
    gives a string.  The recursion is unrolled, so a long sorting chain
    does not reach Python's recursion limit.
    """
    alpha, shape, words = _demazure_words(alpha, n)
    rows = word_to_rows(shape)
    return DemazureCrystal(alpha, n, frozenset(SSYT._trusted(rows(w), n) for w in words))


def demazure_graph(alpha, n: int) -> CrystalGraph:
    """The subgraph of B(lambda) induced on the Demazure crystal of ``alpha``."""
    _, shape, words = _demazure_words(alpha, n)
    return _induced_graph(shape, n, words)


def atom_set(alpha, n: int) -> frozenset[SSYT]:
    """Tableaux of the Demazure crystal whose skyline image has shape ``alpha``.

    These are the tableaux with right key ``key(alpha)``, since the right
    key of T is the key tableau of the shape of psi(T) (Mason).
    """
    crystal = demazure_crystal(alpha, n)
    return frozenset(t for t in crystal.vertices if psi(t).shape == crystal.alpha)


def string_decomposition(graph: CrystalGraph, i: int) -> list[list[SSYT]]:
    """Maximal i-strings, each listed from head to end."""
    if not 1 <= i < graph.n:
        raise ValueError(f"crystal operator index {i} out of range for n={graph.n}")
    nxt = {src: dst for src, colour, dst in graph.edges if colour == i}
    has_in = set(nxt.values())
    strings = []
    for head in range(len(graph.vertices)):
        if head in has_in:
            continue
        string = [head]
        while string[-1] in nxt:
            string.append(nxt[string[-1]])
        strings.append([graph.vertices[pos] for pos in string])
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
        labels = [",".join(map(str, tab.column_word())) for tab in graph.vertices]
        lines = ["digraph crystal {"] + [f'  "{label}";' for label in labels]
        for s, c, d in graph.edges:
            name = _DOT_COLOURS[(c - 1) % len(_DOT_COLOURS)]
            lines.append(f'  "{labels[s]}" -> "{labels[d]}" [label="{c}", color="{name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        # every vertex has the graph's shape and alphabet: only entries vary
        shape = list(graph.shape)
        rows = [["%d"] * length for length in shape]
        vertex = _json_template({"n": graph.n, "rows": rows, "shape": shape}, 2)
        edge = _json_template(["%d"] * 3, 2)
        vertices = [vertex % sum(t.rows, ()) for t in graph.vertices]
        edges = [edge % triple for triple in graph.edges]
        return (
            f'{{\n  "edges": {_json_items(edges)},\n  "n": {graph.n},\n'
            f'  "shape": {_json_template(shape, 1)},\n'
            f'  "vertices": {_json_items(vertices)}\n}}\n'
        )
    raise ValueError(f"unsupported format: {format!r}")
