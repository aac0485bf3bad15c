"""Reference computations and output checks, independent of ``skyline``.

Nothing here imports the program under test.  Each reference is computed
by the benchmark's own code, outside the timed region, and each check
compares one captured stdout against it.  A check returns ``None`` when
the output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import json
import re
from math import comb


# ---------------------------------------------------------------- kernel

def staircase_rows(n: int, m: int, k: int) -> tuple[int, ...]:
    """Row lengths (m^(n-m+1), m-1, ..., n-k+1) of the truncated staircase."""
    if not (1 <= m <= n and 1 <= k <= n and n + 1 <= m + k):
        raise ValueError(f"invalid truncated staircase n={n}, m={m}, k={k}")
    return tuple([m] * (n - m + 1) + list(range(m - 1, n - k, -1)))


def _compositions(total: int, length: int):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, length - 1):
            yield (first,) + rest


def kernel_term_count(n: int, m: int, k: int, d: int) -> int:
    """Number of terms of prod over cells (i, j) of sum_{t} (x_i y_j)^t, to degree d.

    Every coefficient of the product is positive (it counts the
    non-negative integer matrices on the shape with row sums a and column
    sums b), so the terms are exactly the feasible margin pairs (a, b)
    with |a| = |b| <= d.  Row i covers columns 1..lambda_i, and the
    columns of any set C are covered by the rows reaching min(C), so by
    Hall's condition (a, b) is feasible iff for every column j
        b_j + ... + b_m <= sum of a_i over rows with lambda_i >= j.
    """
    rows = staircase_rows(n, m, k)
    count = 0
    for s in range(d + 1):
        tails = []
        for b in _compositions(s, m):
            acc, tail = 0, [0] * m
            for j in range(m - 1, -1, -1):
                acc += b[j]
                tail[j] = acc
            tails.append(tail)
        for a in _compositions(s, k):
            cover = [sum(a_i for a_i, ln in zip(a, rows) if ln > j) for j in range(m)]
            count += sum(
                1 for tail in tails if all(t <= c for t, c in zip(tail, cover))
            )
    return count


_KERNEL_LINE = re.compile(
    r"kernel n=(\d+) m=(\d+) k=(\d+) deg=(\d+): equal \((\d+) terms\)"
)


def check_kernel(params: tuple[int, int, int, int], expected_terms: int, rc, text: str):
    if rc != 0:
        return f"exit {rc}"
    match = _KERNEL_LINE.fullmatch(text.strip())
    if match is None:
        return f"unexpected output {text.strip()[:120]!r}"
    got = tuple(int(g) for g in match.groups())
    if got[:4] != tuple(params):
        return f"reported parameters {got[:4]} for {tuple(params)}"
    if got[4] != expected_terms:
        return f"{got[4]} terms, reference {expected_terms}"
    return None


# ------------------------------------------------------------- criterion

def biword_count(n: int, max_len: int) -> int:
    """Lexicographic biwords over [n]x[n] of length <= max_len (multisets of cells)."""
    return sum(comb(n * n + r - 1, r) for r in range(max_len + 1))


def check_criterion(params: tuple[int, int], expected_count: int, rc, text: str):
    if rc != 0:
        return f"exit {rc}"
    n, max_len = params
    want = [
        f"checked {expected_count} biwords over [{n}]x[{n}], length <= {max_len}",
        "all biwords satisfy the equivalence",
    ]
    got = text.splitlines()
    if got != want:
        return f"output {got[:3]!r}, reference {want!r}"
    return None


# --------------------------------------------------------------- inverse

def check_inverse(expected_pairs: list, rc, text: str):
    if rc != 0:
        return f"exit {rc}"
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"not JSON: {exc}"
    if got != expected_pairs:
        return f"biword {got}, made from {expected_pairs}"
    return None


# --------------------------------------------------------------- crystal

def hook_content_count(lam, n: int) -> int:
    """Number of SSYT of shape lam with entries <= n: prod (n + c(u)) / h(u)."""
    lam = [p for p in lam if p > 0]
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    num = den = 1
    for r, length in enumerate(lam):
        for c in range(length):
            num *= n + c - r
            den *= (length - c - 1) + (conj[c] - r - 1) + 1
    return num // den


def key_tableau_rows(alpha) -> list[list[int]]:
    """Rows, bottom first, of the key tableau: column j holds {i : alpha_i >= j}."""
    cols = [
        [i + 1 for i, a in enumerate(alpha) if a >= j]
        for j in range(1, max(alpha, default=0) + 1)
    ]
    height = len(cols[0]) if cols else 0
    return [[col[r] for col in cols if len(col) > r] for r in range(height)]


def pi_ref(i: int, poly: dict) -> dict:
    """Isobaric divided difference pi_i on {exponent tuple: coeff}, i 1-based.

    pi_i x^a = (x_i x^a - x_{i+1} s_i x^a) / (x_i - x_{i+1}), written out
    as the geometric sum it telescopes to.
    """
    out: dict = {}
    for exp, coeff in poly.items():
        p, q = exp[i - 1], exp[i]
        if p >= q:
            shifts = [(p - t, q + t, coeff) for t in range(p - q + 1)]
        else:
            shifts = [(p + 1 + t, q - 1 - t, -coeff) for t in range(q - p - 1)]
        for a, b, c in shifts:
            key = exp[: i - 1] + (a, b) + exp[i + 1 :]
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def key_polynomial_ref(alpha) -> dict:
    """Demazure character by the operator route: kappa_alpha = pi_i kappa_{s_i alpha}."""
    alpha = tuple(alpha)
    for i in range(len(alpha) - 1):
        if alpha[i] < alpha[i + 1]:
            swapped = alpha[:i] + (alpha[i + 1], alpha[i]) + alpha[i + 2 :]
            return pi_ref(i + 1, key_polynomial_ref(swapped))
    return {alpha: 1}


def _is_ssyt(rows, shape, n: int) -> bool:
    if [len(r) for r in rows] != list(shape):
        return False
    for r, row in enumerate(rows):
        for c, e in enumerate(row):
            if not (isinstance(e, int) and 1 <= e <= n):
                return False
            if c and row[c - 1] > e:
                return False
            if r and rows[r - 1][c] >= e:
                return False
    return True


def _content(rows, n: int) -> tuple[int, ...]:
    counts = [0] * n
    for row in rows:
        for e in row:
            counts[e - 1] += 1
    return tuple(counts)


def _check_graph(data, shape, n: int):
    """Shared graph checks; returns (reason or None, vertex contents)."""
    if data.get("n") != n or data.get("shape") != list(shape):
        return f"graph header n={data.get('n')} shape={data.get('shape')}", None
    rows = [v.get("rows") for v in data["vertices"]]
    if not all(_is_ssyt(r, shape, n) for r in rows):
        return "a vertex is not an SSYT of the shape", None
    if len({json.dumps(r) for r in rows}) != len(rows):
        return "repeated vertex", None
    contents = [_content(r, n) for r in rows]
    seen = set()
    for edge in data["edges"]:
        s, i, d = edge
        if not (0 <= s < len(rows) and 0 <= d < len(rows) and 1 <= i < n):
            return f"edge {edge} out of range", None
        if (s, i) in seen:
            return f"two {i}-edges leave vertex {s}", None
        seen.add((s, i))
        want = list(contents[s])
        want[i - 1] -= 1
        want[i] += 1
        if list(contents[d]) != want:
            return f"edge {edge} changes content {contents[s]} to {contents[d]}", None
    return None, contents


def _parse_graph(rc, text: str):
    if rc != 0:
        return f"exit {rc}", None
    try:
        return None, json.loads(text)
    except json.JSONDecodeError as exc:
        return f"not JSON: {exc}", None


def check_crystal_shape(params, expected_vertices: int, rc, text: str):
    lam, n = params
    err, data = _parse_graph(rc, text)
    if err:
        return err
    if len(data["vertices"]) != expected_vertices:
        return f"{len(data['vertices'])} vertices, hook-content gives {expected_vertices}"
    err, _ = _check_graph(data, [p for p in lam if p > 0], n)
    return err


def check_crystal_alpha(alpha, expected_poly: dict, rc, text: str):
    err, data = _parse_graph(rc, text)
    if err:
        return err
    n = len(alpha)
    shape = sorted((a for a in alpha if a > 0), reverse=True)
    err, contents = _check_graph(data, shape, n)
    if err:
        return err
    key = key_tableau_rows(alpha)
    if not any(v["rows"] == key for v in data["vertices"]):
        return f"key tableau {key} of {tuple(alpha)} is not a vertex"
    weights: dict = {}
    for c in contents:
        weights[c] = weights.get(c, 0) + 1
    if weights != expected_poly:
        return "vertex weights do not sum to the key polynomial"
    return None
