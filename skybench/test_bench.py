"""Tests of the benchmark's own helpers.

Each reference formula is checked against brute force at small sizes, and
each workload's check is shown to reject a corrupted output.
"""
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bench_checks as checks
import bench_trace
import run
from bench_workloads import WORKLOADS, make_ops

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from skyline import cli  # noqa: E402


def cli_output(argv):
    out = io.StringIO()
    assert cli.run(argv, out) == 0
    return out.getvalue()


def kernel_product_brute(n: int, m: int, k: int, d: int) -> dict:
    """The truncated product itself, cell by cell; for small sizes only."""
    rows = checks.staircase_rows(n, m, k)
    poly = {((0,) * k, (0,) * m): 1}
    for i, length in enumerate(rows):
        for j in range(length):
            nxt: dict = {}
            for (xe, ye), coeff in poly.items():
                for t in range(d - sum(xe) + 1):
                    key = (
                        xe[:i] + (xe[i] + t,) + xe[i + 1 :],
                        ye[:j] + (ye[j] + t,) + ye[j + 1 :],
                    )
                    nxt[key] = nxt.get(key, 0) + coeff
            poly = nxt
    return poly


def ssyt_brute(lam, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every SSYT of shape lam over [n], bottom row first; small sizes only."""
    lam = [p for p in lam if p > 0]
    found = []
    rows: list[list[int]] = [[] for _ in lam]

    def fill(r: int, c: int):
        if r == len(lam):
            found.append(tuple(tuple(row) for row in rows))
            return
        if c == lam[r]:
            fill(r + 1, 0)
            return
        lo = max(rows[r][c - 1] if c else 1, rows[r - 1][c] + 1 if r else 1)
        for v in range(lo, n + 1):
            rows[r].append(v)
            fill(r, c + 1)
            rows[r].pop()

    fill(0, 0)
    return found


def small_kernel_cases():
    for n in range(1, 5):
        for m in range(1, n + 1):
            for k in range(1, n + 1):
                if n + 1 <= m + k:
                    for d in range(4):
                        yield n, m, k, d


def test_kernel_term_count_matches_brute_product():
    for n, m, k, d in small_kernel_cases():
        brute = kernel_product_brute(n, m, k, d)
        assert all(c > 0 for c in brute.values())
        assert checks.kernel_term_count(n, m, k, d) == len(brute), (n, m, k, d)


def test_staircase_rows_shapes():
    assert checks.staircase_rows(5, 4, 3) == (4, 4, 3)
    assert checks.staircase_rows(3, 3, 3) == (3, 2, 1)
    with pytest.raises(ValueError):
        checks.staircase_rows(4, 2, 2)


def test_biword_count_matches_enumeration():
    for n in range(1, 4):
        cells = list(itertools.product(range(1, n + 1), repeat=2))
        for max_len in range(5):
            brute = sum(
                1 for r in range(max_len + 1)
                for _ in itertools.combinations_with_replacement(cells, r)
            )
            assert checks.biword_count(n, max_len) == brute


def partitions(size, max_part=None):
    max_part = size if max_part is None else max_part
    if size == 0:
        yield ()
        return
    for first in range(min(size, max_part), 0, -1):
        for rest in partitions(size - first, first):
            yield (first,) + rest


def test_hook_content_matches_enumeration():
    for size in range(1, 6):
        for lam in partitions(size):
            for n in range(len(lam), 5):
                assert checks.hook_content_count(lam, n) == len(ssyt_brute(lam, n))


def pi_by_division(i, poly):
    """pi_i f = (x_i f - x_{i+1} s_i f) / (x_i - x_{i+1}) by long division."""
    num = {}
    for exp, c in poly.items():
        up = list(exp)
        up[i - 1] += 1
        num[tuple(up)] = num.get(tuple(up), 0) + c
        sw = list(exp)
        sw[i - 1], sw[i] = sw[i], sw[i - 1]
        sw[i] += 1
        num[tuple(sw)] = num.get(tuple(sw), 0) - c
    num = {e: c for e, c in num.items() if c}
    quotient = {}
    while num:
        lead = max(num, key=lambda e: (e[i - 1], e))
        c = num[lead]
        q = list(lead)
        q[i - 1] -= 1
        assert q[i - 1] >= 0, "not divisible"
        quotient[tuple(q)] = quotient.get(tuple(q), 0) + c
        sub = list(q)
        sub[i] += 1
        for key, coeff in ((lead, -c), (tuple(sub), c)):
            num[key] = num.get(key, 0) + coeff
            if num[key] == 0:
                del num[key]
    return {e: c for e, c in quotient.items() if c}


def test_pi_matches_divided_difference():
    rng = random.Random(7)
    for _ in range(40):
        poly = {}
        for _ in range(4):
            exp = tuple(rng.randint(0, 4) for _ in range(3))
            poly[exp] = poly.get(exp, 0) + rng.randint(-3, 3)
        poly = {e: c for e, c in poly.items() if c}
        for i in (1, 2):
            assert checks.pi_ref(i, poly) == pi_by_division(i, poly)


def test_key_polynomial_reference():
    assert checks.key_polynomial_ref((1, 0, 3)) == {
        e: 1 for e in [
            (1, 0, 3), (1, 1, 2), (1, 2, 1), (1, 3, 0), (2, 0, 2),
            (2, 1, 1), (2, 2, 0), (3, 0, 1), (3, 1, 0),
        ]
    }
    # anti-dominant index: the Schur polynomial, summed over all tableaux
    for size in range(1, 5):
        for lam in partitions(size):
            for n in range(len(lam), 4):
                padded = lam + (0,) * (n - len(lam))
                schur = {}
                for rows in ssyt_brute(lam, n):
                    c = tuple(sum(row.count(v) for row in rows) for v in range(1, n + 1))
                    schur[c] = schur.get(c, 0) + 1
                assert checks.key_polynomial_ref(tuple(reversed(padded))) == schur


def test_key_tableau_rows():
    assert checks.key_tableau_rows((1, 0, 3)) == [[1, 3, 3], [3]]
    assert checks.key_tableau_rows((0, 0)) == []


def test_kernel_check_rejects_wrong_count():
    text = cli_output(["verify-kernel", "--n", "3", "--m", "3", "--k", "2", "--deg", "3"])
    terms = checks.kernel_term_count(3, 3, 2, 3)
    assert checks.check_kernel((3, 3, 2, 3), terms, 0, text) is None
    assert checks.check_kernel((3, 3, 2, 3), terms + 1, 0, text)
    assert checks.check_kernel((3, 3, 3, 3), terms, 0, text)
    assert checks.check_kernel((3, 3, 2, 3), terms, 1, text)


def test_criterion_check_rejects_wrong_count():
    text = cli_output(["verify-main", "--n", "2", "--max-len", "3"])
    count = checks.biword_count(2, 3)
    assert checks.check_criterion((2, 3), count, 0, text) is None
    assert checks.check_criterion((2, 3), count, 0, text.replace(str(count), str(count - 1)))
    assert checks.check_criterion((2, 3), count, 0, text.replace("all biwords", "some biwords"))


def test_inverse_check_rejects_wrong_biword():
    ops = make_ops("inverse", 3)
    text = cli_output(ops[0].argv)
    assert ops[0].check(0, text) is None
    pairs = json.loads(text)
    pairs[-1][1] = pairs[-1][1] % 5 + 1
    assert ops[0].check(0, json.dumps(pairs))
    assert ops[0].check(0, "[]")


def test_crystal_shape_check_rejects_corruption():
    lam, n = (2, 1), 3
    text = cli_output(["crystal", "--shape", "2,1", "--n", "3", "--format", "json"])
    count = checks.hook_content_count(lam, n)
    assert checks.check_crystal_shape((lam, n), count, 0, text) is None
    data = json.loads(text)
    dropped = dict(data, vertices=data["vertices"][:-1],
                   edges=[e for e in data["edges"] if len(data["vertices"]) - 1 not in (e[0], e[2])])
    assert checks.check_crystal_shape((lam, n), count, 0, json.dumps(dropped))
    bent = dict(data, edges=[[e[0], e[1], e[0]] for e in data["edges"]])
    assert checks.check_crystal_shape((lam, n), count, 0, json.dumps(bent))
    assert checks.check_crystal_shape((lam, n), count, 0, text[:-10])


def test_crystal_alpha_check_rejects_corruption():
    alpha = (1, 0, 2)
    poly = checks.key_polynomial_ref(alpha)
    text = cli_output(["crystal", "--alpha", "1,0,2", "--format", "json"])
    assert checks.check_crystal_alpha(alpha, poly, 0, text) is None
    data = json.loads(text)
    for drop in range(len(data["vertices"])):
        kept = [v for pos, v in enumerate(data["vertices"]) if pos != drop]
        remap = {old: new for new, old in enumerate(p for p in range(len(data["vertices"])) if p != drop)}
        edges = [[remap[s], c, remap[d]] for s, c, d in data["edges"] if drop not in (s, d)]
        corrupted = dict(data, vertices=kept, edges=edges)
        assert checks.check_crystal_alpha(alpha, poly, 0, json.dumps(corrupted))


def test_workloads_are_seeded():
    for name in WORKLOADS:
        first = [op.argv for op in make_ops(name, 1)]
        assert first == [op.argv for op in make_ops(name, 1)]
    assert [op.argv for op in make_ops("inverse", 1)] != [op.argv for op in make_ops("inverse", 2)]
    assert len(make_ops("inverse", 1)) >= 100


def test_tracer_self_time_and_recursion():
    tracer = bench_trace.Tracer()

    def fact(k):
        return 1 if k == 0 else k * traced(k - 1)

    traced = tracer.span("fact", fact)
    leaf = tracer.span("leaf", lambda: sum(range(1000)))
    outer = tracer.span("outer", lambda: (leaf(), traced(5)))

    def gen(k):
        yield from range(k)

    stepped = tracer.span("gen", gen)
    tracer.begin_round()
    outer()
    assert list(stepped(3)) == [0, 1, 2]
    stats = tracer.end_round([])
    calls, incl, self_s = stats["spans"]["fact"]
    assert calls == 1 and self_s == pytest.approx(incl)
    o_calls, o_incl, o_self = stats["spans"]["outer"]
    assert o_calls == 1
    assert o_self == pytest.approx(o_incl - incl - stats["spans"]["leaf"][1])
    assert stats["spans"]["gen"][0] == 4  # three items and the final StopIteration
    assert len(tracer.first_round["name"]) == 1 + 1 + 6 + 4


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in bench_trace.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_round_end_to_end(trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "skybench" / "run.py"), "--workload", "inverse",
         "--seed", "1", "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(make_ops("inverse", 1))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
