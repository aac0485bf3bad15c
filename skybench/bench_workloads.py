"""The four workloads: CLI operations made from a seed, with their references.

Each workload is a list of operations.  An operation is the argv of one
``skyline`` verb, a check bound to a reference computed by
``bench_checks`` (never by the program), and the number of work items it
stands for.  The seed fixes the order of the operations and, for
``inverse``, the biwords themselves; the amount of work in a round does
not depend on it beyond what the random biwords of ``inverse`` bring.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import bench_checks as checks


@dataclass(frozen=True)
class Op:
    argv: list[str]
    check: Callable[[int, str], "str | None"]
    items: int


# (n, m, k, deg): staircases, rectangles (n + 1 = m + k) and truncated
# staircases, in both orientations; k > m conjugates the shape and swaps
# the alphabets inside the program.
KERNEL_CASES = [
    (4, 4, 4, 5), (5, 5, 5, 4),
    (6, 4, 3, 5), (6, 3, 4, 5), (5, 3, 3, 5), (6, 5, 2, 5), (6, 2, 5, 5),
    (6, 5, 4, 4), (6, 4, 5, 4), (5, 5, 4, 5), (5, 4, 5, 5), (6, 6, 3, 4), (6, 3, 6, 4),
]

# (n, max_len): exhaustive sweeps of the staircase criterion.
CRITERION_CASES = [(4, 4), (5, 3), (3, 5), (6, 3), (2, 8)]

# Biwords for the inverse: PAIRS_PER_CLASS random ones per (n, length).
INVERSE_NS = (5, 6, 7, 8)
INVERSE_LENGTHS = (2, 4, 6, 8, 10)
PAIRS_PER_CLASS = 10

# (shape, n) for full crystal graphs, and compositions for Demazure crystals.
CRYSTAL_SHAPES = [
    ((4, 2, 1), 6), ((5, 3, 1), 5), ((3, 3), 6), ((4, 2), 5),
    ((4, 3, 2, 1), 5), ((3, 2, 1), 5), ((2, 2, 1), 6), ((3, 1), 6),
]
CRYSTAL_ALPHAS = [
    (1, 0, 3), (0, 2, 1, 3), (1, 0, 2, 0, 2), (0, 1, 2, 3),
    (3, 0, 2, 1, 0, 1), (0, 1, 0, 2, 1, 1), (1, 2, 0, 2, 0, 1), (0, 0, 2, 1, 3),
    (2, 1, 0, 0, 2, 1),
]


def _csv(values) -> str:
    return ",".join(map(str, values))


def kernel_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n, m, k, d in KERNEL_CASES:
        terms = checks.kernel_term_count(n, m, k, d)
        argv = ["verify-kernel", "--n", str(n), "--m", str(m), "--k", str(k),
                "--deg", str(d), "--jobs", "1"]
        ops.append(Op(argv, partial(checks.check_kernel, (n, m, k, d), terms), terms))
    rng.shuffle(ops)
    return ops


def criterion_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n, max_len in CRITERION_CASES:
        count = checks.biword_count(n, max_len)
        argv = ["verify-main", "--n", str(n), "--max-len", str(max_len), "--jobs", "1"]
        ops.append(Op(argv, partial(checks.check_criterion, (n, max_len), count), count))
    rng.shuffle(ops)
    return ops


def random_biword(rng: random.Random, n: int, length: int) -> list[list[int]]:
    return [list(p) for p in sorted(
        (rng.randint(1, n), rng.randint(1, n)) for _ in range(length)
    )]


def inverse_ops(rng: random.Random) -> list[Op]:
    # The pairs are made by the program's own phi, outside the timed region.
    from skyline.correspondences import Biword, phi
    from skyline.fillings import ssaf_to_json

    ops = []
    for n in INVERSE_NS:
        for length in INVERSE_LENGTHS:
            for _ in range(PAIRS_PER_CLASS):
                pairs = random_biword(rng, n, length)
                f, g = phi(Biword(tuple(map(tuple, pairs))), n)
                argv = ["phi-inv", "--f", json.dumps(ssaf_to_json(f)),
                        "--g", json.dumps(ssaf_to_json(g)), "--json"]
                ops.append(Op(argv, partial(checks.check_inverse, pairs), 1))
    rng.shuffle(ops)
    return ops


def crystal_ops(rng: random.Random) -> list[Op]:
    ops = []
    for lam, n in CRYSTAL_SHAPES:
        count = checks.hook_content_count(lam, n)
        argv = ["crystal", "--shape", _csv(lam), "--n", str(n), "--format", "json"]
        ops.append(Op(argv, partial(checks.check_crystal_shape, (lam, n), count), count))
    for alpha in CRYSTAL_ALPHAS:
        poly = checks.key_polynomial_ref(alpha)
        argv = ["crystal", "--alpha", _csv(alpha), "--format", "json"]
        ops.append(Op(argv, partial(checks.check_crystal_alpha, alpha, poly),
                      sum(poly.values())))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "kernel": kernel_ops,
    "criterion": criterion_ops,
    "inverse": inverse_ops,
    "crystal": crystal_ops,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
