"""Shared enumeration helpers for the test suite."""
import itertools

# the (shape, n) pairs and compositions of the bench's crystal workload
BENCH_SHAPES = [
    ((4, 2, 1), 6), ((5, 3, 1), 5), ((3, 3), 6), ((4, 2), 5),
    ((4, 3, 2, 1), 5), ((3, 2, 1), 5), ((2, 2, 1), 6), ((3, 1), 6),
]
BENCH_ALPHAS = [
    (1, 0, 3), (0, 2, 1, 3), (1, 0, 2, 0, 2), (0, 1, 2, 3),
    (3, 0, 2, 1, 0, 1), (0, 1, 0, 2, 1, 1), (1, 2, 0, 2, 0, 1), (0, 0, 2, 1, 3),
    (2, 1, 0, 0, 2, 1),
]


def small_compositions(max_len, max_entry, min_len=0):
    """All compositions with length and entries in the given bounds."""
    for ln in range(min_len, max_len + 1):
        yield from itertools.product(range(max_entry + 1), repeat=ln)


def partitions_up_to(max_size, max_parts, include_empty=True):
    """All partitions of size <= max_size with at most max_parts parts."""
    out = [()] if include_empty else []
    for total in range(1, max_size + 1):

        def build(remaining, cap, prefix):
            if remaining == 0:
                out.append(tuple(prefix))
                return
            if len(prefix) == max_parts:
                return
            for part in range(min(cap, remaining), 0, -1):
                build(remaining - part, part, prefix + [part])

        build(total, total, [])
    return out


def biword_multisets(n, max_len, cells=None):
    """All lexicographic biwords over [n] x [n] with at most max_len letters."""
    if cells is None:
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for r in range(max_len + 1):
        yield from itertools.combinations_with_replacement(cells, r)
