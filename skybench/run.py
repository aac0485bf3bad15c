"""Run one workload of the skyline benchmark and print its metrics.

    python3 skybench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The operations run in one fresh worker process (``bench_worker.py``);
this process makes the inputs, computes the references, checks every
output and prints one JSON object as the last line of stdout.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separately traced run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".skybench"

SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def fail(message: str) -> None:
    print(f"skybench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_probe() -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "bench_worker.py"), str(SRC), "--setup"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if done.returncode != 0:
        fail(f"import of skyline.cli failed:\n{done.stderr}")
    return float(done.stdout)


def run_worker(job: dict) -> dict:
    job_path = OUT_DIR / f"job-{os.getpid()}.json"
    job_path.write_text(json.dumps(job))
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "bench_worker.py"), str(SRC), str(job_path)],
            timeout=WORKER_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        fail(f"worker exceeded {WORKER_TIMEOUT_S} s")
    finally:
        job_path.unlink()
    if done.returncode != 0:
        fail(f"worker exited with {done.returncode}")
    with open(job["result"]) as fh:
        return json.load(fh)


def main() -> None:
    from bench_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "skyline" / "__init__.py").is_file():
        fail(f"no skyline package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import skyline

    if Path(skyline.__file__).resolve().parent != (SRC / "skyline").resolve():
        fail(f"imported skyline from {skyline.__file__}, not from {SRC}")

    from bench_workloads import make_ops
    import bench_trace

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    ops = make_ops(args.workload, args.seed)
    job = {
        "ops": [op.argv for op in ops],
        "seconds": args.seconds,
        "trace": args.trace,
        "outputs": str(OUT_DIR / f"outputs-{tag}.jsonl"),
        "result": str(OUT_DIR / f"result-{tag}.json"),
        "trace_out": str(OUT_DIR / f"trace-{args.workload}.json"),
    }
    setups = [setup_probe() for _ in range(0 if args.trace else SETUP_PROBES)]
    result = run_worker(job)
    setups.append(result["setup_s"])

    # Check the first round's outputs; later rounds were compared byte for byte.
    errors = []
    with open(job["outputs"]) as fh:
        captured = [json.loads(line) for line in fh]
    os.unlink(job["outputs"])
    os.unlink(job["result"])
    rounds = result["rounds"]
    failed_ops = {pos for r in rounds for pos, rc in enumerate(r["rc"]) if rc != 0}
    for pos, (op, out) in enumerate(zip(ops, captured)):
        if pos in failed_ops:
            continue
        try:
            reason = op.check(out["rc"], out["out"])
        except Exception as exc:  # output too malformed for the check to read
            reason = f"unreadable output: {exc!r}"
        if reason:
            errors.append(f"op {pos} ({' '.join(op.argv[:3])}...): {reason}")
    for pos in result["nondeterministic"]:
        errors.append(f"op {pos}: output differs between rounds")
    for line in errors[:20]:
        print(f"CHECK FAILED {line}", file=sys.stderr)

    attempted = len(ops) * len(rounds)
    failed = sum(1 for r in rounds for rc in r["rc"] if rc != 0)
    walls = [sum(r["wall"]) for r in rounds]
    op_walls = [w for r in rounds for w in r["wall"]]
    wall_s = statistics.median(walls)
    items = sum(op.items for op in ops)
    if args.trace:
        biwords = items if args.workload == "criterion" else 0
        metrics = {
            name: {
                "value": statistics.median(fn(r["layers"], biwords) for r in rounds),
                "unit": unit,
            }
            for name, unit, _, fn in bench_trace.PER_LAYER
        }
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(sum(r["cpu"]) for r in rounds),
            "items_per_s": items / wall_s,
            "op_p50_ms": 1000.0 * statistics.median(op_walls),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds of "
        f"{len(ops)} operations ({items} items each); wall_s {wall_s:.4f} (median of "
        f"{len(walls)} rounds); op_p50_ms over {len(op_walls)} samples"
        + ("" if args.trace else f"; setup_s over {len(setups)} samples")
        + f"; {len(errors)} check failures"
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
