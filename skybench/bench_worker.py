"""One run's operations, served from one fresh interpreter.

    python3 bench_worker.py SRC JOB.json     run the job, write its result file
    python3 bench_worker.py SRC --setup      print the import time of skyline.cli

The import of ``skyline.cli`` is timed before anything else is imported,
so it is the program's own set-up.  The job lists the argv of every
operation; the worker drives them through ``skyline.cli.run(argv, out)``
round after round until ``seconds`` have passed, always ending on a whole
round.  Each round starts from an empty program cache (every
``functools`` cache in the package is cleared), so every round replays
the same session; within a round the cache carries from one operation to
the next.  Outputs of the first round go to a file for the parent to
check; later rounds must reproduce them byte for byte.  Nothing the
parent checks against is held here, so the peak RSS is the program's
plus this small harness.
"""
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    _t0 = time.perf_counter()
    import skyline.cli  # noqa: E402

    SETUP_S = time.perf_counter() - _t0
    if sys.argv[2] == "--setup":
        print(repr(SETUP_S))
        sys.exit(0)

import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def program_caches(package) -> list:
    """Every functools-cached function bound in the package's modules."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


def run_job(job: dict, setup_s: float) -> dict:
    import skyline.cli as cli

    caches = program_caches("skyline")
    demazure_caches = [c for c in caches if c.__module__ == "skyline.demazure"]
    tracer = None
    if job["trace"]:
        import bench_trace

        tracer = bench_trace.install()
    ops = job["ops"]
    digests: list = [None] * len(ops)
    mismatched: set = set()
    rounds = []
    start = time.perf_counter()
    with open(job["outputs"], "w") as outputs:
        while not rounds or time.perf_counter() - start < job["seconds"]:
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            if tracer is not None:
                tracer.begin_round()
            walls, cpus, codes = [], [], []
            for pos, argv in enumerate(ops):
                out = io.StringIO()
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    code = cli.run(argv, out)
                except Exception as exc:  # a crashed operation is a failed one
                    print(f"operation {pos} raised {exc!r}", file=sys.stderr)
                    code = None
                t1, c1 = time.perf_counter(), time.process_time()
                walls.append(t1 - t0)
                cpus.append(c1 - c0)
                codes.append(code)
                text = out.getvalue()
                digest = hashlib.blake2b(text.encode()).digest()
                if not rounds:
                    digests[pos] = digest
                    outputs.write(json.dumps({"rc": code, "out": text}) + "\n")
                elif digest != digests[pos]:
                    mismatched.add(pos)
            record = {"wall": walls, "cpu": cpus, "rc": codes}
            if tracer is not None:
                record["layers"] = tracer.end_round(demazure_caches)
            rounds.append(record)
    if tracer is not None:
        tracer.write(job["trace_out"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "nondeterministic": sorted(mismatched),
        "peak_rss_mb": peak_kb / 1024.0,
    }


if __name__ == "__main__":
    with open(sys.argv[2]) as fh:
        JOB = json.load(fh)
    RESULT = run_job(JOB, SETUP_S)
    with open(JOB["result"], "w") as fh:
        json.dump(RESULT, fh)
