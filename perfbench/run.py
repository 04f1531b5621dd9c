"""Benchmark of the nilmetric library, driven from outside through its
public functions.

    python3 perfbench/run.py --workload gauge-bound --seed 1 --seconds 45 --trace 0

Run from the repository root; the library is imported from ./src.  One
process, one caller, closed loop: each call starts after the previous
one returns.  The run

1. checks that the checkers work (checks.self_test),
2. times the set-up in nine fresh processes (`setup_s`, the median),
3. repeats rounds of the workload back to back until they add up to
   --seconds (at least two rounds; `round_s`, the median),
4. with --trace 1, runs a fixed number of extra rounds with every layer
   wrapped, and reports per-layer self times and counts per round,
5. checks the outputs, outside the timed region.

It prints a JSON report (environment, every named figure with its unit
and sample count, every check) and, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
CLI_STARTUP_PROBES = 3
MIN_ROUNDS = 2

END_TO_END = (("setup_s", "s"), ("round_s", "s"), ("peak_rss_mb", "MB"))


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_blas_threads() -> None:
    """One BLAS thread, always.

    The library's matrices are at most 7 wide, so a second BLAS thread
    buys nothing here but adds scheduling noise.  Must run before numpy
    is imported; child processes inherit the setting."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, asked through its own API."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return {}
    out = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, or None if it is not a git repository (git
    is kept from looking above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nilmetric").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def probe_setup(args) -> int:
    """Child process: time `import nilmetric` plus the workload's set-up."""
    t0 = time.perf_counter()
    import nilmetric  # noqa: F401

    t_import = time.perf_counter() - t0
    import workloads

    wl = workloads.make(args.workload)
    t1 = time.perf_counter()
    wl.setup(args.seed)
    print(json.dumps({"setup_s": t_import + time.perf_counter() - t1, "import_s": t_import}))
    return 0


def python_child(argv: list) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def setup_time(args) -> dict:
    argv = [
        str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
    ]
    return json.loads(python_child(argv))


def timed_rounds(wl, args) -> list:
    """Rounds back to back until they add up to --seconds (at least
    MIN_ROUNDS)."""
    rounds, busy = [], 0.0
    while len(rounds) < MIN_ROUNDS or busy < args.seconds:
        # the library leaves reference cycles holding large arrays;
        # collecting them here makes every round start from the same
        # state, so the memory peak does not depend on the round count
        gc.collect()
        t = time.perf_counter()
        wl.round()
        rounds.append(time.perf_counter() - t)
        busy += rounds[-1]
    return rounds


def cli_startup_times() -> list:
    code = "import time; t = time.perf_counter(); import nilmetric.cli; print(time.perf_counter() - t)"
    return [float(python_child(["-c", code])) for _ in range(CLI_STARTUP_PROBES)]


def run(args) -> int:
    import checks
    import tracing
    import workloads

    problems = checks.self_test()
    if problems:
        print("checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1

    wl = workloads.make(args.workload)
    wl.setup(args.seed)
    # inside the checkout, which is the only place the benchmark writes
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work_dir:
        wl.prepare(args.seed, Path(work_dir))
        setups = [setup_time(args) for _ in range(SETUP_PROBES)]
        rounds = timed_rounds(wl, args)
        report = wl.report()
        layers = None
        if args.trace:
            tracer = tracing.Tracer()
            traced = []
            with tracer:
                for _ in range(wl.trace_rounds):
                    gc.collect()
                    t = time.perf_counter()
                    wl.round()
                    traced.append(time.perf_counter() - t)
            layers = tracing.reduce(tracer.spans, wl.trace_rounds)
            # against the untraced rounds just before, to dodge slow drift
            layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(rounds[-len(traced):])
            layers["cli.startup_s"] = statistics.median(cli_startup_times()) if wl.has_cli else 0.0
            report["trace"] = {"rounds": wl.trace_rounds, "traced_round_s": traced}
        results = wl.check(args.seed)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(s["setup_s"] for s in setups)
    round_s = statistics.median(rounds)

    # wrong_rate and fail_rate cover one round and the scale sweep, so
    # they do not depend on how many rounds fit into --seconds.  The
    # result line counts every call and sweep row; of the sweep it counts
    # as failed only the rows outside the library's known defect.
    checked = sum(c.detail.get("rows", 0) for c in results)
    wrong = sum(c.detail.get("bad", 0) for c in results)
    n_rounds = len(rounds) + (wl.trace_rounds if args.trace else 0)
    round_attempted, round_failed = wl.attempted / n_rounds, wl.failed / n_rounds
    attempted, failed = wl.attempted, wl.failed
    sweep = wl.sweep
    if sweep is not None:
        checked += sweep.rows_checked
        wrong += sweep.rows_wrong
        round_attempted += sweep.rows_attempted
        round_failed += sweep.rows_failed
        attempted += sweep.rows_attempted
        failed += sweep.unexpected_bad
        report["scale_sweep"] = {
            "wrong_rate": {"value": sweep.wrong_rate, "wrong": sweep.rows_wrong, "checked": sweep.rows_checked},
            "fail_rate": {"value": sweep.fail_rate, "failed": sweep.rows_failed, "attempted": sweep.rows_attempted},
            "unexpected_bad": sweep.unexpected_bad,
            "decades": sweep.decades,
        }

    report.update(
        environment=environment(args),
        setup_s=dict(workloads.timing_summary([s["setup_s"] for s in setups]), unit="s", import_s=[s["import_s"] for s in setups]),
        round_s=dict(workloads.timing_summary(rounds), unit="s", samples=rounds),
        peak_rss_mb={"value": peak_rss_mb, "unit": "MB"},
        wrong_rate={"value": wrong / checked if checked else 0.0, "wrong": wrong, "checked": checked},
        fail_rate={"value": round_failed / round_attempted, "failed": round_failed, "attempted": round_attempted},
        checks=[{"name": c.name, "ok": bool(c.ok), **c.detail} for c in results],
    )
    if layers is not None:
        report["layers"] = layers
        metrics = {name: {"value": float(layers[name]), "unit": unit} for name, unit in tracing.LAYER_METRICS}
    else:
        values = {"setup_s": setup_s, "round_s": round_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}
    print(json.dumps(report, indent=1, default=float))
    correct = all(c.ok for c in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gauge-bound", "product-bound"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True, help="1: per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "nilmetric" / "__init__.py").is_file():
        print(f"error: the library source is missing ({SRC / 'nilmetric'}); run from a checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return probe_setup(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
