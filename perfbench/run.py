"""Run one attngrad benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-dense --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's ``src``. BLAS and OpenMP pools are pinned before numpy
loads. Every line but the last names one metric with its value and
unit, or one fact about the environment. The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics, measured with
tracing off; with ``--trace 1`` the per-layer metrics, from a run in
which ops alternate between tracing off and on. The full record, spans
included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from catalog import END_TO_END, PER_LAYER, SPAN_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("exact-dense", "fast-fresh", "fast-descent", "cli-verify")

# BLAS/OpenMP pool size. On a shared 2-CPU host, interleaved runs of
# fast-fresh spread 13% (interquartile range over median) with one
# thread and 21% with two: a single thread is the steadier measurement.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# an untraced run sets up at least SETUP_REPEATS times and until
# SETUP_MIN_SECONDS have passed, at most SETUP_MAX_REPEATS times;
# setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 50

# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def pin_threads() -> int:
    """Pin the BLAS/OpenMP pools; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    # the package reads its rank cap from the environment; use its default
    os.environ.pop("ATTNGRAD_RANK_CAP", None)
    return THREADS


def import_package():
    """Import attngrad from this checkout's src, and from nowhere else."""
    package = SRC / "attngrad"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no attngrad package at {package}")
    sys.path.insert(0, str(SRC))
    import attngrad

    if Path(attngrad.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported attngrad from {attngrad.__file__}, "
                         f"not from {package}")


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "attngrad").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            git_rev = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "threads": threads,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
    }


def set_up(factory, repeats: int, min_seconds: float = 0.0):
    """Build the workload at least ``repeats`` times and until
    ``min_seconds`` have passed; keep the last build and return it with
    the median set-up time."""
    times, workload = [], None
    while len(times) < repeats or (sum(times) < min_seconds
                                   and len(times) < SETUP_MAX_REPEATS):
        workload = None
        t0 = time.perf_counter()
        workload = factory()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def run_op(workload, i: int, tr):
    """One op; an exception is the op's result and fails it."""
    try:
        with tr.span("op"):
            return workload.op(i, tr)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc


def measure(workload, seconds: float, trace: bool) -> dict:
    """Closed loop for ``seconds``, one extra op under tracemalloc, then
    the checks on every op. With ``trace``, odd ops are traced and
    followed by the workload's stage probes."""
    from tracing import NullTracer, Tracer

    tracer, null = Tracer(), NullTracer()
    ops = []  # (op id, traced, seconds, result)
    start = time.perf_counter()
    while len(ops) < 1 + trace or time.perf_counter() - start < seconds:
        i = len(ops)
        traced = trace and i % 2 == 1
        tr = tracer if traced else null
        tracer.op = i
        t0 = time.perf_counter()
        out = run_op(workload, i, tr)
        elapsed = time.perf_counter() - t0
        if traced and not isinstance(out, Exception):
            with tracer.span("probe"):
                workload.probe(i, out, tracer)
        ops.append((i, traced, elapsed, out))
    wall = time.perf_counter() - start

    peak_id = len(ops)
    tracemalloc.start()
    try:
        peak_out = run_op(workload, peak_id, null)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    results = [(i, out) for i, _, _, out in ops] + [(peak_id, peak_out)]

    done = [(i, out) for i, out in results if not isinstance(out, Exception)]
    failures = {i: f"{type(out).__name__}: {out}" for i, out in results
                if isinstance(out, Exception)}
    failures.update(workload.check(done))
    return {"ops": ops, "wall": wall, "peak": peak, "attempted": len(results),
            "failures": failures, "tracer": tracer}


def tail(times: list[float]) -> dict:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return {"value": None, "percentile": None, "samples": len(ordered)}
    k = len(ordered) - TAIL_BEYOND - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "samples": len(ordered)}


def end_to_end(run: dict, setup_s: float) -> tuple[dict, dict]:
    times = [elapsed for _, _, elapsed, _ in run["ops"]]
    metrics = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(times) / run["wall"],
        "peak_mb": run["peak"] / 1e6,
    }
    info = {"op_s_tail": tail(times),
            "failed_frac": len(run["failures"]) / run["attempted"]}
    return metrics, info


def per_layer(workload, run: dict) -> dict:
    from tracing import median_self_time
    from workloads import degree_grid

    ops = run["ops"]
    traced_ids = {i for i, traced, _, _ in ops if traced}
    per_op = {op: names for op, names in run["tracer"].self_times().items()
              if op in traced_ids}
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = median_self_time(per_op, span)
    traced_results = [out for i, traced, _, out in ops
                      if traced and not isinstance(out, Exception)]
    metrics.update(workload.layer_metrics(per_op, traced_results))
    keys = [workload.key(i) for i, _, _, _ in ops]
    metrics["lowrank.key_shared_frac"] = (
        sum(a == b for a, b in zip(keys, keys[1:])) / len(keys))
    on = [elapsed for _, traced, elapsed, _ in ops if traced]
    off = [elapsed for _, traced, elapsed, _ in ops if not traced]
    metrics["trace_overhead_frac"] = statistics.median(on) / statistics.median(off) - 1.0
    metrics.update(degree_grid())
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()
    import_package()
    from workloads import WORKLOADS

    env = environment(threads)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    try:
        factory = lambda: cls(args.seed, workdir, **cls.FULL)  # noqa: E731
        if args.trace:
            workload, setup_s = set_up(factory, 1)
        else:
            workload, setup_s = set_up(factory, SETUP_REPEATS, SETUP_MIN_SECONDS)
        run = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, info = per_layer(workload, run), {}
        units = PER_LAYER
    else:
        values, info = end_to_end(run, setup_s)
        units = END_TO_END
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    t = info.get("op_s_tail")
    if t:
        shown = (f"{t['value']!r} s at p{t['percentile']:.1f}" if t["value"] is not None
                 else "none, too few samples")
        print(f"info op_s_tail = {shown} ({t['samples']} samples)")
        print(f"info failed_frac = {info['failed_frac']!r} "
              f"({len(run['failures'])} of {run['attempted']} ops)")
    for i, reason in sorted(run["failures"].items()):
        print(f"failed op {i}: {reason}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "sizes": cls.FULL,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "info": info, "attempted": run["attempted"],
        "failures": {str(i): r for i, r in run["failures"].items()},
        "op_seconds": [elapsed for _, _, elapsed, _ in run["ops"]],
    }
    if args.trace:
        record["spans"] = run["tracer"].records()
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
