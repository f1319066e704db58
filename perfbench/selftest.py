"""Self-test of the benchmark: every workload end to end at tiny sizes.

    python3 perfbench/selftest.py

Checks, for each workload, that an untraced and a traced run report
exactly the metrics BENCHMARK.json names with no failed op, and that a
deliberately corrupted gradient fails every op it touches instead of
passing. Exits 1 on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run

SECONDS = 0.2
SEED = 3

# five times the loosest tolerance of any check
CORRUPTION = 0.05


def fail(message: str) -> None:
    print(f"selftest: FAIL {message}")
    sys.exit(1)


def corrupted(op):
    """Wrap an op so that its gradient is off by CORRUPTION in every entry."""
    def wrapped(i, tr):
        res = op(i, tr)
        return dataclasses.replace(res, G=res.G + CORRUPTION, g=res.g + CORRUPTION)
    return wrapped


def main() -> int:
    run.pin_threads()
    run.import_package()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    if not {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES) == set(WORKLOADS):
        fail("BENCHMARK.json, run.py and workloads.py name different workloads")
    workdir = run.OUT_DIR / "selftest"
    try:
        for name, cls in WORKLOADS.items():
            for trace in (0, 1):
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                workload, setup_s = run.set_up(lambda: cls(SEED, workdir, **cls.TINY), 2)
                result = run.measure(workload, SECONDS, bool(trace))
                if result["failures"]:
                    fail(f"{name} trace {trace}: {result['failures']}")
                metrics = (run.per_layer(workload, result) if trace
                           else run.end_to_end(result, setup_s)[0])
                if set(metrics) != declared[trace]:
                    fail(f"{name} trace {trace}: metrics {sorted(set(metrics) ^ declared[trace])} "
                         "differ from BENCHMARK.json")
                if not trace and not all(v > 0 for v in metrics.values()):
                    fail(f"{name}: an end-to-end metric is not positive: {metrics}")
                print(f"selftest: ok {name} trace {trace}, {result['attempted']} ops")
            if name == "cli-verify":
                continue
            workload = cls(SEED, workdir, **cls.TINY)
            workload.op = corrupted(workload.op)
            result = run.measure(workload, SECONDS, False)
            if len(result["failures"]) != result["attempted"]:
                fail(f"{name}: corrupted gradient passed "
                     f"{result['attempted'] - len(result['failures'])} of "
                     f"{result['attempted']} ops")
            print(f"selftest: ok {name} corrupted gradient fails all "
                  f"{result['attempted']} ops")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
