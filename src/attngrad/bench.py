"""Scaling benchmarks contrasting the dense and low-rank gradient paths.

Timings are wall clock from a monotonic source, median of repeats
after a warm-up, excluding instance generation and file I/O.
The headline statistic is the fitted log-log slope of median seconds
against n: the dense path is quadratic in n at fixed d, the factored
path near linear.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import check_positive
from .forward import random_instance
from .gradient import gradient_exact
from .lowrank import gradient_fast


@dataclass
class BenchReport:
    """Per-method scaling measurements across instance sizes."""

    method: str
    sizes: list
    seconds: list
    max_err_vs_exact: list
    fitted_loglog_slope: float
    errors: dict = field(default_factory=dict)


def fit_loglog_slope(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(n)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    seconds = np.asarray(seconds, dtype=np.float64)
    ok = np.isfinite(seconds) & (seconds > 0)
    if ok.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(sizes[ok]), np.log(seconds[ok]), 1)[0])


def _median_time(fn, repeats: int):
    """Median seconds of ``repeats`` timed calls of ``fn``, and the last
    result, after untimed calls until two in a row agree within 1.25x
    (at most 10 calls): in a fresh process the first few calls can run
    5-50x slower than the steady state."""
    warm, times, result = [], [], None
    while len(warm) < 10 and (len(warm) < 2 or max(warm[-2:]) > 1.25 * min(warm[-2:])):
        t0 = time.perf_counter()
        fn()
        warm.append(time.perf_counter() - t0)
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


def run_scaling_bench(
    sizes, d: int, B: float, eps: float, repeats: int = 3, seed: int = 0,
) -> list[BenchReport]:
    """Time the exact and then the fast path on a fresh random instance
    of each size, and measure the fast path's error against the exact
    gradient.

    A fast-path failure (rank cap at the given B) is recorded for that
    size and the run continues; failed sizes are excluded from the
    slope fit.
    """
    sizes = sorted(int(n) for n in sizes)
    if not sizes:
        raise ValueError("sizes must name at least one n")
    if len(set(sizes)) != len(sizes):
        raise ValueError("sizes must be distinct")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    check_positive(eps, "eps")
    exact, fast = (BenchReport(method=m, sizes=sizes, seconds=[], max_err_vs_exact=[],
                               fitted_loglog_slope=float("nan")) for m in ("exact", "fast"))
    for n in sizes:
        inst = random_instance(n, d, B, seed)
        secs, ref = _median_time(lambda: gradient_exact(inst), repeats)
        exact.seconds.append(secs)
        exact.max_err_vs_exact.append(0.0)
        try:
            secs, res = _median_time(lambda: gradient_fast(inst, eps), repeats)
        except ValueError as exc:
            fast.errors[n] = str(exc)
            fast.seconds.append(float("nan"))
            fast.max_err_vs_exact.append(float("nan"))
        else:
            fast.seconds.append(secs)
            fast.max_err_vs_exact.append(float(np.abs(res.g - ref.g).max()))
    for rep in (exact, fast):
        rep.fitted_loglog_slope = fit_loglog_slope(sizes, rep.seconds)
    return [exact, fast]


def bench_csv_rows(reports: list[BenchReport]) -> list[str]:
    """CSV lines (with header) from bench reports: n,method,seconds,max_err."""
    lines = ["n,method,seconds,max_err"]
    for rep in reports:
        for n, secs, err in zip(rep.sizes, rep.seconds, rep.max_err_vs_exact):
            lines.append(f"{n},{rep.method},{secs:.9g},{err:.9g}")
    return lines
