"""Command-line entry point.

Subcommands: ``gen`` (sample a bounded instance to matrix files),
``grad`` (compute a gradient by any method), ``verify`` (run the
oracle agreement suite on an instance), ``bench`` (scaling benchmark
with CSV output), and ``hardness`` (derivative-bound, Riemann and
reduction-consistency checks on hard instances).

Every report is strict JSON on stdout, with ``null`` where a value is
not finite, and carries the tool version and a full parameter echo.
Each command returns its report; ``main`` alone adds that envelope,
writes the report and picks the exit code: 0 all checks pass, 1 a
check or input failed, 2 usage error. ``--threads 1`` pins the
BLAS/OpenMP pools before numpy is imported, which makes runs bitwise
reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import __version__

FD_TOL = 1e-5
BRUTE_TOL = 1e-10
REL_TOL = 1e-4


def _thread_count(text: str) -> int:
    """argparse type for --threads: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attngrad",
        description="attention-loss gradients: exact, near-linear approximate, "
        "verification oracles, and hardness-lab checks",
    )
    parser.add_argument("--version", action="version", version=f"attngrad {__version__}")
    parser.add_argument("--threads", type=_thread_count, default=None,
                        help="pin BLAS/OpenMP thread count (1 = bitwise reproducible)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a bounded instance into a directory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("grad", help="compute the gradient of a stored instance")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--method", choices=("exact", "fast", "fd", "brute"), default="exact")
    p.add_argument("--eps", type=float, default=1e-4, help="fast-path accuracy target")
    p.add_argument("--step", type=float, default=1e-4, help="finite-difference step")

    p = sub.add_parser("verify", help="oracle agreement suite on a stored instance")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-4)

    p = sub.add_parser("bench", help="scaling benchmark, JSON + CSV")
    p.add_argument("--sizes", required=True, help="comma-separated n values")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--B", type=float, default=0.8)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="also write rows to this CSV file")

    p = sub.add_parser("hardness", help="hardness-lab checks on generated instances")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--m", type=int, default=100, help="Riemann sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frac-B", type=float, default=0.5, dest="frac_b")
    p.add_argument("--grid", type=int, default=101, help="lambda grid points")
    return parser


def _strict(value):
    """``value`` with every non-finite float replaced by None, so that
    the report is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def _cmd_gen(args) -> dict:
    from .forward import random_instance, save_instance

    inst = random_instance(args.n, args.d, args.B, args.seed, args.noise_sigma)
    save_instance(inst, args.out, {"seed": args.seed, "noise_sigma": args.noise_sigma,
                                   "tool_version": __version__})
    return {"out": args.out, "n": args.n, "d": args.d, "B": args.B, "seed": args.seed,
            "noise_sigma": args.noise_sigma}


def _cmd_grad(args) -> dict:
    from .forward import load_instance
    from .gradient import gradient_exact
    from .lowrank import gradient_fast
    from .oracles import brute_kron_gradient, finite_diff_gradient

    inst = load_instance(args.in_dir)
    if args.method == "exact":
        res = gradient_exact(inst)
    elif args.method == "fast":
        res = gradient_fast(inst, args.eps)
    elif args.method == "fd":
        res = finite_diff_gradient(inst, args.step)
    else:
        res = brute_kron_gradient(inst)
    report = {"in": args.in_dir, "n": inst.n, "d": inst.d, "B": inst.B,
              "method": res.method, "elapsed_seconds": res.elapsed_seconds,
              "g": res.g.tolist()}
    if args.method == "fast":
        report["eps"] = args.eps
        report.update(res.info)
    if args.method == "fd":
        report["step"] = args.step
    return report


def _cmd_verify(args) -> dict:
    import numpy as np

    from .gradient import gradient_exact
    from .forward import load_instance
    from .lowrank import gradient_fast
    from .oracles import BRUTE_D_CAP, BRUTE_N_CAP, brute_kron_gradient, finite_diff_gradient

    def check(name, a, b, tol):
        diff = float(np.abs(a.g - b.g).max())
        return {"name": name, "max_abs": diff, "tol": tol,
                "status": "pass" if diff <= tol else "fail"}

    inst = load_instance(args.in_dir)
    exact = gradient_exact(inst)
    checks = [check("exact_vs_fd", exact, finite_diff_gradient(inst, args.step), FD_TOL)]
    if inst.n <= BRUTE_N_CAP and inst.d <= BRUTE_D_CAP:
        checks.append(check("exact_vs_brute", exact, brute_kron_gradient(inst), BRUTE_TOL))
    else:
        checks.append({"name": "exact_vs_brute", "status": "skipped",
                       "reason": f"brute oracle capped at n<={BRUTE_N_CAP}, d<={BRUTE_D_CAP}"})
    checks.append(check("fast_vs_exact", gradient_fast(inst, args.eps), exact, args.eps))
    return {"in": args.in_dir, "n": inst.n, "d": inst.d, "B": inst.B, "eps": args.eps,
            "step": args.step, "checks": checks,
            "pass": all(c["status"] != "fail" for c in checks)}


def _cmd_bench(args) -> dict:
    from .bench import bench_csv_rows, run_scaling_bench

    sizes = []
    for tok in filter(None, args.sizes.split(",")):
        try:
            sizes.append(int(tok))
        except ValueError:
            raise ValueError(f"--sizes must be comma-separated integers, got {tok!r}") from None
    reports = run_scaling_bench(sizes, args.d, args.B, args.eps, args.repeats, args.seed)
    rows = bench_csv_rows(reports)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return {"sizes": sizes, "d": args.d, "B": args.B, "eps": args.eps,
            "repeats": args.repeats, "seed": args.seed,
            "reports": [dataclasses.asdict(r) for r in reports],
            "csv": rows if not args.csv else args.csv}


def _cmd_hardness(args) -> dict:
    import numpy as np

    from .hardness import f_lambda, f_lambda_derivative, factorized_hard_instance, \
        gen_hard_instance, gradient_to_forward, hard_attention_instance, \
        riemann_reduction

    hi = gen_hard_instance(args.n, args.d, args.B, args.frac_b, args.seed)
    report = riemann_reduction(hi, args.m, args.grid, strict=False)

    bound = 8.0 * args.B * args.n
    max_abs_fprime = float(np.abs(report.fprime_values).max())
    deriv_ok = bool(max_abs_fprime <= bound + 1e-9)

    step = 1e-5
    fd_errs = []
    for lam, fp in zip(report.lambda_grid, report.fprime_values):
        fd = (f_lambda(hi, lam + step) - f_lambda(hi, lam - step)) / (2 * step)
        fd_errs.append(float(abs(fd - fp) / (1.0 + abs(fp))))
    fd_ok = max(fd_errs) <= REL_TOL

    fhi, q, k = factorized_hard_instance(args.n, args.d, args.B, args.seed)
    red_errs = []
    for lam in np.linspace(0.0, 1.0, 11):
        from_grad = gradient_to_forward(hard_attention_instance(q, k, fhi.V, lam), lam)
        fp, _ = f_lambda_derivative(fhi, lam)
        red_errs.append(float(abs(from_grad - fp) / (1.0 + abs(fp))))
    red_ok = max(red_errs) <= REL_TOL

    return {
        "n": args.n, "d": args.d, "B": args.B, "m": args.m,
        "seed": args.seed, "frac_B": args.frac_b, "grid_points": args.grid,
        "derivative_bound": {"max_abs_fprime": max_abs_fprime,
                             "bound_8Bn": bound, "pass": deriv_ok},
        "fd_match": {"max_rel_err": max(fd_errs), "tol": REL_TOL, "pass": fd_ok},
        "riemann": {"t_m": report.t_m, "f1_minus_f0": report.f1_minus_f0,
                    "bound_b": report.bound_b, "m": args.m, "pass": report.holds},
        "reduction_consistency": {"max_rel_err": max(red_errs), "tol": REL_TOL,
                                  "lambda_points": 11, "pass": red_ok},
        "pass": deriv_ok and fd_ok and report.holds and red_ok,
    }


_COMMANDS = {
    "gen": _cmd_gen,
    "grad": _cmd_grad,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "hardness": _cmd_hardness,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        # must happen before numpy is imported by the lazy command imports
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        report = _strict({"tool_version": __version__, "command": args.command,
                          **_COMMANDS[args.command](args)})
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    except (ValueError, OSError) as exc:
        print(f"attngrad {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0 if report.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
