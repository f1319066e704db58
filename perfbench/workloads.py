"""The four benchmark workloads and the counts derived from their shapes.

Each workload is a closed loop: one caller in one process issues an op,
waits for it, then issues the next. ``__init__`` is the set-up the
benchmark times: it builds every input from the seed and computes the
references the checks compare against. ``op`` calls attngrad's public
functions, wrapping each call in a span of the tracer it is given;
``probe`` replays single stages of an op for the traced run; ``check``
returns the ops that failed, with the reason.

Why each workload exists is recorded in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
from pathlib import Path

import numpy as np

from attngrad.cli import main as cli_main
from attngrad.forward import AttentionInstance, forward, loss
from attngrad.gradient import gradient_exact
from attngrad.lowrank import gradient_fast
from catalog import GRID_B, GRID_D, GRID_EPS, grid_metric
from tracing import NullTracer, median_self_time

# the CLI's FD_TOL, fixed here so the benchmark's check cannot move with it
FD_TOL = 1e-5
FD_STEP = 1e-4

# targets of the descent are a teacher's outputs plus this much noise
TEACHER_NOISE = 0.01

# a descent step fails if the loss rises by more than this share of it,
# which is well above the rounding of the loss sum
LOSS_RTOL = 1e-12

def stage(tr, module: str, name: str, *args):
    """Call ``attngrad.<module>.<name>(*args)`` inside a span of that
    name. A stage function that the package no longer has is skipped,
    and its per-layer metric then reads 0."""
    fn = getattr(importlib.import_module(f"attngrad.{module}"), name, None)
    if fn is None:
        return None
    with tr.span(f"{module}.{name}"):
        return fn(*args)


def bounded_x(rng, a1: np.ndarray, B: float) -> np.ndarray:
    x = rng.uniform(-1.0, 1.0, (a1.shape[1], a1.shape[1]))
    return x * (B / np.abs(a1 @ x).max())


def make_instance(rng, n: int, d: int, B: float) -> AttentionInstance:
    """A1, A3, Y uniform on [-1, 1]; A2 uniform, scaled to max|A2| = B;
    X scaled to max|A1 X| = B; E Gaussian with sigma 0.5. Building E
    without a forward pass keeps set-up free of n x n work."""
    a1, a2, a3 = (rng.uniform(-1.0, 1.0, (n, d)) for _ in range(3))
    a2 *= B / np.abs(a2).max()
    y = rng.uniform(-1.0, 1.0, (d, d))
    x = bounded_x(rng, a1, B)
    e = 0.5 * rng.standard_normal((n, d))
    return AttentionInstance(A1=a1, A2=a2, A3=a3, E=e, X=x, Y=y, B=B)


def central_difference(inst: AttentionInstance, index: int) -> float:
    """dL/dX at flat index ``index`` by central differences of the loss."""
    pert = np.zeros_like(inst.X)
    pert.flat[index] = FD_STEP
    up, _ = loss(inst, inst.X + pert)
    down, _ = loss(inst, inst.X - pert)
    return (up - down) / (2.0 * FD_STEP)


def exact_counts(n: int, d: int) -> tuple[float, float]:
    """Computed (FLOPs, bytes) of the dense chain, from shapes alone.

    Bytes count the four n x n intermediates (exp matrix, f, q, p) as
    each written once and read once, plus the six inputs; cache misses
    and temporaries of a particular implementation are not counted.
    """
    flop = (
        2 * n * d * d            # A1 X
        + 2 * n * n * d          # (A1 X) A2^T
        + 2 * n * n              # scale by 1/d, exp
        + 2 * n * n              # row sums, normalize
        + 2 * n * d * d          # h = A3 Y
        + 2 * n * n * d + n * d  # c = f h - E
        + 2 * n * n * d          # q = c h^T
        + 4 * n * n              # p = f * (q - <f, q>)
        + 2 * n * n * d          # A1^T p
        + 2 * n * d * d + d * d  # (A1^T p) A2 / d
    )
    nbytes = 8 * (4 * 2 * n * n + 4 * n * d + 2 * d * d)
    return float(flop), float(nbytes)


def fast_counts(n: int, d: int, k1: int) -> tuple[float, float]:
    """Computed (FLOPs, bytes) of the factored chain at rank k1.

    Bytes count passes over the n x k1 factor arrays: building each
    feature map reads a parent column and writes a new one (2 x 2),
    normalizing U1 (2), the column sum of V1 and the row sums (2),
    W and z (2), the d-term g1 loop reading U1 and V1 (2 d), and g2
    (4); the n x d inputs are ignored next to them.
    """
    flop = (
        2 * n * d * d                             # A1 X
        + 2 * 2 * n * (k1 - 1)                    # two feature maps
        + 4 * n * k1                              # column sum, row sums, normalize
        + 2 * n * d * d                           # h = A3 Y
        + 2 * 2 * n * k1 * d                      # W = V1^T h, z = U1 W
        + 3 * n * d                               # c, r
        + d * (2 * n * d + 4 * n * d * k1 + 2 * d * d * k1)  # g1
        + n * k1 + 4 * n * d * k1 + 2 * d * d * k1           # g2
    )
    nbytes = 8 * n * k1 * (14 + 2 * d)
    return float(flop), float(nbytes)


def degree_grid() -> dict[str, float]:
    """``select_degree`` rank k1 per (B, eps) cell at d = 8, 0 where it
    refuses, plus the number of refused cells. Empty when the package
    no longer has the seed's selector interface."""
    lowrank = importlib.import_module("attngrad.lowrank")
    select_degree = getattr(lowrank, "select_degree", None)
    default_eps_prime = getattr(lowrank, "default_eps_prime", None)
    if not (select_degree and default_eps_prime):
        return {}
    metrics, refused = {}, 0
    for B in GRID_B:
        for label, eps in GRID_EPS.items():
            try:
                k1 = select_degree(B, default_eps_prime(eps, B, GRID_D), GRID_D).m_feat
            except ValueError:
                k1, refused = 0, refused + 1
            metrics[grid_metric(B, label)] = float(k1)
    metrics["lowrank.grid_refused"] = float(refused)
    return metrics


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def fast_probes(inst: AttentionInstance, eps: float, tr) -> None:
    """Replay the degree choice and the feature build of gradient_fast."""
    lowrank = importlib.import_module("attngrad.lowrank")
    bound = getattr(lowrank, "effective_bound", None)
    eps_prime = getattr(lowrank, "default_eps_prime", None)
    if bound and eps_prime:
        b = bound(inst)
        stage(tr, "lowrank", "select_degree", b, eps_prime(eps, b, inst.d), inst.d)
    stage(tr, "lowrank", "lowrank_softmax_factors", inst, eps)


def fast_layer_metrics(per_op, results, n: int, d: int) -> dict[str, float]:
    k1 = results[-1].info["k1"] if results else 0
    fast = median_self_time(per_op, "lowrank.gradient_fast")
    chain = _median(
        t["lowrank.gradient_fast"] - t["lowrank.lowrank_softmax_factors"]
        for t in per_op.values()
        if "lowrank.gradient_fast" in t and "lowrank.lowrank_softmax_factors" in t
    )
    flop, nbytes = fast_counts(n, d, k1)
    return {
        "lowrank.chain_s": chain,
        "lowrank.fast_gflop": flop / 1e9,
        "lowrank.fast_gb": nbytes / 1e9,
        "lowrank.fast_gflops": flop / 1e9 / fast if fast else 0.0,
        "lowrank.degree": float(results[-1].info["degree"]) if results else 0.0,
        "lowrank.k1": float(k1),
        "lowrank.factor_mb": 2 * n * k1 * 8 / 1e6,
    }


class ExactDense:
    """gradient_exact cycling a small pool of distinct instances."""

    name = "exact-dense"
    FULL = dict(n=4096, d=8, B=0.8, pool=2, coords=2)
    TINY = dict(n=64, d=4, B=0.8, pool=2, coords=2)

    def __init__(self, seed: int, workdir: Path, n: int, d: int, B: float,
                 pool: int, coords: int):
        rng = np.random.default_rng(seed)
        self.n, self.d = n, d
        self.pool = [make_instance(rng, n, d, B) for _ in range(pool)]
        self.coords = [rng.choice(d * d, coords, replace=False) for _ in self.pool]
        self.fd = [np.array([central_difference(inst, int(j)) for j in idx])
                   for inst, idx in zip(self.pool, self.coords)]

    def key(self, i: int):
        return i % len(self.pool)

    def op(self, i: int, tr):
        with tr.span("gradient.gradient_exact"):
            return gradient_exact(self.pool[self.key(i)])

    def probe(self, i: int, result, tr) -> None:
        inst = self.pool[self.key(i)]
        cache = stage(tr, "forward", "softmax_cache", inst)
        if cache is None:
            return
        c = cache.f @ cache.h - inst.E
        q = stage(tr, "gradient", "compute_q", c, cache.h)
        if q is not None:
            stage(tr, "gradient", "compute_p", cache.f, q)

    def check(self, done) -> dict[int, str]:
        failures = {}
        for i, res in done:
            k = self.key(i)
            err = float(np.abs(res.G.flat[self.coords[k]] - self.fd[k]).max())
            if not err <= FD_TOL:
                failures[i] = f"exact vs central differences: {err:.3g} > {FD_TOL}"
        return failures

    def layer_metrics(self, per_op, results) -> dict[str, float]:
        stages = ("forward.softmax_cache", "gradient.compute_q", "gradient.compute_p")
        exact = median_self_time(per_op, "gradient.gradient_exact")
        contract = _median(
            t["gradient.gradient_exact"] - sum(t[s] for s in stages)
            for t in per_op.values()
            if "gradient.gradient_exact" in t and all(s in t for s in stages)
        )
        flop, nbytes = exact_counts(self.n, self.d)
        return {
            "gradient.contract_s": contract,
            "gradient.exact_gflop": flop / 1e9,
            "gradient.exact_gb": nbytes / 1e9,
            "gradient.exact_gflops": flop / 1e9 / exact if exact else 0.0,
        }


class FastFresh:
    """gradient_fast cycling a pool in which consecutive ops never share A2."""

    name = "fast-fresh"
    FULL = dict(n=8192, d=8, B=0.8, eps=1e-2, pool=2)
    TINY = dict(n=128, d=4, B=0.8, eps=1e-2, pool=2)

    def __init__(self, seed: int, workdir: Path, n: int, d: int, B: float,
                 eps: float, pool: int):
        rng = np.random.default_rng(seed)
        self.n, self.d, self.eps = n, d, eps
        self.pool = [make_instance(rng, n, d, B) for _ in range(pool)]
        self.ref = [gradient_exact(inst).G for inst in self.pool]

    def key(self, i: int):
        return i % len(self.pool)

    def op(self, i: int, tr):
        with tr.span("lowrank.gradient_fast"):
            return gradient_fast(self.pool[self.key(i)], self.eps)

    def probe(self, i: int, result, tr) -> None:
        fast_probes(self.pool[self.key(i)], self.eps, tr)

    def check(self, done) -> dict[int, str]:
        failures = {}
        for i, res in done:
            err = float(np.abs(res.G - self.ref[self.key(i)]).max())
            if not err <= self.eps:
                failures[i] = f"fast vs exact: {err:.3g} > eps {self.eps}"
        return failures

    def layer_metrics(self, per_op, results) -> dict[str, float]:
        return fast_layer_metrics(per_op, results, self.n, self.d)


class FastDescent:
    """Fixed-step gradient descent on X with gradient_fast; A1, A2, A3,
    E, Y are shared by every step.

    After each step X is rescaled onto max|A1 X| = B. Left alone, the
    steps grow max|A1 X| past B and the degree selector refuses; only
    shrinking it when it exceeds B lets it dip to where the degree
    falls. Rescaling every step keeps the effective bound, and with it
    the degree and rank, fixed, so every step does the same work.
    """

    name = "fast-descent"
    FULL = dict(n=2048, d=8, B=0.8, eps=1e-4, step=10.0)
    TINY = dict(n=64, d=4, B=0.8, eps=1e-4, step=10.0)

    def __init__(self, seed: int, workdir: Path, n: int, d: int, B: float,
                 eps: float, step: float):
        rng = np.random.default_rng(seed)
        self.n, self.d, self.B, self.eps, self.step = n, d, B, eps, step
        teacher = make_instance(rng, n, d, B)
        e = forward(teacher) + TEACHER_NOISE * rng.standard_normal((n, d))
        self.inputs = dict(A1=teacher.A1, A2=teacher.A2, A3=teacher.A3, E=e,
                           Y=teacher.Y, B=B)
        self.x = bounded_x(rng, teacher.A1, B)
        start = AttentionInstance(X=self.x, **self.inputs)
        self.start_loss, _ = loss(start)
        self.start_grad = gradient_exact(start).G
        self.xs: dict[int, np.ndarray] = {}

    def key(self, i: int):
        return 0

    def op(self, i: int, tr):
        x = self.xs[i] = self.x
        with tr.span("forward.AttentionInstance"):
            inst = AttentionInstance(X=x, **self.inputs)
        with tr.span("lowrank.gradient_fast"):
            res = gradient_fast(inst, self.eps)
        x = x - self.step * res.G
        self.x = x * (self.B / np.abs(self.inputs["A1"] @ x).max())
        return res

    def probe(self, i: int, result, tr) -> None:
        fast_probes(AttentionInstance(X=self.xs[i], **self.inputs), self.eps, tr)

    def check(self, done) -> dict[int, str]:
        """Each step's gradient against gradient_exact at the same X, and
        the loss at each step's X against the previous step's. X is known
        only once the step before it has run, so past the first step the
        references are computed here, after the timed loop."""
        failures, prev = {}, None
        for i, res in done:
            if i == 0:
                value, ref = self.start_loss, self.start_grad
            else:
                inst = AttentionInstance(X=self.xs[i], **self.inputs)
                value, _ = loss(inst)
                ref = gradient_exact(inst).G
            err = float(np.abs(res.G - ref).max())
            if not err <= self.eps:
                failures[i] = f"fast vs exact: {err:.3g} > eps {self.eps}"
            elif prev is not None and value > prev + LOSS_RTOL * abs(prev):
                failures[i] = f"loss rose from {prev!r} to {value!r}"
            prev = value
        return failures

    def layer_metrics(self, per_op, results) -> dict[str, float]:
        return fast_layer_metrics(per_op, results, self.n, self.d)


def run_cli(argv: list[str], tr) -> tuple[int, str]:
    """One in-process ``attngrad`` call with stdout captured."""
    out = io.StringIO()
    with tr.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


class CliVerify:
    """Three in-process CLI calls per op: verify on a brute-size
    instance, verify on a mid-size one, and the hardness checks."""

    name = "cli-verify"
    FULL = dict(small=(16, 4), large=(512, 8), B=0.8, hard=(256, 4, 2.0))
    TINY = dict(small=(8, 2), large=(32, 4), B=0.8, hard=(16, 2, 2.0))

    # the hardness command's defaults, replayed by the probes
    FRAC_B, RIEMANN_M, GRID_POINTS, REDUCTION_POINTS = 0.5, 100, 101, 11

    def __init__(self, seed: int, workdir: Path, small, large, B: float, hard):
        self.seed = seed
        self.dirs = []
        for label, (n, d) in (("small", small), ("large", large)):
            out = workdir / label
            code, text = run_cli(["gen", "--n", str(n), "--d", str(d), "--B", str(B),
                                  "--seed", str(seed), "--out", str(out)], NullTracer())
            if code != 0:
                raise RuntimeError(f"attngrad gen failed for {label}: {text}")
            self.dirs.append(out)
        self.hard = hard
        hn, hd, hb = hard
        self.calls = [["verify", "--in", str(path)] for path in self.dirs]
        self.calls.append(["hardness", "--n", str(hn), "--d", str(hd), "--B", str(hb),
                           "--seed", str(seed)])
        self.read_bytes = sum(f.stat().st_size for p in self.dirs for f in p.glob("*.mat"))

    def key(self, i: int):
        return 0

    def op(self, i: int, tr):
        return [run_cli(argv, tr) for argv in self.calls]

    def probe(self, i: int, result, tr) -> None:
        from attngrad.forward import load_instance

        for path in self.dirs:
            for mat in sorted(path.glob("*.mat")):
                stage(tr, "core", "read_matrix", mat)
        small, large = (load_instance(path) for path in self.dirs)
        for inst in (small, large):
            stage(tr, "oracles", "finite_diff_gradient", inst, FD_STEP)
        stage(tr, "oracles", "brute_kron_gradient", small)
        hardness = importlib.import_module("attngrad.hardness")
        n, d, B = self.hard
        hi = hardness.gen_hard_instance(n, d, B, self.FRAC_B, self.seed)
        stage(tr, "hardness", "riemann_reduction", hi, self.RIEMANN_M, self.GRID_POINTS, False)
        fhi, q, k = hardness.factorized_hard_instance(n, d, B, self.seed)
        for lam in np.linspace(0.0, 1.0, self.REDUCTION_POINTS):
            inst = hardness.hard_attention_instance(q, k, fhi.V, lam)
            stage(tr, "hardness", "gradient_to_forward", inst, lam)

    def check(self, done) -> dict[int, str]:
        failures = {}
        for i, outs in done:
            for argv, (code, text) in zip(self.calls, outs):
                try:
                    passed = json.loads(text).get("pass") is True
                except json.JSONDecodeError:
                    passed = False
                if code != 0 or not passed:
                    failures[i] = f"attngrad {argv[0]} {argv[-1]}: exit {code}, pass {passed}"
                    break
        return failures

    def layer_metrics(self, per_op, results) -> dict[str, float]:
        read = median_self_time(per_op, "core.read_matrix")
        return {"core.read_matrix_mb_per_s": self.read_bytes / 1e6 / read if read else 0.0}


WORKLOADS = {w.name: w for w in (ExactDense, FastFresh, FastDescent, CliVerify)}
