"""Structured instances behind the quadratic-time barrier arithmetic.

The lab builds n x n score matrices A with entries in [0, B] where at
least half of each row equals B exactly, pairs them with binary value
matrices, and studies

    f(lambda) = || diag(M 1)^-1 M V ||_F^2,   M = exp(lambda A),

whose derivatives stay bounded on such inputs. Everything checkable is
checked numerically: the analytic first and second derivatives (via
the quotient rule on per-row numerator/denominator sums), the 8 B n
derivative bound, the left-Riemann-sum recovery of f(1) - f(0) from m
derivative samples, and the identity tying f'(lambda) to the trace of
the attention-loss gradient at X = lambda d I.

The per-row exponential sums take exp(lambda A) from ``forward.exp_rows``
under the bound |lambda| B, so rows are rescaled by their maxima where
it is large; the a/b quotients are scale invariant, so results are
unchanged while lambda * B up to a few hundred stays computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import check_finite
from .forward import AttentionInstance, exp_rows
from .gradient import gradient_exact

_ENTRY_SLACK = 1e-12


def _check_bound(B: float) -> None:
    if not 0.0 <= B < math.inf:
        raise ValueError(f"B must be nonnegative and finite, got {B}")


def _check_shape(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValueError(f"n and d must be positive, got n={n}, d={d}")


@dataclass
class HardInstance:
    """Score matrix A (n x n, entries in [0, B]) and binary values V (n x d).

    Generated instances additionally have at least half the entries of
    each row of A equal to B; factorized instances (A = Q K^T) only
    guarantee the range.
    """

    A: np.ndarray
    V: np.ndarray
    B: float

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if self.V.ndim != 2 or self.V.shape[0] != self.A.shape[0]:
            raise ValueError(f"V must have {self.A.shape[0]} rows, got {self.V.shape}")
        _check_shape(*self.V.shape)
        check_finite(self.A, "A")
        _check_bound(self.B)
        lo, hi = self.A.min(), self.A.max()
        if lo < -_ENTRY_SLACK or hi > self.B + _ENTRY_SLACK * (1 + self.B):
            raise ValueError(f"entries of A in [{lo:.3g}, {hi:.3g}] outside [0, {self.B}]")
        if not np.isin(self.V, (0.0, 1.0)).all():
            raise ValueError("V entries must be 0 or 1")


@dataclass
class ReductionReport:
    """Grid data and checks for one Riemann-sum reduction run."""

    lambda_grid: np.ndarray
    fprime_values: np.ndarray
    t_m: float
    f1_minus_f0: float
    bound_b: float
    holds: bool


def gen_hard_instance(
    n: int, d: int, B: float, frac_b: float = 0.5, seed: int = 0,
) -> HardInstance:
    """Sample a hard instance: per row, ceil(frac_b * n) uniformly chosen
    positions are set to B exactly and the rest drawn uniform on [0, B];
    V is iid Bernoulli(1/2). Deterministic under ``seed``."""
    _check_shape(n, d)
    if not 0.5 <= frac_b <= 1.0:
        raise ValueError("frac_b must be in [0.5, 1]")
    _check_bound(B)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, B, (n, n))
    n_fixed = math.ceil(frac_b * n)
    for i in range(n):
        cols = rng.choice(n, size=n_fixed, replace=False)
        a[i, cols] = B
    v = rng.integers(0, 2, (n, d)).astype(np.float64)
    return HardInstance(A=a, V=v, B=B)


def _row_terms(hi: HardInstance, lam: float):
    """Per-row exponential sums, one moment at a time.

    Yields (s_k, t_k) for k = 0, 1, 2, ...: s_k[i, l] is
    sum_{j in S_l} A[i,j]**k * exp(lam*A[i,j] - shift[i]) and t_k[i]
    the same sum over all j; shift[i], 0 or the row max of lam*A as
    ``exp_rows`` decides, cancels in every quotient. Each n x n multiply
    adds a moment, so callers draw only the moments they use.
    """
    # one n x n buffer, scaled by A in place between moments
    w = exp_rows(lam * hi.A, abs(lam) * hi.B)
    while True:
        yield w @ hi.V, w.sum(1)
        w *= hi.A


def f_lambda(hi: HardInstance, lam: float) -> float:
    """f(lambda) = sum_i sum_l (s_l(i) / t(i))**2, the squared Frobenius
    norm of the row-normalized exp(lambda A) times V."""
    s0, t0 = next(_row_terms(hi, lam))
    return float(((s0 / t0[:, None]) ** 2).sum())


def f_lambda_derivative(hi: HardInstance, lam: float) -> tuple[float, float]:
    """Analytic (f'(lambda), f''(lambda)) by the quotient rule on the
    per-row sums a_i = sum_l s_l**2 and b_i = t**2."""
    (s0, t0), (s1, t1), (s2, t2) = islice(_row_terms(hi, lam), 3)
    a = (s0 * s0).sum(1)
    ap = 2.0 * (s0 * s1).sum(1)
    app = 2.0 * (s1 * s1 + s0 * s2).sum(1)
    b = t0 * t0
    bp = 2.0 * t0 * t1
    bpp = 2.0 * (t1 * t1 + t0 * t2)
    fi = a / b
    fpi = (ap * b - a * bp) / (b * b)
    fppi = (app - bpp * fi - 2.0 * bp * fpi) / b
    return float(fpi.sum()), float(fppi.sum())


def riemann_sum(fprime, m: int) -> float:
    """Left Riemann sum sum_{i<m} f'(i/m) / m approximating f(1) - f(0)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return sum(fprime(i / m) for i in range(m)) / m


def riemann_reduction(
    hi: HardInstance, m: int, grid_points: int = 101, strict: bool = True,
) -> ReductionReport:
    """Run the reduction arithmetic: estimate f(1) - f(0) by m averaged
    derivative samples and check |t_m - (f(1) - f(0))| <= bound_b / m,
    with bound_b the grid maximum of |f''| (any valid bound works; the
    empirical grid max is what this artifact can certify)."""
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    # exact quotients, so a Riemann node i / m on the grid is the same float
    grid = [i / max(grid_points - 1, 1) for i in range(grid_points)]
    derivs = {lam: f_lambda_derivative(hi, lam) for lam in grid}
    fprime_vals = np.array([fp for fp, _ in derivs.values()])
    bound_b = float(max(abs(fs) for _, fs in derivs.values()))
    t_m = riemann_sum(lambda lam: (derivs.get(lam) or f_lambda_derivative(hi, lam))[0], m)
    delta = f_lambda(hi, 1.0) - f_lambda(hi, 0.0)
    holds = abs(t_m - delta) <= bound_b / m + 1e-12
    report = ReductionReport(
        lambda_grid=np.array(grid), fprime_values=fprime_vals, t_m=t_m,
        f1_minus_f0=delta, bound_b=bound_b, holds=holds,
    )
    if strict and not holds:
        raise ValueError(
            f"Riemann bound violated: |{t_m:.6g} - {delta:.6g}| > {bound_b:.6g}/{m}"
        )
    return report


def factorized_hard_instance(
    n: int, d: int, B: float, seed: int = 0,
) -> tuple[HardInstance, np.ndarray, np.ndarray]:
    """Hard instance whose score matrix factors as A = Q K^T with Q, K
    entrywise in [0, sqrt(B/d)], so A lands in [0, B]. The exact
    half-the-row-equals-B structure is not enforced here; these feed
    the gradient-to-forward consistency check."""
    _check_shape(n, d)
    _check_bound(B)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(B / d) if B > 0 else 0.0
    q = rng.uniform(0.0, scale, (n, d))
    k = rng.uniform(0.0, scale, (n, d))
    v = rng.integers(0, 2, (n, d)).astype(np.float64)
    return HardInstance(A=q @ k.T, V=v, B=B), q, k


def hard_attention_instance(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, lam: float,
) -> AttentionInstance:
    """Attention instance realizing the hardness f: A1 = Q, A2 = K,
    A3 = V, Y = I, E = 0, X = lambda d I, so the exp argument
    A1 X A2^T / d equals lambda Q K^T and f(lambda) = 2 L(X)."""
    n, d = q.shape
    x = lam * d * np.eye(d)
    bound = max(np.abs(q @ x).max(), np.abs(k).max())
    return AttentionInstance(
        A1=q, A2=k, A3=v, E=np.zeros((n, d)), X=x, Y=np.eye(d), B=bound,
    )


def gradient_to_forward(inst: AttentionInstance, lam: float) -> float:
    """Recover f'(lambda) from the loss gradient of an instance built by
    ``hard_attention_instance`` at ``lam``: with X = lambda d I, Y = I,
    E = 0 one has f(lambda) = 2 L(X(lambda)) and hence
    f'(lambda) = 2 d trace(dL/dX)."""
    if inst.E.any():
        raise ValueError("gradient_to_forward requires E = 0")
    if not np.array_equal(inst.Y, np.eye(inst.d)):
        raise ValueError("gradient_to_forward requires Y = I")
    if not np.array_equal(inst.X, lam * inst.d * np.eye(inst.d)):
        raise ValueError(f"gradient_to_forward requires X = lambda d I at lambda = {lam:.6g}")
    return 2.0 * inst.d * float(np.trace(gradient_exact(inst).G))
