"""Closed-form exact gradient of the attention loss with respect to X.

The chain is

    c = f h - E                             (n x d residual)
    q = c h^T                               (n x n)
    p_j = f_j * q_j - <f_j, q_j> f_j        (row j of p, in O(n))
    dL/dx = (1/d) vec(A1^T p A2)            (length d**2)

which costs two n x d x n products plus O(n^2) elementwise work; the
d**2-wide lift A1 (x) A2 is never materialized. This is the dense
production path; its independent references are the finite-difference
and brute-force oracles in ``oracles``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import check_finite, vec
from .forward import AttentionInstance, softmax_cache


@dataclass
class GradientResult:
    """A gradient in both vector (length d**2) and matrix (d x d) form."""

    g: np.ndarray
    G: np.ndarray
    method: str
    elapsed_seconds: float
    info: dict = field(default_factory=dict)


def _result(G: np.ndarray, method: str, t0: float, info: dict | None = None) -> GradientResult:
    check_finite(G, "gradient")
    return GradientResult(
        g=vec(G), G=G, method=method,
        elapsed_seconds=time.perf_counter() - t0, info=info or {},
    )


def compute_q(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """q = c h^T; row j0 is the h-weighted combination sum_i0 c[j0,i0] h[:,i0]."""
    c = np.asarray(c, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if c.shape != h.shape:
        raise ValueError(f"compute_q: shape mismatch {c.shape} vs {h.shape}")
    return c @ h.T


def compute_p(f: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Apply the softmax Jacobian rowwise:
    p[j] = (diag(f_j) - f_j f_j^T) q_j = f_j * (q_j - <f_j, q_j>).

    Each row of the result sums to zero analytically.
    """
    f = np.asarray(f, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if f.shape != q.shape:
        raise ValueError(f"compute_p: shape mismatch {f.shape} vs {q.shape}")
    s = (f * q).sum(axis=1)
    return f * (q - s[:, None])


def gradient_exact(inst: AttentionInstance) -> GradientResult:
    """Exact gradient (1/d) vec(A1^T p A2) via the dense c/q/p chain."""
    t0 = time.perf_counter()
    cache = softmax_cache(inst)
    c = cache.f @ cache.h - inst.E
    q = compute_q(c, cache.h)
    p = compute_p(cache.f, q)
    G = (inst.A1.T @ p @ inst.A2) / inst.d
    return _result(G, "exact", t0)
