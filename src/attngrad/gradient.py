"""Closed-form exact gradient of the attention loss with respect to X.

The chain is

    c = f h - E                             (n x d residual)
    q = c h^T                               (n x n)
    p_j = f_j * q_j - <f_j, q_j> f_j        (row j of p, in O(n))
    dL/dx = (1/d) vec(A1^T p A2)            (length d**2)

evaluated one row block of ``forward.softmax_blocks`` at a time: each
block J forms c_J, q_J and p_J and adds A1_J^T (p_J A2) to the sum, so
the cost is O(n**2 d) time and O(n d + BLOCK_ENTRIES) memory, and the
d**2-wide lift A1 (x) A2 is never materialized. Its independent
references are the finite-difference and brute-force oracles in
``oracles``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import check_finite, vec
from .forward import AttentionInstance, softmax_blocks


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
    """Exact gradient (1/d) vec(A1^T p A2) via the row-blocked c/q/p chain."""
    t0 = time.perf_counter()
    h = inst.A3 @ inst.Y
    G = np.zeros((inst.d, inst.d))
    for rows, f in softmax_blocks(inst):
        c = f @ h - inst.E[rows]
        G += inst.A1[rows].T @ (compute_p(f, c @ h.T) @ inst.A2)
    return _result(G / inst.d, "exact", t0)
