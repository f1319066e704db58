"""Closed-form exact gradient of the attention loss with respect to X.

The chain is

    c = f h - E                             (n x d residual)
    q = c h^T                               (n x n)
    p_j = f_j * q_j - <f_j, q_j> f_j        (row j of p, in O(n))
    dL/dx = (1/d) vec(A1^T p A2)            (length d**2)

``compute_p`` is this formula as written, kept as the reference.
``gradient_exact`` applies it fused over the unnormalized row blocks
(e, alpha) of ``forward.softmax_blocks``, f_J = e / alpha, and never
forms f or f * q:

    z = (e h) / alpha                       (f h, as ``forward`` writes it)
    c = z - E_J
    s_j = <f_j, q_j> = c_j . z_j            (n x d work, not n x n)
    q - s = [c | -s] [h | 1]^T              (one GEMM with k = d + 1)
    G += A1_J^T (((q - s) * e) A2 / alpha)

That is four skinny GEMMs (scores, e h, q - s, p A2) plus the exp and
multiply passes per block (and a row-max pass above the score bound):
O(n**2 d) time and O(n d + BLOCK_ENTRIES) memory in two reused block
buffers, scores and q. The d**2-wide lift A1 (x) A2 is never
materialized. Its independent references are the finite-difference
and brute-force oracles in ``oracles``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import check_finite, vec
from .forward import AttentionInstance, softmax_blocks, value_operands


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

    This is the reference formula that ``gradient_exact`` applies in
    fused form. Each row of the result sums to zero analytically.
    """
    f = np.asarray(f, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if f.shape != q.shape:
        raise ValueError(f"compute_p: shape mismatch {f.shape} vs {q.shape}")
    s = (f * q).sum(axis=1)
    return f * (q - s[:, None])


def gradient_exact(inst: AttentionInstance) -> GradientResult:
    """Exact gradient (1/d) vec(A1^T p A2), ``compute_p`` fused over the
    unnormalized row blocks of ``softmax_blocks``."""
    t0 = time.perf_counter()
    h1t = value_operands(inst)
    h = h1t[:inst.d].T
    G = np.zeros((inst.d, inst.d))
    qbuf = None
    for rows, e, alpha in softmax_blocks(inst):
        if qbuf is None:   # the first block is the largest
            qbuf = np.empty_like(e)
        z = (e @ h) / alpha
        c = z - inst.E[rows]
        cs = np.column_stack((c, -(c * z).sum(axis=1)))
        q = np.matmul(cs, h1t, out=qbuf[:len(e)])
        q *= e
        G += inst.A1[rows].T @ ((q @ inst.A2) / alpha)
    return _result(G / inst.d, "exact", t0)
