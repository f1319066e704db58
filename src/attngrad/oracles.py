"""Independent references for both gradient chains.

Two oracles for the exact chain:

* central finite differences of the shipped ``loss``, the canonical
  check for any analytic gradient;
* a brute-force evaluation that shares no code with the exact chain: it
  takes f from the dense, unshifted reference softmax and assembles the
  gradient from the per-coordinate derivative formula over explicit
  n x d**2 blocks of the lifted matrix (A1 (x) A2) / d.

Both are deliberately slow and capped to small instances. For the
low-rank chain, ``lowrank_softmax_factors`` builds the explicit rank-k1
softmax factors and ``factor_chain`` the factorization of every link
from them, op by op: the reference for the fused contraction in
``gradient_fast``.
"""

from __future__ import annotations

import time

import numpy as np

from .core import check_positive, kron, row_kronecker
from .forward import AttentionInstance, compute_exp_matrix, compute_softmax, loss
from .gradient import GradientResult, _result
from .lowrank import PolyConfig, _features, _poly_config

# brute path is O(n**2 d**3); keep it honest about its intended scale
BRUTE_N_CAP = 16
BRUTE_D_CAP = 4

DEFAULT_FD_STEP = 1e-4


def finite_diff_gradient(
    inst: AttentionInstance, step: float = DEFAULT_FD_STEP,
) -> GradientResult:
    """Central-difference gradient: (L(X + s E_i) - L(X - s E_i)) / 2s
    for each of the d**2 coordinates of X (row-major order, matching
    ``vec``)."""
    check_positive(step, "step")
    t0 = time.perf_counter()
    d = inst.d
    g = np.empty(d * d)
    for i in range(d * d):
        pert = np.zeros((d, d))
        pert.flat[i] = step
        lp, _ = loss(inst, inst.X + pert)
        lm, _ = loss(inst, inst.X - pert)
        g[i] = (lp - lm) / (2.0 * step)
    return _result(g.reshape(d, d), "finite_diff", t0)


def brute_kron_gradient(
    inst: AttentionInstance, max_n: int = BRUTE_N_CAP, max_d: int = BRUTE_D_CAP,
) -> GradientResult:
    """Sum the per-term derivative formula over all (j0, i0) with the
    j0-th lifted block materialized via ``kron`` one row at a time.

    Never forms the full n**2 x d**2 matrix; still O(n**2 d**3).
    """
    n, d = inst.n, inst.d
    if n > max_n or d > max_d:
        raise ValueError(
            f"brute oracle capped at n<={max_n}, d<={max_d}; got n={n}, d={d}"
        )
    t0 = time.perf_counter()
    f, _ = compute_softmax(compute_exp_matrix(inst))
    h = inst.A3 @ inst.Y
    c = f @ h - inst.E
    g = np.zeros(d * d)
    for j0 in range(n):
        block = kron(inst.A1[j0:j0 + 1, :], inst.A2) / d    # n x d**2
        f_row = f[j0]
        bf = block.T @ f_row                                 # <col_i, f> for all i
        for i0 in range(d):
            h_col = h[:, i0]
            term = block.T @ (f_row * h_col) - bf * (h_col @ f_row)
            g += c[j0, i0] * term
    return _result(g.reshape(d, d), "brute_kron", t0)


def lowrank_softmax_factors(
    inst: AttentionInstance, eps: float,
) -> tuple[np.ndarray, np.ndarray, PolyConfig]:
    """Rank-k1 factorization U1 V1^T of the softmax matrix f, returned
    as ``(U1, V1, config)``.

    Rows of the unnormalized left factor are phi((A1 X)_j); rows of V1
    are phi((A2)_j); the row sums of the approximate kernel normalize
    U1, so rows of U1 V1^T sum to one exactly up to rounding. Never
    touches an n x n matrix.
    """
    cfg = _poly_config(inst, eps)
    u_raw = _features(inst.A1 @ inst.X, cfg).T
    v1 = _features(inst.A2, cfg).T
    alpha = u_raw @ v1.sum(axis=0)
    if (alpha <= 0.0).any():
        raise ValueError("approximation destroyed row sums; decrease eps or use gradient_exact")
    return u_raw / alpha[:, None], v1, cfg


def factor_chain(
    u1: np.ndarray, v1: np.ndarray, h: np.ndarray, E: np.ndarray,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Factor pairs (U, V) with target ~= U V^T for every link of the
    gradient chain, from softmax factors f ~= U1 V1^T:

        q   U2 = [U1 | -E],        V2 = [h W^T | h],  W = V1^T h
        p1  U3 = U1 (row-kron) U2, V3 = V1 (row-kron) V2   (f * q)
        p2  U4 = diag(r) U1,       V4 = V1,  r_j = <f_j, q_j>

    The p1 pair has rank k1 (k1 + d), so this suits small ranks only.
    """
    w = v1.T @ h
    u2 = np.hstack([u1, -E])
    v2 = np.hstack([h @ w.T, h])
    r = ((u1 @ (v1.T @ v2)) * u2).sum(axis=1)
    return {
        "f": (u1, v1),
        "q": (u2, v2),
        "p1": (row_kronecker(u1, u2), row_kronecker(v1, v2)),
        "p2": (r[:, None] * u1, v1),
    }
