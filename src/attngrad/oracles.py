"""Independent references for both gradient chains.

Two oracles for the exact chain:

* central finite differences of the shipped ``loss``, the canonical
  check for any analytic gradient;
* a brute-force evaluation that shares no code with the exact chain: it
  takes f from the dense, unshifted reference softmax and assembles the
  gradient from the per-coordinate derivative formula over explicit
  n x d**2 blocks of the lifted matrix (A1 (x) A2) / d.

Both are deliberately slow and capped to small instances. For the
low-rank chain, ``taylor_gradient`` runs the exact chain on dense n x n
matrices (``compute_softmax``, ``compute_p``) with exp replaced by its
degree-g Taylor polynomial. ``gradient_fast`` evaluates that same
function through a rank-k1 factorization, so at its own degree the two
agree to rounding. It shares no code with ``lowrank``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import check_positive, kron
from .forward import AttentionInstance, compute_exp_matrix, compute_softmax, loss
from .gradient import GradientResult, _result, compute_p

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


def taylor_gradient(inst: AttentionInstance, g: int) -> GradientResult:
    """A1^T compute_p(ft, c h^T) A2 / d with ft the softmax rows of the
    dense kernel P_g(A1 X A2^T / d) and c = ft h - E; ``info["loss"]``
    is 0.5 ||c||_F^2. O(n**2 (d + g)) time and O(n**2) memory."""
    if g < 0:
        raise ValueError(f"degree g must be nonnegative, got {g}")
    t0 = time.perf_counter()
    s = inst.A1 @ inst.X @ inst.A2.T / inst.d
    f, _ = compute_softmax(sum(s ** l / math.factorial(l) for l in range(g + 1)))
    h = inst.A3 @ inst.Y
    c = f @ h - inst.E
    G = inst.A1.T @ compute_p(f, c @ h.T) @ inst.A2 / inst.d
    return _result(G, "taylor", t0, {"loss": 0.5 * float((c * c).sum())})
