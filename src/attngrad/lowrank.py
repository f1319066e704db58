"""Near-linear-time approximate gradient via the polynomial method.

exp(t) on t in [-B**2, B**2] is replaced by its degree-g Taylor
polynomial, which factors the attention kernel through a monomial
feature map of rank C(d+g, g): for rows u, w in R^d,

    phi(u) . phi(w) = sum_{l<=g} (u.w / d)^l / l!  ~=  exp(u.w / d).

``gradient_fast`` never forms the rank-k1 factors of the softmax
matrix: it reduces the key side once to a k1 x (d+1)**2 sum, then
streams query rows in blocks, at cost O(n d**2 k1) and memory
O(n d + k1 d**2 + FEATURE_ENTRIES). Its reference is
``oracles.taylor_gradient``, the exact chain on the dense kernel
P_g(A1 X A2^T / d), which it matches to rounding at the same degree.

Degree selection, for the effective B = sqrt(T) of the score bound T
that ``AttentionInstance`` measures (X = 0 gives rank one), uses the
Taylor remainder bound exp(B**2) (B**2)^(g+1) / (g+1)!, computable and
conservative, against the entrywise target
eps_prime = eps * exp(-2 B**2) / (8 d) for a gradient tolerance eps
(measured end-to-end error sits orders of magnitude below eps); a target
below float64 rounding at e^T is refused. k1 is capped at ``RANK_CAP``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import check_positive, row_kronecker
from .forward import AttentionInstance
from .gradient import GradientResult, _result

# largest feature count C(d+g, g) that select_degree accepts
RANK_CAP = 20000

# entries held by one block of gradient_fast (16 MB of float64): within
# 10% of the fastest of 1 << 19 .. 1 << 22 at k1 = 495, 3003 and 12870
FEATURE_ENTRIES = 1 << 21


@dataclass
class PolyConfig:
    """Taylor approximation of exp on [-B**2, B**2].

    ``g`` is the polynomial degree, ``m_feat = C(d+g, g)`` the number of
    monomials in d variables of degree at most g, i.e. the rank of the
    induced kernel factorization.
    """

    B: float
    eps_prime: float
    g: int
    d: int
    m_feat: int


def taylor_remainder(B: float, g: int) -> float:
    """Upper bound on |exp(t) - P_g(t)| over |t| <= B**2."""
    t = B * B
    return math.exp(t) * t ** (g + 1) / math.factorial(g + 1)


def select_degree(B: float, eps_prime: float, d: int) -> PolyConfig:
    """Smallest degree g whose Taylor remainder on [-B**2, B**2] is at
    most ``eps_prime``; errors out if the monomial count C(d+g, g)
    would exceed ``RANK_CAP``."""
    if B < 0.0 or eps_prime <= 0.0:
        raise ValueError("need B >= 0 and eps_prime > 0")
    if d < 1:
        raise ValueError("d must be positive")
    g = 0
    while taylor_remainder(B, g) > eps_prime:
        g += 1
        if math.comb(d + g, g) > RANK_CAP:
            raise ValueError(
                f"rank blowup: degree {g} needs {math.comb(d + g, g)} features "
                f"(cap {RANK_CAP}); reduce B or relax eps"
            )
    return PolyConfig(B=B, eps_prime=eps_prime, g=g, d=d, m_feat=math.comb(d + g, g))


def _features(m: np.ndarray, cfg: PolyConfig) -> np.ndarray:
    """phi(m[i, :]) for every row i, as the columns of a contiguous
    m_feat x rows array.

    Monomial beta has coefficient 1 / sqrt(prod(beta_i!) d**|beta|), a
    product of per-variable factors x**e / sqrt(e! d**e). Each degree
    level is ordered by last variable j, so the monomials in which j
    has exponent e are a prefix of level - e (those whose variables all
    precede j) times one factor: one multiply per (level, j, e).
    """
    mt = np.ascontiguousarray(m.T)
    psi = [np.ones_like(mt)]
    for e in range(1, cfg.g + 1):
        psi.append(psi[-1] * mt * (1.0 / math.sqrt(e * cfg.d)))
    out = np.empty((cfg.m_feat, mt.shape[1]))
    out[0] = 1.0
    # start[l]: first row of level l; before[l][j]: its monomials in variables < j
    start, before, top = [0], [[1] * cfg.d], 1
    for level in range(1, cfg.g + 1):
        start.append(top)
        before.append([])
        for j in range(cfg.d):
            before[level].append(top - start[level])
            for e in range(1, level + 1):
                lo, p = start[level - e], before[level - e][j]
                np.multiply(out[lo:lo + p], psi[e][j], out=out[top:top + p])
                top += p
    return out


def feature_map(v: np.ndarray, cfg: PolyConfig) -> np.ndarray:
    """Monomial feature map phi: R^d -> R^m_feat with
    phi(u) . phi(w) = sum_{l<=g} (u.w / d)^l / l!."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != cfg.d:
        raise ValueError(f"expected length-{cfg.d} vector, got shape {v.shape}")
    return _features(v[None, :], cfg)[:, 0]


def default_eps_prime(eps: float, B: float, d: int) -> float:
    """Entrywise exp-approximation target for a gradient tolerance eps."""
    return eps * math.exp(-2.0 * B * B) / (8.0 * d)


def _poly_config(inst: AttentionInstance, eps: float) -> PolyConfig:
    """Degree and rank of the fast path at gradient tolerance eps, for
    B = sqrt(T); refused where 3T > log(eps / (8d 2^-52)), taken in logs."""
    check_positive(eps, "eps")
    b_eff = math.sqrt(inst.score_bound)
    if 3.0 * inst.score_bound > math.log(eps / (8.0 * inst.d * 2.0 ** -52)):
        raise ValueError(
            f"effective B={b_eff:.6g} is too large for the fast path: its entrywise "
            "target lies below float64 rounding; reduce B or use gradient_exact")
    return select_degree(b_eff, default_eps_prime(eps, b_eff, inst.d), inst.d)


def gradient_fast(inst: AttentionInstance, eps: float) -> GradientResult:
    """Approximate gradient from the factored chain, no n x n matrix.

    With ft = diag(alpha)^-1 phi(A1 X) phi(A2)^T, z = ft h, ct = z - E
    and r_j = <ct_j, z_j>, the gradient is A1^T pa / d where

        pa_j = sum_i ct_ji ft_j (h[:, i] * A2) - r_j ft_j A2.

    The key side enters only through R = phi(A2)^T ([1 | h] (row-kron)
    [1 | A2]), k1 x (d+1)**2, reduced once; phi((A1 X)_J) R then gives
    alpha, z, ft A2 and the ft (h * A2) sums for a block J of query
    rows. Blocks hold at most ``FEATURE_ENTRIES`` entries: the cost is
    O(n d**2 k1), the memory O(n d + k1 d**2 + FEATURE_ENTRIES) and
    ``info["loss"]`` 0.5 ||ct||_F^2."""
    t0 = time.perf_counter()
    cfg = _poly_config(inst, eps)
    n, d, w = inst.n, inst.d, inst.d + 1
    hh = np.hstack([np.ones((n, 1)), inst.A3 @ inst.Y])
    aa = np.hstack([np.ones((n, 1)), inst.A2])
    step = max(1, FEATURE_ENTRIES // (cfg.m_feat + w * w))
    blocks = [slice(start, start + step) for start in range(0, n, step)]
    R = sum(_features(inst.A2[b], cfg) @ row_kronecker(aa[b], hh[b]) for b in blocks)
    del hh, aa
    a1x, pa, sq = inst.A1 @ inst.X, np.empty((n, d)), 0.0
    for b in blocks:
        u = (_features(a1x[b], cfg).T @ R).reshape(-1, w, w)
        if (u[:, 0, 0] <= 0.0).any():
            raise ValueError("approximation destroyed row sums; decrease eps or use gradient_exact")
        u /= u[:, :1, :1]
        z, m, t = u[:, 1:, 0], u[:, 0, 1:], u[:, 1:, 1:]
        c = z - inst.E[b]
        pa[b] = np.matmul(c[:, None, :], t)[:, 0] - (c * z).sum(axis=1)[:, None] * m
        sq += float((c * c).sum())
        del u, z, m, t          # free this block before the next one is built
    info = {"degree": cfg.g, "eps_prime": cfg.eps_prime, "effective_B": cfg.B,
            "k1": cfg.m_feat, "loss": 0.5 * sq}
    return _result(inst.A1.T @ pa / d, "fast", t0, info)
