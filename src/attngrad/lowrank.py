"""Near-linear-time approximate gradient via the polynomial method.

exp(t) on t in [-B**2, B**2] is replaced by its degree-g Taylor
polynomial, which factors the attention kernel through a monomial
feature map of rank C(d+g, g): for rows u, w in R^d,

    phi(u) . phi(w) = sum_{l<=g} (u.w / d)^l / l!  ~=  exp(u.w / d).

``lowrank_softmax_factors`` turns this into a rank-k1 factorization
f ~= U1 V1^T of the softmax matrix, and ``gradient_fast`` contracts the
whole gradient chain through U1 and V1 without ever materializing an
n x n or n x k1 (k1 + d) matrix, at cost O(n d**2 k1) and peak memory
O(n k1). The explicit factorizations of the chain's links (q, p1, p2)
live in ``oracles.factor_chain``, as the reference the fused
contraction is checked against.

Degree selection uses the explicit Taylor remainder bound
exp(B**2) (B**2)^(g+1) / (g+1)! rather than an asymptotic formula, so
it is computable and conservative; the entrywise target eps_prime is
derived from the caller's gradient tolerance eps as
eps * exp(-2 B**2) / (8 d), a rule validated empirically against the
exact path (measured end-to-end error sits orders of magnitude below
eps across the tested range). The rank k1 is capped at ``RANK_CAP``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .forward import AttentionInstance, compute_h
from .gradient import GradientResult, _result

# largest feature count C(d+g, g) that select_degree accepts
RANK_CAP = 20000


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


def _monomial_columns(m: np.ndarray, cfg: PolyConfig) -> np.ndarray:
    """Feature matrix with rows phi(m[i, :]).

    Monomials are enumerated by total degree, each built from its
    parent with one elementwise multiply. The coefficient of monomial
    beta is 1 / sqrt(prod(beta_i!) * d**|beta|), folded in
    incrementally: extending by variable j divides by sqrt(c_j * d)
    where c_j is the new exponent of variable j.
    """
    n, d = m.shape
    out = np.empty((n, cfg.m_feat))
    out[:, 0] = 1.0
    # frontier entries: (column index, exponent counts, first extendable var)
    frontier = [(0, [0] * d, 0)]
    next_col = 1
    for _ in range(cfg.g):
        new_frontier = []
        for ci, counts, start in frontier:
            for j in range(start, d):
                cj = counts[j] + 1
                out[:, next_col] = out[:, ci] * m[:, j] * (1.0 / math.sqrt(cj * d))
                new_frontier.append((next_col, counts[:j] + [cj] + counts[j + 1:], j))
                next_col += 1
        frontier = new_frontier
    assert next_col == cfg.m_feat
    return out


def feature_map(v: np.ndarray, cfg: PolyConfig) -> np.ndarray:
    """Monomial feature map phi: R^d -> R^m_feat with
    phi(u) . phi(w) = sum_{l<=g} (u.w / d)^l / l!."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != cfg.d:
        raise ValueError(f"expected length-{cfg.d} vector, got shape {v.shape}")
    return _monomial_columns(v[None, :], cfg)[0]


def default_eps_prime(eps: float, B: float, d: int) -> float:
    """Entrywise exp-approximation target for a gradient tolerance eps."""
    return eps * math.exp(-2.0 * B * B) / (8.0 * d)


def effective_bound(inst: AttentionInstance) -> float:
    """sqrt(max|A1 X| * max|A2|) <= B bounds the actual exp arguments;
    using it instead of B shrinks the degree when X is small (and makes
    X = 0 instances exactly rank one)."""
    a1x = np.abs(inst.A1 @ inst.X).max()
    a2 = np.abs(inst.A2).max()
    return float(np.sqrt(a1x * a2))


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
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    b_eff = effective_bound(inst)
    eps_prime = default_eps_prime(eps, b_eff, inst.d)
    if eps_prime == 0.0:
        raise ValueError(
            f"effective B={b_eff:.6g} is too large for the fast path: its entrywise "
            "target underflows to 0; reduce B or use gradient_exact"
        )
    cfg = select_degree(b_eff, eps_prime, inst.d)
    u_raw = _monomial_columns(inst.A1 @ inst.X, cfg)
    v1 = _monomial_columns(inst.A2, cfg)
    alpha = u_raw @ v1.sum(axis=0)
    if (alpha <= 0.0).any():
        raise ValueError("approximation destroyed row sums; decrease eps_prime")
    return u_raw / alpha[:, None], v1, cfg


def gradient_fast(inst: AttentionInstance, eps: float) -> GradientResult:
    """Approximate gradient from the factored chain, no n x n matrix.

    Writing ft = U1 V1^T for the softmax approximation, ct = ft h - E,
    and r_j = <ft_j, (ct h^T)_j>, the two gradient pieces are

        A1^T (ft * (ct h^T)) A2
            = sum_i (A1 * ct[:, i])^T U1 . V1^T (A2 * h[:, i])
        A1^T diag(r) ft A2
            = (A1^T (r * U1)) (V1^T A2)

    where ``*`` scales columns. Both distribute over the rank-k1
    factors, so the cost is O(n d**2 k1) and peak memory O(n k1).
    """
    t0 = time.perf_counter()
    u1, v1, cfg = lowrank_softmax_factors(inst, eps)
    d = inst.d
    h = compute_h(inst.A3, inst.Y)
    w = v1.T @ h                      # k1 x d
    z = u1 @ w                        # n x d, the approximate forward f~ h
    c = z - inst.E
    r = (c * z).sum(axis=1)           # row dots <f~_j, q~_j>
    g1 = np.zeros((d, d))
    for i in range(d):
        left = (inst.A1 * c[:, i:i + 1]).T @ u1      # d x k1
        right = v1.T @ (inst.A2 * h[:, i:i + 1])     # k1 x d
        g1 += left @ right
    g2 = (inst.A1.T @ (u1 * r[:, None])) @ (v1.T @ inst.A2)
    G = (g1 - g2) / d
    k1 = cfg.m_feat
    info = {
        "degree": cfg.g,
        "eps_prime": cfg.eps_prime,
        "effective_B": cfg.B,
        "k1": k1, "k2": k1 + d, "k3": k1 * (k1 + d), "k4": k1,
    }
    return _result(G, "fast", t0, info)
