"""Forward attention evaluation for one layer.

Given query/key/value-side matrices A1, A2, A3 (n x d), targets E,
and square weights X, Y (d x d), the forward map is

    out = f(X) @ h(Y),   f(X) = softmax rows of exp(A1 X A2^T / d),
                         h(Y) = A3 Y,

and the training objective is L(X) = 0.5 * ||f(X) h(Y) - E||_F^2.

The production softmax, ``softmax_blocks``, streams f in row blocks of
at most ``BLOCK_ENTRIES`` entries, unnormalized: each block is
e = exp_rows(scores, T) with its row sums alpha, so f = e / alpha and
any entry bound B >= 0 is computable in O(n d + BLOCK_ENTRIES) memory.
T is the score bound an immutable ``AttentionInstance`` measures once
(``loss`` validates an override X as a new instance); ``exp_rows`` owns
the one exp-shift rule, shared with the hardness lab. All blocks share
one buffer. ``forward`` writes (e h) / alpha and never normalizes e.
``compute_exp_matrix`` and ``compute_softmax`` build the dense,
unshifted references the tests and the brute-force oracle use.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .core import check_finite, read_matrix, write_matrix

# exp(x) overflows float64 just above x = 709.78
EXP_LIMIT = 709.0

# score bound T up to which exp needs no row-max shift: entries lie in
# [e^-T, e^T], and every later product keeps 10^250 of float64 headroom
SHIFT_FREE_BOUND = 64.0

# entries of the score block softmax_blocks reuses (512 KB of float64);
# chosen by speed at n = 1024..8192, where 1 << 15 and 1 << 17 were slower
BLOCK_ENTRIES = 1 << 16

# slack for the B-bound checks: instances generated by rescaling sit
# exactly on the bound up to rounding
_BOUND_SLACK = 1e-9

_MATRIX_FILES = ("A1", "A2", "A3", "E", "X", "Y")


@dataclass(frozen=True)
class AttentionInstance:
    """One attention optimization problem, immutable once validated.

    A1, A2, A3, E are n x d (n, d >= 1); X, Y are d x d; B bounds both
    ``max|A1 @ X|`` and ``max|A2|``. Their product, measured here as
    ``score_bound`` T <= B**2, bounds every |entry| of ``A1 X A2^T / d``.
    """

    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    E: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    B: float
    score_bound: float = field(init=False)

    def __post_init__(self):
        for name in _MATRIX_FILES:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2:
                raise ValueError(f"{name} must be a matrix, got shape {arr.shape}")
            check_finite(arr, name)
            object.__setattr__(self, name, arr)
        n, d = self.A1.shape
        if n < 1 or d < 1:
            raise ValueError(f"A1 has shape {self.A1.shape}; n and d must be positive")
        for name in ("A2", "A3", "E"):
            if getattr(self, name).shape != (n, d):
                raise ValueError(
                    f"{name} has shape {getattr(self, name).shape}, expected {(n, d)}"
                )
        for name in ("X", "Y"):
            if getattr(self, name).shape != (d, d):
                raise ValueError(
                    f"{name} has shape {getattr(self, name).shape}, expected {(d, d)}"
                )
        if not self.B >= 0.0:
            raise ValueError(f"entry bound B={self.B} must be nonnegative")
        if not np.isfinite(d * self.B * self.B):
            raise ValueError(f"score bound d*B**2 overflows float64 at B={self.B:.6g}; reduce B")
        tol = self.B + _BOUND_SLACK * (1.0 + self.B)
        a1x = np.abs(self.A1 @ self.X).max()
        if a1x > tol:
            raise ValueError(f"max|A1 @ X| = {a1x:.6g} exceeds B = {self.B:.6g}")
        a2 = np.abs(self.A2).max()
        if a2 > tol:
            raise ValueError(f"max|A2| = {a2:.6g} exceeds B = {self.B:.6g}")
        object.__setattr__(self, "score_bound", float(a1x * a2))

    @property
    def n(self) -> int:
        return self.A1.shape[0]

    @property
    def d(self) -> int:
        return self.A1.shape[1]


def compute_exp_matrix(inst: AttentionInstance) -> np.ndarray:
    """The n x n matrix exp(A1 X A2^T / d), entrywise and unshifted:
    the dense reference for ``softmax_blocks``.

    With a valid instance every entry lies in [exp(-B**2), exp(B**2)],
    so a B**2 past ``EXP_LIMIT`` overflows float64 and is refused.
    """
    s = inst.A1 @ inst.X @ inst.A2.T / inst.d
    if s.max() > EXP_LIMIT:
        raise ValueError("entry magnitude exceeds float64 exp range")
    return np.exp(s)


def compute_softmax(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize a positive matrix: returns (f, alpha) with
    alpha = row sums of m and f = diag(alpha)^-1 m."""
    with np.errstate(over="ignore"):   # an overflow is refused just below
        alpha = np.asarray(m, dtype=np.float64).sum(axis=1)
    if not np.isfinite(alpha).all():
        raise ValueError(
            "softmax row sum is not finite (float64 overflow); reduce the entry bound B"
        )
    if (alpha <= 0.0).any():
        raise ValueError("nonpositive row sum in softmax normalization")
    return m / alpha[:, None], alpha


def exp_rows(w: np.ndarray, bound: float) -> np.ndarray:
    """exp(w) in place for scores w in [-bound, bound]: entries lie in
    [e^-bound, e^bound] up to ``SHIFT_FREE_BOUND``; above it each row is
    first shifted by its maximum to 0, which cancels in every quotient."""
    if bound > SHIFT_FREE_BOUND:
        w -= w.max(axis=1, keepdims=True)
    return np.exp(w, out=w)


def softmax_blocks(inst: AttentionInstance):
    """Yield ``(rows, e, alpha)`` over consecutive row slices of the
    softmax matrix f(X), ``max(1, BLOCK_ENTRIES // n)`` rows at a time,
    with ``f[rows] = e / alpha``.

    ``e`` is ``exp_rows`` of (A1 X / d)[rows] A2^T with the bound
    ``inst.score_bound``, ``alpha`` its row sums as a column. ``e`` is
    one buffer that the next block overwrites: use it first.
    """
    n = inst.n
    a1x = inst.A1 @ inst.X / inst.d
    a2t = np.ascontiguousarray(inst.A2.T)
    step = max(1, BLOCK_ENTRIES // n)
    buf = np.empty((min(step, n), n))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        e = exp_rows(np.matmul(a1x[rows], a2t, out=buf[:rows.stop - start]), inst.score_bound)
        yield rows, e, e.sum(axis=1, keepdims=True)


def value_operands(inst: AttentionInstance) -> np.ndarray:
    """[h | 1]^T, h = A3 Y, contiguous (d + 1) x n for the block GEMMs;
    ``forward`` and ``gradient_exact`` both take h as ``h1t[:d].T``."""
    return np.vstack((inst.Y.T @ inst.A3.T, np.ones(inst.n)))


def forward(inst: AttentionInstance) -> np.ndarray:
    """One attention layer: f(X) @ h(Y), an n x d matrix."""
    h = value_operands(inst)[:inst.d].T
    out = np.empty((inst.n, inst.d))
    for rows, e, alpha in softmax_blocks(inst):
        out[rows] = (e @ h) / alpha
    return out


def loss(
    inst: AttentionInstance, x_override: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Loss L(X) = 0.5 ||f h - E||_F^2 and the residual c = f h - E; an
    override X is validated as a new instance with B >= max|A1 X|."""
    if x_override is not None:
        inst = replace(inst, X=x_override, B=max(inst.B, np.abs(inst.A1 @ x_override).max()))
    c = forward(inst) - inst.E
    return 0.5 * float((c * c).sum()), c


def random_instance(
    n: int, d: int, B: float, seed: int, noise_sigma: float = 0.1,
) -> AttentionInstance:
    """Sample a bounded instance: A1, A2, A3, Y iid uniform [-1, 1], A2
    rescaled to max|A2| = B, X rescaled to max|A1 X| = B, and E set to
    the forward output plus Gaussian noise so gradients are nonzero.

    B = 0 forces X = 0 and A2 = 0. Deterministic under ``seed``.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if not np.isfinite(B):
        raise ValueError(f"B must be finite, got {B}")
    if not np.isfinite(noise_sigma):
        raise ValueError(f"noise_sigma must be finite, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    a1 = rng.uniform(-1.0, 1.0, (n, d))
    a2 = rng.uniform(-1.0, 1.0, (n, d))
    a3 = rng.uniform(-1.0, 1.0, (n, d))
    x = rng.uniform(-1.0, 1.0, (d, d))
    y = rng.uniform(-1.0, 1.0, (d, d))
    if B == 0.0:
        a2 = np.zeros_like(a2)
        x = np.zeros_like(x)
    else:
        a2 *= B / np.abs(a2).max()
        scale = np.abs(a1 @ x).max()
        if scale == 0.0:
            raise ValueError("degenerate sample: A1 @ X vanished")
        x *= B / scale
    inst = AttentionInstance(A1=a1, A2=a2, A3=a3, E=np.zeros((n, d)), X=x, Y=y, B=B)
    return replace(inst, E=forward(inst) + noise_sigma * rng.standard_normal((n, d)))


def save_instance(inst: AttentionInstance, out_dir, meta: dict | None = None) -> None:
    """Write A1.mat ... Y.mat plus meta.json into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    for name in _MATRIX_FILES:
        write_matrix(getattr(inst, name), os.path.join(out_dir, f"{name}.mat"))
    record = {"n": inst.n, "d": inst.d, "B": inst.B}
    if meta:
        record.update(meta)
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(in_dir) -> AttentionInstance:
    """Load an instance directory written by :func:`save_instance`,
    revalidating every invariant, including the ``n``/``d`` that
    ``meta.json`` records against the shape of A1."""
    meta_path = os.path.join(in_dir, "meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except ValueError as exc:      # JSONDecodeError and UnicodeDecodeError alike
        raise ValueError(f"{meta_path}: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object")
    if "B" not in meta:
        raise ValueError(f"{meta_path}: missing key 'B' (the entry bound)")
    try:
        bound = float(meta["B"])
    except (TypeError, ValueError):
        raise ValueError(f"{meta_path}: key 'B' must be a number, got {meta['B']!r}") from None
    mats = {name: read_matrix(os.path.join(in_dir, f"{name}.mat")) for name in _MATRIX_FILES}
    recorded = (meta.get("n"), meta.get("d"))
    if recorded != mats["A1"].shape:
        raise ValueError(f"{meta_path}: records n, d = {recorded} but A1.mat "
                         f"has shape {mats['A1'].shape}")
    return AttentionInstance(B=bound, **mats)
