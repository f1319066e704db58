"""Dense matrix primitives shared by every other module.

All arrays are float64 and row-major (C order). Matrices are 2-d numpy
arrays, vectors are 1-d. Reductions go through numpy, whose pairwise
summation gives a fixed, reproducible accumulation order for a fixed
thread count.

Conventions that the rest of the package relies on:

* ``vec`` flattens row by row, so that with the block Kronecker layout
  of :func:`kron` the identity ``vec(A1 @ X @ A2.T) == kron(A1, A2) @ vec(X)``
  holds exactly in exact arithmetic.
* ``row_kronecker`` places column ``(l1, l2)`` of the product at flat
  index ``l1 + l2 * k1``.
"""

from __future__ import annotations

import numpy as np

# kron materializes its result; it exists as a test oracle only
KRON_ENTRY_CAP = 100_000_000


def check_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    """Return ``a`` unchanged, raising if any entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite value in {name}")
    return a


def check_positive(value: float, name: str) -> None:
    """Raise unless the scalar ``value`` is positive and finite."""
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    if np.isinf(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _as_float_array(a, ndim: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    return a


def vec(m) -> np.ndarray:
    """Flatten a matrix row by row into a vector.

    This is the flattening under which the tensor trick
    ``vec(A1 X A2^T) = kron(A1, A2) vec(X)`` holds for :func:`kron`.
    """
    m = _as_float_array(m, 2, "matrix")
    return m.ravel().copy()


def kron(a, b) -> np.ndarray:
    """Kronecker product with the block layout
    ``kron(A, B)[j0*n1 + j1, i0*m1 + i1] = A[j0, i0] * B[j1, i1]``.

    Materializes the full result, so it is capped at ``KRON_ENTRY_CAP``
    entries and intended for verification at small sizes only.
    """
    a = _as_float_array(a, 2, "a")
    b = _as_float_array(b, 2, "b")
    entries = a.shape[0] * a.shape[1] * b.shape[0] * b.shape[1]
    if entries > KRON_ENTRY_CAP:
        raise ValueError(
            f"kron result would have {entries} entries, over the "
            f"{KRON_ENTRY_CAP} cap; kron is an oracle for small sizes only"
        )
    return np.kron(a, b)


def row_kronecker(u1, u2) -> np.ndarray:
    """Row-wise Kronecker product of two matrices with equal row counts.

    For ``u1`` of shape (n, k1) and ``u2`` of shape (n, k2) the result R
    has shape (n, k1*k2) with ``R[i, l1 + l2*k1] = u1[i, l1] * u2[i, l2]``.
    It satisfies ``(U1 @ V1.T) * (U2 @ V2.T) == row_kronecker(U1, U2) @
    row_kronecker(V1, V2).T`` entrywise.
    """
    u1 = _as_float_array(u1, 2, "u1")
    u2 = _as_float_array(u2, 2, "u2")
    if u1.shape[0] != u2.shape[0]:
        raise ValueError(
            f"row count mismatch: {u1.shape[0]} vs {u2.shape[0]}"
        )
    n, k1 = u1.shape
    # index l1 varies fastest: block l2 holds u1 scaled by u2[:, l2]
    return (u2[:, :, None] * u1[:, None, :]).reshape(n, k1 * u2.shape[1])


def write_matrix(m, path) -> None:
    """Write a matrix as text: header ``rows cols``, then one row per line.

    Values are emitted with 17 significant digits so the round trip
    through :func:`read_matrix` is bit exact for finite float64.
    """
    m = _as_float_array(m, 2, "matrix")
    check_finite(m, "matrix")
    with open(path, "w") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read a matrix in the :func:`write_matrix` text format.

    Raises ValueError with the offending line number for malformed
    headers, unparseable or non-finite values, and wrong value counts.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a text matrix file: {exc}") from None
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected 'rows cols' header")
    try:
        rows, cols = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"{path}:1: malformed header {lines[0]!r}, expected 'rows cols'") from None
    if rows <= 0 or cols <= 0:
        raise ValueError(f"{path}:1: dimensions must be positive, got {rows} {cols}")
    try:
        values = np.array("".join(lines[1:]).split(), dtype=np.float64)
        bad = not np.isfinite(values).all()
    except ValueError:
        bad = True
    if bad:
        # numpy parses each token with float(); rescan to name the first bad one
        for lineno, line in enumerate(lines[1:], start=2):
            for tok in line.split():
                try:
                    x = float(tok)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: invalid value {tok!r}") from None
                if not np.isfinite(x):
                    raise ValueError(f"{path}:{lineno}: non-finite value {tok!r}")
    if values.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {values.size}")
    return values.reshape(rows, cols)
