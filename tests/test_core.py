"""Tensor-core primitives: flattening conventions, Kronecker layouts,
and the text matrix format."""

import numpy as np
import pytest

from attngrad.core import (
    KRON_ENTRY_CAP,
    kron,
    read_matrix,
    row_kronecker,
    vec,
    write_matrix,
)


def test_vec_flattens_rows():
    assert vec([[1, 2], [3, 4]]).tolist() == [1, 2, 3, 4]


def test_tensor_trick():
    # vec(A1 X A2^T) = kron(A1, A2) vec(X); this identity pins both the
    # row-major vec convention and the kron block layout
    rng = np.random.default_rng(1)
    for n in (1, 3, 8):
        for d in (1, 2, 3):
            a1 = rng.standard_normal((n, d))
            a2 = rng.standard_normal((n, d))
            x = rng.standard_normal((d, d))
            lhs = vec(a1 @ x @ a2.T)
            rhs = kron(a1, a2) @ vec(x)
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_hand_example():
    assert kron([[1, 2]], [[3], [4]]).tolist() == [[3, 6], [4, 8]]


def test_kron_block_layout():
    # brute-force index check of kron[j0*n1+j1, i0*m1+i1] = A[j0,i0] B[j1,i1]
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    k = kron(a, b)
    for j0 in range(2):
        for i0 in range(2):
            for j1 in range(2):
                for i1 in range(2):
                    assert k[j0 * 2 + j1, i0 * 2 + i1] == a[j0, i0] * b[j1, i1]


def test_kron_cap():
    a = np.ones((400, 400))
    b = np.ones((30, 30))
    assert 400 * 400 * 30 * 30 > KRON_ENTRY_CAP
    with pytest.raises(ValueError, match="cap"):
        kron(a, b)


def test_row_kronecker_hand_example():
    out = row_kronecker([[1.0, 2.0]], [[3.0, 4.0]])
    assert out.tolist() == [[3, 6, 4, 8]]


def test_row_kronecker_ones_column():
    rng = np.random.default_rng(3)
    u1 = rng.standard_normal((5, 3))
    assert np.array_equal(row_kronecker(u1, np.ones((5, 1))), u1)


def test_row_kronecker_row_mismatch():
    with pytest.raises(ValueError, match="row count"):
        row_kronecker(np.ones((2, 2)), np.ones((3, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_row_kronecker_factors_entrywise_product(seed):
    # (U1 V1^T) * (U2 V2^T) = (U1 ox U2)(V1 ox V2)^T
    rng = np.random.default_rng(seed)
    n, k1, k2 = 4, 2, 3
    u1, v1 = rng.uniform(-1, 1, (n, k1)), rng.uniform(-1, 1, (n, k1))
    u2, v2 = rng.uniform(-1, 1, (n, k2)), rng.uniform(-1, 1, (n, k2))
    lhs = (u1 @ v1.T) * (u2 @ v2.T)
    rhs = row_kronecker(u1, u2) @ row_kronecker(v1, v2).T
    assert np.abs(lhs - rhs).max() <= 1e-10 * k1 * k2


def test_circ_rules():
    rng = np.random.default_rng(4)
    x, y, z = rng.standard_normal((3, 20))
    assert abs((x * y) @ np.ones(20) - x @ y) <= 1e-12
    assert abs((x * y) @ z - x @ np.diag(y) @ z) <= 1e-12


def test_read_matrix_identity(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2 2\n1 0\n0 1\n")
    assert np.array_equal(read_matrix(path), np.eye(2))


def test_matrix_roundtrip_bitexact(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((5, 3)) * np.exp(rng.uniform(-20, 20, (5, 3)))
    path = tmp_path / "m.mat"
    write_matrix(m, path)
    assert np.array_equal(read_matrix(path), m)


def test_read_matrix_wrong_count(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2 2\n1 0\n0\n")
    with pytest.raises(ValueError, match="expected 4 values, found 3"):
        read_matrix(path)


def test_read_matrix_nonfinite(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2 2\n1 0\nnan 1\n")
    with pytest.raises(ValueError, match=r"m.mat:3: non-finite value"):
        read_matrix(path)


def test_read_matrix_bad_token(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("1 2\n1 oops\n")
    with pytest.raises(ValueError, match=r"m.mat:2: invalid value"):
        read_matrix(path)


@pytest.mark.parametrize("body, message", [
    ("1 0\n0 oops\n", r"m.mat:3: invalid value 'oops'"),
    ("1 0\n0 inf\n", r"m.mat:3: non-finite value 'inf'"),
    ("1 nan\n0 1\n", r"m.mat:2: non-finite value 'nan'"),
    ("1 -inf\n0 1\n", r"m.mat:2: non-finite value '-inf'"),
    ("1 0\n0 1 5\n", "expected 4 values, found 5"),
    # the first bad token in file order wins, whatever its kind
    ("1 nan oops\n0 1\n", r"m.mat:2: non-finite value 'nan'"),
    ("1 inf\n0 oops\n", r"m.mat:2: non-finite value 'inf'"),
    ("1 0\n0 1 5 oops\n", r"m.mat:3: invalid value 'oops'"),
], ids=["token", "inf", "nan", "neg-inf", "too-many", "nan-then-token", "inf-then-token",
        "token-after-excess"])
def test_read_matrix_error_names_line_and_token(tmp_path, body, message):
    path = tmp_path / "m.mat"
    path.write_text("2 2\n" + body)
    with pytest.raises(ValueError, match=message):
        read_matrix(path)


def test_read_matrix_values_split_across_lines(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2 2\n1\n0 0\n\n1")
    assert np.array_equal(read_matrix(path), np.eye(2))


def test_read_matrix_bad_header(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2\n1 2\n")
    with pytest.raises(ValueError, match="malformed header"):
        read_matrix(path)
