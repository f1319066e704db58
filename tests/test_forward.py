"""Forward attention: exp matrix, softmax normalization and its row
blocks, value projection, loss, and the instance container."""

import dataclasses

import numpy as np
import pytest

import attngrad.forward as forward_module
from attngrad.forward import (
    AttentionInstance,
    compute_exp_matrix,
    compute_softmax,
    forward,
    load_instance,
    loss,
    random_instance,
    save_instance,
)
from attngrad.gradient import compute_p, gradient_exact
from attngrad.oracles import brute_kron_gradient, finite_diff_gradient

E_CONST = np.e


def worked_instance():
    """n=2, d=1 instance whose every intermediate is known by hand."""
    return AttentionInstance(
        A1=[[1.0], [2.0]], A2=[[1.0], [1.0]], A3=[[1.0], [0.0]],
        E=np.zeros((2, 1)), X=[[1.0]], Y=[[1.0]], B=2.0,
    )


def test_exp_matrix_zero_x():
    inst = random_instance(6, 3, 0.0, seed=0)
    assert np.array_equal(compute_exp_matrix(inst), np.ones((6, 6)))


def test_exp_matrix_hand_example():
    m = compute_exp_matrix(worked_instance())
    expected = [[E_CONST, E_CONST], [E_CONST ** 2, E_CONST ** 2]]
    assert np.abs(m - expected).max() <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_exp_matrix_entry_bound(seed):
    B = 0.9
    inst = random_instance(12, 3, B, seed)
    m = compute_exp_matrix(inst)
    assert m.min() >= np.exp(-B * B) - 1e-12
    assert m.max() <= np.exp(B * B) + 1e-12


def test_softmax_uniform():
    f, alpha = compute_softmax(np.ones((5, 5)))
    assert np.abs(f - 0.2).max() <= 1e-15
    assert np.array_equal(alpha, 5 * np.ones(5))


def test_softmax_hand_example():
    m = np.array([[E_CONST, E_CONST], [E_CONST ** 2, E_CONST ** 2]])
    f, alpha = compute_softmax(m)
    assert np.abs(f - 0.5).max() <= 1e-15
    assert np.abs(alpha - [2 * E_CONST, 2 * E_CONST ** 2]).max() <= 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    f, _ = compute_softmax(np.exp(rng.standard_normal((30, 30))))
    assert np.abs(f.sum(1) - 1.0).max() <= 1e-12
    assert (f > 0).all()


def test_softmax_rejects_nonpositive():
    with pytest.raises(ValueError, match="row sum"):
        compute_softmax(np.zeros((2, 2)))


def test_forward_uniform_averages_rows():
    inst = random_instance(8, 3, 0.0, seed=4)
    inst = AttentionInstance(A1=inst.A1, A2=inst.A2, A3=inst.A3,
                             E=inst.E, X=inst.X, Y=np.eye(3), B=0.0)
    out = forward(inst)
    col_means = inst.A3.mean(axis=0)
    assert np.abs(out - col_means[None, :]).max() <= 1e-12


def test_forward_rowwise_oracle():
    inst = random_instance(5, 2, 1.0, seed=5)
    m = compute_exp_matrix(inst)
    _, alpha = compute_softmax(m)
    h = inst.A3 @ inst.Y
    out = forward(inst)
    for j in range(5):
        row = sum(m[j, k] * h[k] for k in range(5)) / alpha[j]
        assert np.abs(out[j] - row).max() <= 1e-12


def test_loss_zero_at_exact_fit():
    inst = random_instance(7, 2, 1.0, seed=6, noise_sigma=0.0)
    val, c = loss(inst)
    assert val == 0.0
    assert np.all(c == 0.0)


def test_loss_hand_example():
    val, c = loss(worked_instance())
    assert np.abs(c - [[0.5], [0.5]]).max() <= 1e-12
    assert abs(val - 0.25) <= 1e-12


def test_loss_matches_entrywise_sum():
    inst = random_instance(9, 3, 0.7, seed=7)
    val, c = loss(inst)
    assert abs(val - (0.5 * c ** 2).sum()) <= 1e-12


def test_shift_invariance():
    # with a ones column in A2, bumping the matching X entry adds a
    # per-row constant to A1 X A2^T, which softmax ignores
    rng = np.random.default_rng(8)
    n, d = 10, 3
    a1 = rng.uniform(-1, 1, (n, d))
    a2 = rng.uniform(-1, 1, (n, d))
    a2[:, 1] = 1.0
    x = rng.uniform(-0.2, 0.2, (d, d))
    inst = AttentionInstance(A1=a1, A2=a2, A3=a1, E=np.zeros((n, d)),
                             X=x, Y=np.eye(d), B=3.0)
    f0, _ = compute_softmax(compute_exp_matrix(inst))
    x_shift = x.copy()
    x_shift[2, 1] += 0.5
    f1, _ = compute_softmax(compute_exp_matrix(dataclasses.replace(inst, X=x_shift)))
    assert np.abs(f1 - f0).max() <= 1e-10


def test_instance_validates_bounds():
    with pytest.raises(ValueError, match=r"A2"):
        AttentionInstance(A1=np.ones((2, 1)), A2=2 * np.ones((2, 1)),
                          A3=np.ones((2, 1)), E=np.zeros((2, 1)),
                          X=np.ones((1, 1)), Y=np.ones((1, 1)), B=1.0)
    with pytest.raises(ValueError, match=r"A1 @ X"):
        AttentionInstance(A1=np.ones((2, 1)), A2=np.ones((2, 1)),
                          A3=np.ones((2, 1)), E=np.zeros((2, 1)),
                          X=[[3.0]], Y=np.ones((1, 1)), B=1.0)
    with pytest.raises(ValueError, match="entry bound"):
        random_instance(4, 2, -1.0, seed=0)


def test_score_overflow_refused():
    # d B**2 = 1e320 overflows float64: scores A1 X A2^T would be inf
    with pytest.raises(ValueError, match="reduce B"):
        AttentionInstance(A1=[[1e160], [1e160]], A2=[[1e160], [-1e160]],
                          A3=np.ones((2, 1)), E=np.zeros((2, 1)),
                          X=[[1.0]], Y=[[1.0]], B=1e160)


def test_large_entry_bound_is_computable():
    # exponents reach B**2 = 1600, far past the float64 exp range
    inst = random_instance(4, 2, 40.0, seed=0)
    val, _ = loss(inst)
    assert np.isfinite(val)
    diff = gradient_exact(inst).g - finite_diff_gradient(inst, 1e-4).g
    assert np.abs(diff).max() <= 1e-5


def test_instance_validates_shapes_and_finiteness():
    with pytest.raises(ValueError, match="shape"):
        AttentionInstance(A1=np.ones((2, 1)), A2=np.ones((3, 1)),
                          A3=np.ones((2, 1)), E=np.zeros((2, 1)),
                          X=np.ones((1, 1)), Y=np.ones((1, 1)), B=1.0)
    bad = np.array([[1.0], [np.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        AttentionInstance(A1=np.ones((2, 1)), A2=np.ones((2, 1)),
                          A3=bad, E=np.zeros((2, 1)),
                          X=np.ones((1, 1)), Y=np.ones((1, 1)), B=1.0)
    # empty instances are refused by shape, not by a numpy reduction
    with pytest.raises(ValueError, match=r"A1 has shape \(0, 2\); n and d must be positive"):
        AttentionInstance(A1=np.ones((0, 2)), A2=np.ones((0, 2)),
                          A3=np.ones((0, 2)), E=np.zeros((0, 2)),
                          X=np.ones((2, 2)), Y=np.ones((2, 2)), B=1.0)
    with pytest.raises(ValueError, match=r"A1 has shape \(3, 0\); n and d must be positive"):
        AttentionInstance(A1=np.ones((3, 0)), A2=np.ones((3, 0)),
                          A3=np.ones((3, 0)), E=np.zeros((3, 0)),
                          X=np.ones((0, 0)), Y=np.ones((0, 0)), B=1.0)


def test_block_boundaries_match_dense_reference(monkeypatch):
    inst = random_instance(3, 2, 0.9, seed=9)
    f, _ = compute_softmax(compute_exp_matrix(inst))
    h = inst.A3 @ inst.Y
    c = f @ h - inst.E
    dense_G = inst.A1.T @ compute_p(f, c @ h.T) @ inst.A2 / inst.d
    brute_G = brute_kron_gradient(inst).G
    # n = 3: one row per block, two rows then one, and a single block
    for entries in (1, 7, inst.n * inst.n):
        monkeypatch.setattr(forward_module, "BLOCK_ENTRIES", entries)
        G = gradient_exact(inst).G
        assert np.abs(forward(inst) - f @ h).max() <= 1e-14
        assert np.abs(G - dense_G).max() <= 1e-14
        assert np.abs(G - brute_G).max() <= 1e-10


def _dense_reference(inst):
    """f, f h and the gradient from the dense, unshifted matrices."""
    f, _ = compute_softmax(compute_exp_matrix(inst))
    h = inst.A3 @ inst.Y
    c = f @ h - inst.E
    return f, f @ h, inst.A1.T @ compute_p(f, c @ h.T) @ inst.A2 / inst.d


def _score_bound(inst):
    return np.abs(inst.A1 @ inst.X).max() * np.abs(inst.A2).max()


def test_softmax_blocks_yield_unnormalized_rows(monkeypatch):
    # below the bound each block is exp(scores), unshifted; n = 50 in
    # blocks of 7 rows, the last one ragged (1 row)
    inst = random_instance(50, 3, 0.9, seed=13)
    t = _score_bound(inst)
    assert t <= forward_module.SHIFT_FREE_BOUND
    m = compute_exp_matrix(inst)
    f, fh, dense_G = _dense_reference(inst)
    monkeypatch.setattr(forward_module, "BLOCK_ENTRIES", 7 * inst.n)
    sizes = []
    for rows, e, alpha in forward_module.softmax_blocks(inst):
        sizes.append(len(e))
        assert (np.abs(e - m[rows]) / m[rows]).max() <= 1e-15
        assert alpha.shape == (len(e), 1)
        assert np.all((alpha >= inst.n * np.exp(-t)) & (alpha <= inst.n * np.exp(t)))
        assert np.abs(e / alpha - f[rows]).max() <= 1e-15
    assert sizes == [7] * 7 + [1]
    assert np.abs(forward(inst) - fh).max() <= 1e-14
    assert np.abs(gradient_exact(inst).G - dense_G).max() <= 1e-14 * np.abs(dense_G).max()


def test_softmax_blocks_shift_rows_above_the_bound(monkeypatch):
    # B = 9 puts the score bound at 81: each row is shifted by its max
    inst = random_instance(50, 3, 9.0, seed=13)
    assert _score_bound(inst) > forward_module.SHIFT_FREE_BOUND
    f, fh, dense_G = _dense_reference(inst)
    monkeypatch.setattr(forward_module, "BLOCK_ENTRIES", 7 * inst.n)
    sizes = []
    for rows, e, alpha in forward_module.softmax_blocks(inst):
        sizes.append(len(e))
        assert np.all(e.max(axis=1) == 1.0)
        assert np.all((alpha >= 1.0) & (alpha <= inst.n))
        assert np.abs(e / alpha - f[rows]).max() <= 1e-14
    assert sizes == [7] * 7 + [1]
    assert np.abs(forward(inst) - fh).max() <= 1e-14
    assert np.abs(gradient_exact(inst).G - dense_G).max() <= 1e-14 * np.abs(dense_G).max()


@pytest.mark.parametrize("scale", [10.0, 3000.0])
def test_loss_override_past_the_bound_is_exact(scale):
    # the bound is taken from the override, not from inst.B: scale * X
    # puts it at 81, or at 2430 with scores up to 1261, past the float64
    # exp range, on an instance validated at B = 0.9; the reference
    # shifts its dense rows
    inst = random_instance(50, 3, 0.9, seed=13)
    x = scale * inst.X
    s = inst.A1 @ x @ inst.A2.T / inst.d
    m = np.exp(s - s.max(axis=1, keepdims=True))
    c_ref = (m / m.sum(axis=1, keepdims=True)) @ (inst.A3 @ inst.Y) - inst.E
    value, c = loss(inst, x)
    assert np.isfinite(value)
    assert np.abs(c - c_ref).max() <= 1e-13
    ref = 0.5 * float((c_ref ** 2).sum())
    assert abs(value - ref) <= 1e-13 * ref


def test_row_sum_overflow_instance_is_exact():
    # every exponent is 708.9, inside the float64 exp range, but four of
    # them overflow an unshifted row sum; the max shift makes f uniform,
    # so the output is exactly E and the loss and gradient are 0
    b = np.sqrt(708.9)
    inst = AttentionInstance(A1=np.full((4, 1), b), A2=np.full((4, 1), b),
                             A3=np.ones((4, 1)), E=np.ones((4, 1)),
                             X=[[1.0]], Y=[[1.0]], B=b)
    assert np.isfinite(compute_exp_matrix(inst)).all()
    assert loss(inst)[0] == 0.0
    assert np.all(gradient_exact(inst).g == 0.0)


def test_random_instance_deterministic():
    a = random_instance(6, 2, 0.8, seed=11)
    b = random_instance(6, 2, 0.8, seed=11)
    for name in ("A1", "A2", "A3", "E", "X", "Y"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_instance_roundtrip(tmp_path):
    inst = random_instance(5, 2, 0.6, seed=12)
    save_instance(inst, tmp_path / "inst", {"seed": 12})
    back = load_instance(tmp_path / "inst")
    for name in ("A1", "A2", "A3", "E", "X", "Y"):
        assert np.array_equal(getattr(inst, name), getattr(back, name))
    assert back.B == inst.B
