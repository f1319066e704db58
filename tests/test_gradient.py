"""Exact gradient chain: p, the closed form, and the derivatives of
one softmax row."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from attngrad.forward import BLOCK_ENTRIES, compute_exp_matrix, compute_softmax, \
    random_instance
from attngrad.gradient import compute_p, gradient_exact
from attngrad.oracles import finite_diff_gradient
from tests.test_forward import worked_instance


def test_p_degenerate_single_row():
    # n = 1: diag(1) - 1*1 annihilates everything
    assert np.array_equal(compute_p(np.ones((1, 1)), np.array([[3.0]])), np.zeros((1, 1)))


def test_p_hand_example():
    f = np.full((2, 2), 0.5)
    q = np.array([[0.5, 0.0], [0.5, 0.0]])
    p = compute_p(f, q)
    assert np.abs(p - [[0.125, -0.125], [0.125, -0.125]]).max() <= 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_p_rows_sum_to_zero(seed):
    rng = np.random.default_rng(seed)
    f, _ = compute_softmax(np.exp(rng.standard_normal((8, 8))))
    q = rng.standard_normal((8, 8))
    assert np.abs(compute_p(f, q).sum(1)).max() <= 1e-10


def test_gradient_zero_at_optimum():
    inst = random_instance(12, 3, 0.9, seed=1, noise_sigma=0.0)
    res = gradient_exact(inst)
    assert np.all(res.g == 0.0)


def test_gradient_worked_instance():
    # identical A2 rows make f constant in X, so the loss is constant
    res = gradient_exact(worked_instance())
    assert np.abs(res.g).max() <= 1e-16
    assert res.g.shape == (1,)


def test_gradient_result_vec_consistency():
    inst = random_instance(10, 3, 0.8, seed=2)
    res = gradient_exact(inst)
    assert np.array_equal(res.g, res.G.ravel())
    assert res.method == "exact"
    assert res.elapsed_seconds > 0


def test_gradient_memory_is_blocked():
    # a few row blocks and n x d arrays are live at once, never n x n
    inst = random_instance(2048, 4, 0.8, seed=3)
    tracemalloc.start()
    gradient_exact(inst)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * 8 * (BLOCK_ENTRIES + inst.n * inst.d)


@pytest.mark.parametrize("seed", range(20))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 33))
    d = int(rng.integers(1, 5))
    inst = random_instance(n, d, 1.0, seed=seed + 100)
    diff = gradient_exact(inst).g - finite_diff_gradient(inst, 1e-4).g
    assert np.abs(diff).max() <= 1e-5


def _row_quantities(inst, x):
    """u, alpha, f for row j0=0 as functions of X (dense, oracle-side).
    The perturbed X may cross inst.B, so the copy carries a looser B."""
    m = compute_exp_matrix(dataclasses.replace(inst, X=x, B=inst.B + 1.0))
    u = m[0]
    return u, u.sum(), u / u.sum()


def test_intermediate_derivatives_match_formulas():
    # d/dx_i of u, alpha, f for one softmax row against the analytic
    # expressions built from one column of the lifted matrix
    inst = random_instance(6, 3, 0.9, seed=7)
    n, d = inst.n, inst.d
    u0, alpha0, f0 = _row_quantities(inst, inst.X)
    step = 1e-6
    for i in range(d * d):
        a, b = divmod(i, d)
        col = inst.A1[0, a] * inst.A2[:, b] / d
        pert = np.zeros((d, d))
        pert.flat[i] = step
        up, ap, fp = _row_quantities(inst, inst.X + pert)
        um, am, fm = _row_quantities(inst, inst.X - pert)
        assert np.abs((up - um) / (2 * step) - col * u0).max() <= 1e-5
        assert abs((ap - am) / (2 * step) - col @ u0) <= 1e-5
        expected_df = col * f0 - (col @ f0) * f0
        assert np.abs((fp - fm) / (2 * step) - expected_df).max() <= 1e-5
