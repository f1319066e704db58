"""Independent oracles: finite differences and the brute-force lifted
gradient."""

import numpy as np
import pytest

from attngrad.forward import AttentionInstance, random_instance
from attngrad.gradient import gradient_exact
from attngrad.oracles import brute_kron_gradient, finite_diff_gradient
from tests.test_forward import worked_instance


def test_central_difference_formula_self_check():
    # harness sanity: d/dx x^2 at 1 is 2, recovered essentially exactly
    step = 1e-4
    fd = ((1 + step) ** 2 - (1 - step) ** 2) / (2 * step)
    assert abs(fd - 2.0) <= 1e-8


def test_fd_constant_loss():
    # identical A2 rows: attention weights do not depend on X
    rng = np.random.default_rng(0)
    a2 = np.tile(rng.uniform(-1, 1, (1, 3)), (10, 1))
    inst = AttentionInstance(
        A1=rng.uniform(-1, 1, (10, 3)), A2=a2, A3=rng.uniform(-1, 1, (10, 3)),
        E=rng.uniform(-1, 1, (10, 3)), X=rng.uniform(-0.3, 0.3, (3, 3)),
        Y=rng.uniform(-1, 1, (3, 3)), B=1.5,
    )
    assert np.abs(finite_diff_gradient(inst).g).max() <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_fd_is_the_oracle_for_exact(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 33)), int(rng.integers(1, 5))
    inst = random_instance(n, d, 1.0, seed=seed + 50)
    res = finite_diff_gradient(inst, 1e-4)
    assert res.method == "finite_diff"
    assert np.abs(res.g - gradient_exact(inst).g).max() <= 1e-5


def test_fd_step_robustness():
    inst = random_instance(16, 3, 1.0, seed=3)
    g1 = finite_diff_gradient(inst, 1e-4).g
    g2 = finite_diff_gradient(inst, 5e-5).g
    assert np.abs(g1 - g2).max() <= 1e-6


def test_fd_rejects_bad_step():
    inst = random_instance(4, 2, 0.5, seed=4)
    with pytest.raises(ValueError, match="positive"):
        finite_diff_gradient(inst, 0.0)


def test_fd_unit_step_near_exp_limit():
    # exponent sits just under the float64 limit and a unit step pushes
    # it past; with n = 1 the softmax is 1 whatever X is
    b = np.sqrt(707.0)
    inst = AttentionInstance(A1=[[b]], A2=[[b]], A3=[[1.0]], E=[[0.0]],
                             X=[[1.0]], Y=[[1.0]], B=b)
    assert np.all(finite_diff_gradient(inst, step=1.0).g == 0.0)


def test_brute_zero_at_optimum():
    inst = random_instance(8, 2, 0.8, seed=5, noise_sigma=0.0)
    assert np.abs(brute_kron_gradient(inst).g).max() <= 1e-16


def test_brute_worked_instance():
    res = brute_kron_gradient(worked_instance())
    assert res.method == "brute_kron"
    assert np.abs(res.g).max() <= 1e-16


@pytest.mark.parametrize("seed", range(5))
def test_brute_agrees_with_exact(seed):
    inst = random_instance(6, 3, 1.0, seed=seed + 60)
    assert np.abs(brute_kron_gradient(inst).g - gradient_exact(inst).g).max() <= 1e-10


def test_brute_cap():
    inst = random_instance(32, 2, 0.5, seed=6)
    with pytest.raises(ValueError, match="capped"):
        brute_kron_gradient(inst)
    # explicit override admits larger n
    res = brute_kron_gradient(inst, max_n=32)
    assert np.abs(res.g - gradient_exact(inst).g).max() <= 1e-10
