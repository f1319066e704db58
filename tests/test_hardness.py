"""Hardness lab: instance structure, the quotient-form f and its
derivatives, the Riemann-sum reduction, and gradient-to-forward
consistency."""

from itertools import islice

import numpy as np
import pytest

from attngrad import hardness
from attngrad.hardness import (
    HardInstance,
    f_lambda,
    f_lambda_derivative,
    factorized_hard_instance,
    gen_hard_instance,
    gradient_to_forward,
    hard_attention_instance,
    gen_hard_instance as gen,
    riemann_reduction,
    riemann_sum,
)


def direct_f(hi, lam):
    """Dense oracle: ||diag(M 1)^-1 M V||_F^2 evaluated literally."""
    m = np.exp(lam * hi.A)
    c = m / m.sum(1)[:, None]
    return float(((c @ hi.V) ** 2).sum())


def test_gen_zero_bound_forces_zero_matrix():
    hi = gen_hard_instance(8, 2, 0.0, seed=0)
    assert np.all(hi.A == 0.0)


def test_gen_full_fraction_gives_constant_matrix():
    hi = gen_hard_instance(8, 2, 1.5, frac_b=1.0, seed=1)
    assert np.all(hi.A == 1.5)


@pytest.mark.parametrize("seed", range(100))
def test_gen_half_entries_equal_bound(seed):
    n, B = 16, 2.0
    hi = gen_hard_instance(n, 3, B, seed=seed)
    per_row = (hi.A == B).sum(axis=1)
    assert (per_row >= n / 2).all()
    assert hi.A.min() >= 0.0 and hi.A.max() <= B
    assert np.isin(hi.V, (0.0, 1.0)).all()


def test_gen_deterministic():
    a = gen_hard_instance(12, 3, 1.0, seed=7)
    b = gen_hard_instance(12, 3, 1.0, seed=7)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.V, b.V)


def test_hard_instance_validation():
    with pytest.raises(ValueError, match="square"):
        HardInstance(A=np.zeros((2, 3)), V=np.zeros((2, 1)), B=1.0)
    with pytest.raises(ValueError, match="outside"):
        HardInstance(A=2 * np.ones((2, 2)), V=np.zeros((2, 1)), B=1.0)
    with pytest.raises(ValueError, match="0 or 1"):
        HardInstance(A=np.zeros((2, 2)), V=0.5 * np.ones((2, 1)), B=1.0)
    for B in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {B}"):
            HardInstance(A=np.zeros((2, 2)), V=np.zeros((2, 1)), B=B)
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {B}"):
            factorized_hard_instance(8, 2, B)
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {B}"):
            gen_hard_instance(8, 2, B)


def test_f_lambda_at_zero_closed_form():
    hi = gen_hard_instance(32, 4, 1.0, seed=2)
    sizes = hi.V.sum(axis=0)
    expected = 32 * ((sizes / 32) ** 2).sum()
    assert abs(f_lambda(hi, 0.0) - expected) <= 1e-10


def test_f_lambda_all_ones_values():
    hi = HardInstance(A=gen(8, 2, 1.0, seed=3).A, V=np.ones((8, 2)), B=1.0)
    for lam in (0.0, 0.3, 1.0):
        assert abs(f_lambda(hi, lam) - 8 * 2) <= 1e-10


@pytest.mark.parametrize("n", [8, 64])
def test_f_lambda_matches_direct_oracle(n):
    hi = gen_hard_instance(n, 3, 2.0, seed=4)
    for lam in (0.0, 0.25, 0.7, 1.0):
        assert abs(f_lambda(hi, lam) - direct_f(hi, lam)) <= 1e-10


def test_derivatives_zero_at_zero_bound():
    hi = gen_hard_instance(16, 2, 0.0, seed=5)
    fp, fs = f_lambda_derivative(hi, 0.5)
    assert fp == 0.0 and fs == 0.0


@pytest.mark.parametrize("n", [8, 64])
def test_fprime_matches_finite_differences(n):
    hi = gen_hard_instance(n, 3, 2.0, seed=6)
    step = 1e-5
    for lam in np.linspace(0.0, 1.0, 7):
        fp, _ = f_lambda_derivative(hi, lam)
        fd = (f_lambda(hi, lam + step) - f_lambda(hi, lam - step)) / (2 * step)
        assert abs(fp - fd) <= 1e-4 * (1.0 + abs(fp))


def test_fsecond_matches_finite_differences():
    hi = gen_hard_instance(24, 3, 1.5, seed=7)
    step = 1e-5
    for lam in (0.1, 0.6):
        _, fs = f_lambda_derivative(hi, lam)
        fpp, _ = f_lambda_derivative(hi, lam + step)
        fpm, _ = f_lambda_derivative(hi, lam - step)
        fd = (fpp - fpm) / (2 * step)
        assert abs(fs - fd) <= 1e-4 * (1.0 + abs(fs))


@pytest.mark.parametrize("B", [1.0, 5.0])
def test_derivative_bound_on_grid(B):
    n = 64
    hi = gen_hard_instance(n, 4, B, seed=8)
    for lam in np.linspace(0.0, 1.0, 101):
        fp, _ = f_lambda_derivative(hi, lam)
        assert -8 * B * n <= fp <= 8 * B * n


def test_riemann_sum_quadratic_test_function():
    # f(lam) = lam^2: t_10 = 0.9, |t_10 - 1| = 0.1 <= b/m = 2/10
    t10 = riemann_sum(lambda lam: 2 * lam, 10)
    assert abs(t10 - 0.9) <= 1e-15
    assert abs(t10 - 1.0) <= 2.0 / 10


def test_riemann_reduction_zero_bound():
    hi = gen_hard_instance(16, 2, 0.0, seed=10)
    rep = riemann_reduction(hi, 10)
    assert rep.t_m == 0.0 and rep.f1_minus_f0 == 0.0 and rep.holds


@pytest.mark.parametrize("m", [1, 10, 100])
def test_riemann_reduction_holds(m):
    hi = gen_hard_instance(64, 3, 2.0, seed=11)
    rep = riemann_reduction(hi, m)
    assert rep.holds
    assert abs(rep.t_m - rep.f1_minus_f0) <= rep.bound_b / m + 1e-12
    assert np.abs(rep.fprime_values).max() <= 8 * 2.0 * 64


@pytest.mark.parametrize("m, calls", [(100, 103), (1000, 1003)])
def test_riemann_reduction_evaluates_each_lambda_once(monkeypatch, m, calls):
    # 101 grid points, the Riemann nodes off the grid (none for m = 100,
    # 900 for m = 1000), and f at 0 and 1
    hi = gen_hard_instance(16, 3, 2.0, seed=17)
    lams = []
    row_terms = hardness._row_terms
    monkeypatch.setattr(hardness, "_row_terms",
                        lambda hi, lam: lams.append(lam) or row_terms(hi, lam))
    rep = riemann_reduction(hi, m, 101)
    assert len(lams) == calls
    assert rep.lambda_grid.tolist() == [i / 100 for i in range(101)]
    monkeypatch.undo()
    assert rep.t_m == riemann_sum(lambda lam: f_lambda_derivative(hi, lam)[0], m)
    assert rep.fprime_values.tolist() == [f_lambda_derivative(hi, i / 100)[0]
                                          for i in range(101)]


def test_riemann_reduction_single_grid_point():
    hi = gen_hard_instance(8, 2, 1.0, seed=18)
    rep = riemann_reduction(hi, 4, 1)
    assert rep.lambda_grid.tolist() == [0.0]
    assert rep.fprime_values.tolist() == [f_lambda_derivative(hi, 0.0)[0]]


def test_f_lambda_is_zeroth_moment_quotient():
    # f draws only moment 0; the three moments the derivative draws
    # must give the same quotient bit for bit
    hi = gen_hard_instance(32, 3, 2.0, seed=19)
    for lam in (0.0, 0.3, 1.0, 1.7):
        (s0, t0), _, _ = islice(hardness._row_terms(hi, lam), 3)
        assert f_lambda(hi, lam) == float(((s0 / t0[:, None]) ** 2).sum())


@pytest.mark.parametrize("lam", [-7.0, 0.4, 3.0, 7.0, 9.0])
def test_row_shift_is_skipped_only_where_it_cancels(monkeypatch, lam):
    # B = 10: |lam| B runs from 4 to 90, on both sides of the bound;
    # forcing the other branch must give the same values. f' and f''
    # are sums of cancelling quotient-rule terms, rounded to about
    # 1e-16 of their scales n B and n B**2, not of their values
    n, B = 64, 10.0
    hi = gen_hard_instance(n, 3, B, seed=23)
    values = f_lambda(hi, lam), *f_lambda_derivative(hi, lam)
    bound = np.inf if abs(lam) * B > hardness.SHIFT_FREE_BOUND else -1.0
    monkeypatch.setattr(hardness, "SHIFT_FREE_BOUND", bound)
    other = f_lambda(hi, lam), *f_lambda_derivative(hi, lam)
    for a, b, scale in zip(values, other, (values[0], n * B, n * B * B)):
        assert abs(a - b) <= 1e-14 * abs(scale)


def test_constant_scores_stay_computable_at_large_lambda():
    # A = B everywhere makes f constant in lambda; at |lambda| B = 800
    # exp(lambda A) leaves the float64 range unless rows are shifted
    hi = gen_hard_instance(8, 2, 1.0, frac_b=1.0, seed=3)
    for lam in (-800.0, 800.0):
        assert f_lambda(hi, lam) == f_lambda(hi, 0.0)
        fp, fs = f_lambda_derivative(hi, lam)
        assert fp == 0.0 and abs(fs) <= 1e-12


def test_factorized_instance_structure():
    hi, q, k = factorized_hard_instance(16, 4, 2.0, seed=12)
    assert np.array_equal(hi.A, q @ k.T)
    assert hi.A.min() >= 0.0 and hi.A.max() <= 2.0


def test_gradient_to_forward_zero_bound():
    hi, q, k = factorized_hard_instance(8, 2, 0.0, seed=13)
    inst = hard_attention_instance(q, k, hi.V, 0.5)
    assert abs(gradient_to_forward(inst, 0.5)) <= 1e-14


def test_gradient_to_forward_identical_key_rows():
    # identical rows of K make the attention weights independent of X,
    # so the loss is constant and both sides vanish
    rng = np.random.default_rng(14)
    q = rng.uniform(0.0, 1.0, (8, 2))
    k = np.tile(rng.uniform(0.0, 1.0, (1, 2)), (8, 1))
    v = rng.integers(0, 2, (8, 2)).astype(float)
    hi = HardInstance(A=q @ k.T, V=v, B=float((q @ k.T).max()))
    inst = hard_attention_instance(q, k, v, 0.0)
    assert abs(gradient_to_forward(inst, 0.0)) <= 1e-12
    fp, _ = f_lambda_derivative(hi, 0.0)
    assert abs(fp) <= 1e-12


def test_gradient_to_forward_matches_analytic_derivative():
    hi, q, k = factorized_hard_instance(16, 4, 2.0, seed=15)
    for lam in np.linspace(0.0, 1.0, 5):
        inst = hard_attention_instance(q, k, hi.V, lam)
        from_grad = gradient_to_forward(inst, lam)
        fp, _ = f_lambda_derivative(hi, lam)
        assert abs(from_grad - fp) <= 1e-4 * (1.0 + abs(fp))


def test_gradient_to_forward_requires_reduction_shape():
    hi, q, k = factorized_hard_instance(8, 2, 1.0, seed=16)
    inst = hard_attention_instance(q, k, hi.V, 0.3)
    bad = type(inst)(A1=inst.A1, A2=inst.A2, A3=inst.A3,
                     E=np.ones((8, 2)), X=inst.X, Y=inst.Y, B=inst.B)
    with pytest.raises(ValueError, match="E = 0"):
        gradient_to_forward(bad, 0.3)
    # an instance built at lambda = 0.3 does not answer for lambda = 0.7
    with pytest.raises(ValueError, match="X = lambda d I"):
        gradient_to_forward(inst, 0.7)
