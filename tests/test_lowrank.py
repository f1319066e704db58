"""Low-rank fast path: degree selection, the monomial feature map, the
factor chain, and the assembled near-linear gradient."""

import math
import tracemalloc

import numpy as np
import pytest

from attngrad import lowrank
from attngrad.forward import AttentionInstance, compute_exp_matrix, compute_softmax, \
    loss, random_instance
from attngrad.gradient import gradient_exact
from attngrad.lowrank import (
    PolyConfig,
    feature_map,
    gradient_fast,
    select_degree,
    taylor_remainder,
)
from attngrad.oracles import factor_chain, lowrank_softmax_factors


def uniform_softmax_instance(n, d, seed, b_label=1.0):
    """X = 0 makes the exp argument vanish while A2 stays generic: the
    effective bound is zero, so the factorization is exact at rank 1
    but gradients are nonzero."""
    rng = np.random.default_rng(seed)
    a1 = rng.uniform(-1, 1, (n, d))
    a2 = rng.uniform(-1, 1, (n, d))
    a3 = rng.uniform(-1, 1, (n, d))
    y = rng.uniform(-1, 1, (d, d))
    e = rng.uniform(-1, 1, (n, d))
    return AttentionInstance(A1=a1, A2=a2, A3=a3, E=e,
                             X=np.zeros((d, d)), Y=y, B=b_label)


def test_select_degree_zero_bound():
    cfg = select_degree(0.0, 1e-8, 3)
    assert cfg.g == 0 and cfg.m_feat == 1


def test_select_degree_example():
    # remainder e/10! ~ 7.49e-7 <= 1e-6, while e/9! ~ 7.5e-6 is not
    assert taylor_remainder(1.0, 9) <= 1e-6 < taylor_remainder(1.0, 8)
    for d in (1, 2, 5):
        assert select_degree(1.0, 1e-6, d).g == 9


def test_monomial_count():
    cfg = select_degree(1.0, taylor_remainder(1.0, 2), 2)
    assert cfg.g == 2 and cfg.m_feat == math.comb(4, 2) == 6


def test_select_degree_rank_blowup():
    with pytest.raises(ValueError, match="rank blowup"):
        select_degree(5.0, 1e-12, 8)


def test_feature_map_degree_zero():
    cfg = PolyConfig(B=0.0, eps_prime=1.0, g=0, d=3, m_feat=1)
    assert feature_map(np.array([5.0, -2.0, 0.5]), cfg).tolist() == [1.0]


def test_feature_map_hand_example():
    cfg = PolyConfig(B=3.0, eps_prime=1.0, g=2, d=1, m_feat=3)
    phi = feature_map(np.array([2.0]), cfg)
    assert np.abs(phi - [1.0, 2.0, 2.0 * math.sqrt(2)]).max() <= 1e-15
    phi_k = feature_map(np.array([3.0]), cfg)
    # dot = P(q k / d) = 1 + 6 + 36/2 = 25
    assert abs(phi @ phi_k - 25.0) <= 1e-12


@pytest.mark.parametrize("seed", range(100))
def test_feature_map_inner_product_identity(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    g = int(rng.integers(0, 7))
    cfg = PolyConfig(B=1.0, eps_prime=1.0, g=g, d=d, m_feat=math.comb(d + g, g))
    q = rng.uniform(-1, 1, d)
    k = rng.uniform(-1, 1, d)
    t = q @ k / d
    poly = sum(t ** l / math.factorial(l) for l in range(g + 1))
    assert abs(feature_map(q, cfg) @ feature_map(k, cfg) - poly) <= 1e-12


def test_softmax_factors_rank_one_at_zero_bound():
    inst = uniform_softmax_instance(16, 3, seed=0)
    u1, v1, cfg = lowrank_softmax_factors(inst, eps=1e-6)
    assert cfg.m_feat == 1 and cfg.g == 0
    assert np.array_equal(v1, np.ones((16, 1)))
    assert np.abs(u1 - 1.0 / 16).max() <= 1e-16
    f, _ = compute_softmax(compute_exp_matrix(inst))
    assert np.abs(u1 @ v1.T - f).max() <= 1e-15


def test_softmax_factors_accuracy():
    inst = random_instance(64, 4, 0.8, seed=1)
    u1, v1, _ = lowrank_softmax_factors(inst, eps=1e-4)
    f, _ = compute_softmax(compute_exp_matrix(inst))
    assert np.abs(u1 @ v1.T - f).max() <= 1e-4


def test_softmax_factors_rows_sum_to_one():
    inst = random_instance(32, 3, 0.9, seed=2)
    u1, v1, _ = lowrank_softmax_factors(inst, eps=1e-3)
    assert np.abs((u1 @ v1.T).sum(1) - 1.0).max() <= 1e-12


def test_softmax_factors_destroyed_row_sums():
    # forces an odd truncation degree whose polynomial is negative at
    # the far end of [-B^2, B^2], so approximated row sums go negative
    n, B = 4, 3.0
    inst = AttentionInstance(
        A1=np.full((n, 1), 1.0), A2=np.full((n, 1), -B),
        A3=np.ones((n, 1)), E=np.zeros((n, 1)),
        X=np.array([[B]]), Y=np.ones((1, 1)), B=B,
    )
    epsp = 5e4
    assert taylor_remainder(B, 19) <= epsp < min(taylor_remainder(B, g) for g in range(19))
    eps = epsp * 8 * 1 / math.exp(-2 * B * B)
    advice = "destroyed row sums; decrease eps or use gradient_exact"
    with pytest.raises(ValueError, match=advice):
        lowrank_softmax_factors(inst, eps)
    with pytest.raises(ValueError, match=advice):
        gradient_fast(inst, eps)


def test_fast_path_refuses_underflowing_target():
    # effective B = sqrt(708.9): exp(-2 B^2) underflows, so the entrywise
    # target is 0 and the error must say what to change
    b = np.sqrt(708.9)
    inst = AttentionInstance(A1=np.full((4, 1), b), A2=np.full((4, 1), b),
                             A3=np.ones((4, 1)), E=np.ones((4, 1)),
                             X=[[1.0]], Y=[[1.0]], B=b)
    with pytest.raises(ValueError, match=r"effective B=26\.6.*reduce B or use gradient_exact"):
        gradient_fast(inst, 1e-2)


def build_chain(inst, eps):
    """Softmax factors from the production path, then the explicit
    lemma chain on top of them."""
    u1, v1, _ = lowrank_softmax_factors(inst, eps)
    h = inst.A3 @ inst.Y
    return factor_chain(u1, v1, h, inst.E), h


def product(pair):
    u, v = pair
    return u @ v.T


def test_q_factors_shapes_and_exact_fit():
    inst = random_instance(24, 3, 0.7, seed=3)
    u1, v1, _ = lowrank_softmax_factors(inst, 1e-4)
    h = inst.A3 @ inst.Y
    e_fit = u1 @ (v1.T @ h)
    u2, v2 = factor_chain(u1, v1, h, e_fit)["q"]
    assert u2.shape[1] == v2.shape[1] == u1.shape[1] + inst.d
    assert np.abs(u2 @ v2.T).max() <= 1e-12


def test_q_factors_error_bound():
    inst = random_instance(64, 4, 0.8, seed=4)
    chain, h = build_chain(inst, 1e-4)
    u1, v1 = chain["f"]
    f, _ = compute_softmax(compute_exp_matrix(inst))
    c = f @ h - inst.E
    q = c @ h.T
    err_f = np.abs(u1 @ v1.T - f).max()
    c_tilde = u1 @ (v1.T @ h) - inst.E
    err_c = np.abs(c_tilde - c).max()
    err_q = np.abs(product(chain["q"]) - q).max()
    h_inf = np.abs(h).max()
    assert err_c <= inst.n * h_inf * err_f + 1e-15
    assert err_q <= inst.d * h_inf * err_c + 1e-15


def test_p1_factors_zero_q():
    inst = random_instance(8, 2, 0.5, seed=6)
    u1, v1, _ = lowrank_softmax_factors(inst, 1e-3)
    chain = factor_chain(u1, v1, np.zeros((8, 2)), np.zeros((8, 2)))
    assert np.abs(product(chain["p1"])).max() == 0.0


def test_p1_factors_match_entrywise_product():
    inst = random_instance(32, 3, 0.8, seed=7)
    chain, h = build_chain(inst, 1e-2)
    u3, v3 = chain["p1"]
    k1, k2 = chain["f"][0].shape[1], chain["q"][0].shape[1]
    assert u3.shape[1] == v3.shape[1] == k1 * k2
    f_tilde = product(chain["f"])
    q_tilde = product(chain["q"])
    assert np.abs(u3 @ v3.T - f_tilde * q_tilde).max() <= 1e-12


def test_p1_factors_error_vs_exact():
    inst = random_instance(64, 3, 0.8, seed=8)
    chain, h = build_chain(inst, 1e-2)
    f, _ = compute_softmax(compute_exp_matrix(inst))
    q = (f @ h - inst.E) @ h.T
    f_tilde = product(chain["f"])
    err_f = np.abs(f_tilde - f).max()
    err_q = np.abs(product(chain["q"]) - q).max()
    scale = max(np.abs(q).max(), np.abs(f_tilde).max())
    assert np.abs(product(chain["p1"]) - f * q).max() <= (err_f + err_q) * scale + 1e-15


def test_p2_factors_zero_q():
    inst = random_instance(8, 2, 0.5, seed=10)
    u1, v1, _ = lowrank_softmax_factors(inst, 1e-3)
    chain = factor_chain(u1, v1, np.zeros((8, 2)), np.zeros((8, 2)))
    assert np.abs(chain["p2"][0]).max() == 0.0


def test_p2_row_dots_identity():
    inst = random_instance(32, 3, 0.8, seed=11)
    chain, h = build_chain(inst, 1e-4)
    (u1, v1), (u2, v2) = chain["f"], chain["q"]
    r = ((u1 @ (v1.T @ v2)) * u2).sum(1)
    f_tilde = u1 @ v1.T
    q_tilde = u2 @ v2.T
    assert np.abs(r - (f_tilde * q_tilde).sum(1)).max() <= 1e-12


def test_p2_factors_error_vs_exact():
    inst = random_instance(64, 4, 0.8, seed=12)
    chain, h = build_chain(inst, 1e-4)
    u4, v4 = chain["p2"]
    assert u4.shape[1] == v4.shape[1] == chain["f"][0].shape[1]
    f, _ = compute_softmax(compute_exp_matrix(inst))
    q = (f @ h - inst.E) @ h.T
    p2_exact = (f * q).sum(1)[:, None] * f
    assert np.abs(u4 @ v4.T - p2_exact).max() <= 1e-6


def test_exactness_chain_at_zero_bound():
    # with a vanishing exp argument every factor product hits its
    # target: f, q, p1 = f * q, and p2 = diag(r) f
    inst = uniform_softmax_instance(32, 3, seed=20)
    chain, h = build_chain(inst, 1e-8)
    f, _ = compute_softmax(compute_exp_matrix(inst))
    q = (f @ h - inst.E) @ h.T
    p1 = f * q
    p2 = (f * q).sum(1)[:, None] * f
    assert np.abs(product(chain["f"]) - f).max() <= 1e-12
    assert np.abs(product(chain["q"]) - q).max() <= 1e-12
    assert np.abs(product(chain["p1"]) - p1).max() <= 1e-12
    assert np.abs(product(chain["p2"]) - p2).max() <= 1e-12


def test_factored_assembly_matches_gradient_fast():
    # the op-by-op factor chain and the fused contraction in
    # gradient_fast evaluate the same factorization
    inst = random_instance(48, 3, 0.8, seed=13)
    eps = 1e-3
    chain, h = build_chain(inst, eps)
    (u3, v3), (u4, v4) = chain["p1"], chain["p2"]
    G = (inst.A1.T @ u3) @ (v3.T @ inst.A2)
    G -= (inst.A1.T @ u4) @ (v4.T @ inst.A2)
    G /= inst.d
    res = gradient_fast(inst, eps)
    assert np.abs(res.g - G.ravel()).max() <= 1e-12


def test_block_boundaries_agree(monkeypatch):
    # query and key passes with one row per block, three rows per block
    # (n = 47 leaves a ragged last block) and a single block
    inst = random_instance(47, 3, 0.8, seed=13)
    per_row = gradient_fast(inst, 1e-3).info["k1"] + 4 ** 2
    results = []
    for entries in (1, 3 * per_row, inst.n * per_row):
        monkeypatch.setattr(lowrank, "FEATURE_ENTRIES", entries)
        results.append(gradient_fast(inst, 1e-3))
    for res in results[1:]:
        assert np.abs(res.G - results[0].G).max() <= 1e-14
        assert abs(res.info["loss"] - results[0].info["loss"]) <= 1e-14


@pytest.mark.parametrize("inst", [uniform_softmax_instance(64, 4, seed=14),
                                  random_instance(32, 3, 0.0, seed=15)])
def test_gradient_fast_loss_exact_at_zero_bound(inst):
    assert abs(gradient_fast(inst, 1e-6).info["loss"] - loss(inst)[0]) <= 1e-12


def test_gradient_fast_loss_accuracy():
    inst = random_instance(256, 8, 0.8, seed=16)
    exact, _ = loss(inst)
    assert abs(gradient_fast(inst, 1e-4).info["loss"] - exact) <= 1e-4 * exact


def test_gradient_fast_exact_at_zero_bound():
    inst = uniform_softmax_instance(64, 4, seed=14)
    res_fast = gradient_fast(inst, 1e-6)
    res_exact = gradient_exact(inst)
    assert res_fast.info["k1"] == 1
    assert np.abs(res_fast.g - res_exact.g).max() <= 1e-12
    assert np.abs(res_exact.g).max() > 1e-4  # nondegenerate check


def test_gradient_fast_fully_degenerate_bound():
    inst = random_instance(32, 3, 0.0, seed=15)
    res_fast = gradient_fast(inst, 1e-6)
    assert res_fast.info["k1"] == 1
    assert np.abs(res_fast.g - gradient_exact(inst).g).max() <= 1e-12


def test_gradient_fast_accuracy():
    inst = random_instance(256, 8, 0.8, seed=16)
    res = gradient_fast(inst, 1e-4)
    assert np.abs(res.g - gradient_exact(inst).g).max() <= 1e-4
    assert res.method == "fast"
    assert set(res.info) == {"degree", "eps_prime", "effective_B", "k1", "loss"}


def test_gradient_fast_small_at_optimum():
    inst = random_instance(128, 4, 0.8, seed=17, noise_sigma=0.0)
    eps = 1e-5
    res = gradient_fast(inst, eps)
    assert np.abs(res.g).max() <= eps


def test_error_monotone_in_eps():
    inst = random_instance(64, 4, 0.8, seed=18)
    f, _ = compute_softmax(compute_exp_matrix(inst))
    errs = []
    for eps in (1e-2, 5e-3, 2.5e-3, 1e-4, 1e-6, 1e-8):
        u1, v1, _ = lowrank_softmax_factors(inst, eps)
        errs.append(np.abs(u1 @ v1.T - f).max())
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-15


def test_gradient_fast_never_materializes_n_by_n():
    # allocation accounting: at n = 4096 an n x n float64 buffer is
    # 134 MB and n x k1 k2 is 45 MB; the fast path stays within a few
    # multiples of n x k1 (~1.1 MB here)
    inst = random_instance(4096, 4, 0.3, seed=19)
    gradient_fast(inst, 1e-3)  # warm any lazy allocations
    tracemalloc.start()
    res = gradient_fast(inst, 1e-3)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    k1 = res.info["k1"]
    budget = 20 * 8 * 4096 * max(k1, 8)
    assert peak < min(budget, 8 * 4096 * 4096 // 4)


def test_gradient_fast_memory_is_blocked(monkeypatch):
    # at a fixed degree (k1 = 165) the peak grows with n only through
    # the n x d arrays: no n x k1 factor is held. Blocks of about 1000
    # rows, so that both sizes span several.
    monkeypatch.setattr(lowrank, "FEATURE_ENTRIES", 1 << 18)
    peaks = []
    for n in (4096, 16384):
        inst = random_instance(n, 8, 0.3, seed=19)
        gradient_fast(inst, 1e-3)
        tracemalloc.start()
        res = gradient_fast(inst, 1e-3)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert res.info["k1"] == 165
    assert peaks[1] <= peaks[0] + 8 * 16384 * 8 * 4
