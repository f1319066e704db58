"""Low-rank fast path: degree selection, the monomial feature map, and
the streamed near-linear gradient against its dense Taylor-kernel
reference."""

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
from attngrad.hardness import factorized_hard_instance, hard_attention_instance
from attngrad.oracles import brute_kron_gradient, taylor_gradient


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


@pytest.mark.parametrize("B, eps_prime, message", [
    (math.nan, 1e-6, "B must be finite and nonnegative, got nan"),
    (math.inf, 1e-6, "B must be finite and nonnegative, got inf"),
    (-1.0, 1e-6, "B must be finite and nonnegative, got -1.0"),
    (1.0, math.nan, "eps_prime must be positive, got nan"),
    (1.0, 0.0, "eps_prime must be positive, got 0.0"),
])
def test_select_degree_refuses_unsized_inputs(B, eps_prime, message):
    with pytest.raises(ValueError, match=message):
        select_degree(B, eps_prime, 4)


@pytest.mark.parametrize("B", [10.0, 26.7])
def test_select_degree_overflow_names_the_bound(B):
    # d = 1 never reaches the rank cap: t ** (g + 1) overflows from B = 10,
    # exp(B**2) from B = 26.7
    with pytest.raises(ValueError, match=f"B={B:g}: .* overflows float64; reduce B"):
        select_degree(B, 1e-6, 1)


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
        gradient_fast(inst, eps)
    with pytest.raises(ValueError, match="nonpositive row sum"):
        taylor_gradient(inst, 19)


def cancelling_instance(b, seed):
    """d = 1 instance whose scores reach -b**2 on half the rows, where
    the Taylor polynomial loses everything to float64 cancellation."""
    rng = np.random.default_rng(seed)
    a1 = np.full((64, 1), -b)
    a1[:32] = b * rng.uniform(-1.0, 1.0, (32, 1))
    a2 = b * rng.uniform(0.0, 1.0, (64, 1))
    a2[0] = b
    return AttentionInstance(A1=a1, A2=a2, A3=rng.uniform(-1.0, 1.0, (64, 1)),
                             E=rng.normal(size=(64, 1)), X=[[1.0]], Y=[[1.0]], B=b)


def test_fast_path_refuses_underflowing_target():
    # the entrywise target eps e^(-2T) / (8d) lies below float64 rounding
    # at e^T, and the error must say what to change
    b, ten = np.sqrt(708.9), np.full((4, 1), 10.0)
    cases = [
        # effective B = sqrt(708.9): the target exp(-2 B^2) underflows to 0
        (AttentionInstance(A1=np.full((4, 1), b), A2=np.full((4, 1), b), A3=np.ones((4, 1)),
                           E=np.ones((4, 1)), X=[[1.0]], Y=[[1.0]], B=b), r"26\.6252"),
        # the Taylor remainder t ** (g + 1) overflowed a Python float
        (AttentionInstance(A1=ten, A2=ten, A3=np.ones((4, 1)), E=np.ones((4, 1)),
                           X=[[1.0]], Y=[[1.0]], B=10.0), "10"),
        # silently wrong before: misses of 0.47 against max|G| = 6.4 and
        # of 0.18 against max|G| = 0.062
        (cancelling_instance(5.5, 0), r"5\.5"),
        (cancelling_instance(5.8, 1), r"5\.8"),
    ]
    for inst, label in cases:
        with pytest.raises(ValueError,
                           match=rf"effective B={label} is too large.*reduce B or use gradient_exact"):
            gradient_fast(inst, 1e-2)


def force_degree(monkeypatch, g):
    """Make gradient_fast use degree g whatever eps asks for."""
    def select(B, eps_prime, d):
        return PolyConfig(B=B, eps_prime=eps_prime, g=g, d=d, m_feat=math.comb(d + g, g))
    monkeypatch.setattr(lowrank, "select_degree", select)


def hard_instance(n, d, B, lam, seed):
    hi, q, k = factorized_hard_instance(n, d, B, seed=seed)
    return hard_attention_instance(q, k, hi.V, lam)


REFERENCE_INSTANCES = {
    "random-B0.8": random_instance(64, 4, 0.8, seed=21),
    "random-B1.5": random_instance(64, 4, 1.5, seed=22),
    "hard-lam1": hard_instance(64, 4, 2.0, 1.0, seed=23),
}


@pytest.mark.parametrize("g", range(5))
@pytest.mark.parametrize("name", REFERENCE_INSTANCES)
def test_gradient_fast_matches_taylor_reference(monkeypatch, name, g):
    # at the same degree the streamed chain and the dense P_g kernel
    # compute one function; both miss gradient_exact by far more
    inst = REFERENCE_INSTANCES[name]
    force_degree(monkeypatch, g)
    fast = gradient_fast(inst, 1e-2)
    ref = taylor_gradient(inst, g)
    assert fast.info["degree"] == g and ref.method == "taylor"
    scale = np.abs(ref.G).max()
    assert np.abs(fast.G - ref.G).max() <= 1e-12 * scale
    assert abs(fast.info["loss"] - ref.info["loss"]) <= 1e-12 * ref.info["loss"]
    assert np.abs(fast.G - gradient_exact(inst).G).max() > 1e-9 * scale


def test_taylor_reference_is_exact_gradient_at_high_degree():
    # once P_g = exp to 1e-16 on [-B^2, B^2] the reference is the exact
    # gradient, checked against the brute-force lifted assembly
    inst = random_instance(16, 4, 0.8, seed=24)
    g = next(g for g in range(40) if taylor_remainder(inst.B, g) <= 1e-16)
    ref = taylor_gradient(inst, g)
    assert np.abs(ref.G - brute_kron_gradient(inst).G).max() <= 1e-10
    assert abs(ref.info["loss"] - loss(inst)[0]) <= 1e-12
    with pytest.raises(ValueError, match="nonnegative"):
        taylor_gradient(inst, -1)


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
    assert res.info["effective_B"] == math.sqrt(inst.score_bound)


def test_gradient_fast_small_at_optimum():
    inst = random_instance(128, 4, 0.8, seed=17, noise_sigma=0.0)
    eps = 1e-5
    res = gradient_fast(inst, eps)
    assert np.abs(res.g).max() <= eps


def test_error_monotone_in_eps():
    # the softmax of the dense P_g kernel at the degree gradient_fast picks
    inst = random_instance(64, 4, 0.8, seed=18)
    f, _ = compute_softmax(compute_exp_matrix(inst))
    s = inst.A1 @ inst.X @ inst.A2.T / inst.d
    errs = []
    for eps in (1e-2, 5e-3, 2.5e-3, 1e-4, 1e-6, 1e-8):
        g = gradient_fast(inst, eps).info["degree"]
        ft, _ = compute_softmax(sum(s ** l / math.factorial(l) for l in range(g + 1)))
        errs.append(np.abs(ft - f).max())
        assert errs[-1] <= eps
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
