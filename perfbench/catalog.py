"""Names and units of every metric the benchmark reports.

numpy-free, so that run.py can read it before the thread pools are
pinned.
"""

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_mb": "MB",
}

# per-layer metrics read directly as the median self time of one span
SPAN_METRICS = {
    "forward.softmax_cache_s": "forward.softmax_cache",
    "gradient.compute_q_s": "gradient.compute_q",
    "gradient.compute_p_s": "gradient.compute_p",
    "gradient.exact_s": "gradient.gradient_exact",
    "lowrank.select_degree_s": "lowrank.select_degree",
    "lowrank.factors_s": "lowrank.lowrank_softmax_factors",
    "lowrank.fast_s": "lowrank.gradient_fast",
    "forward.attention_instance_s": "forward.AttentionInstance",
    "cli.verify_s": "cli.verify",
    "cli.hardness_s": "cli.hardness",
    "oracles.finite_diff_s": "oracles.finite_diff_gradient",
    "oracles.brute_s": "oracles.brute_kron_gradient",
    "hardness.riemann_reduction_s": "hardness.riemann_reduction",
    "hardness.gradient_to_forward_s": "hardness.gradient_to_forward",
}

# (B, eps) cells of the degree-selection probe grid, at d = 8
GRID_D = 8
GRID_B = (0.5, 0.8, 1.5, 2.5)
GRID_EPS = {"1e-2": 1e-2, "1e-4": 1e-4}


def grid_metric(B: float, eps_label: str) -> str:
    return f"lowrank.k1_B{B}_eps{eps_label}"


PER_LAYER = {
    "trace_overhead_frac": "fraction",
    "lowrank.key_shared_frac": "fraction",
    **{name: "s" for name in SPAN_METRICS},
    "gradient.contract_s": "s",
    "gradient.exact_gflop": "GFLOP",
    "gradient.exact_gb": "GB",
    "gradient.exact_gflops": "GFLOP/s",
    "lowrank.chain_s": "s",
    "lowrank.fast_gflop": "GFLOP",
    "lowrank.fast_gb": "GB",
    "lowrank.fast_gflops": "GFLOP/s",
    "lowrank.degree": "count",
    "lowrank.k1": "count",
    "lowrank.factor_mb": "MB",
    "core.read_matrix_mb_per_s": "MB/s",
    **{grid_metric(B, label): "count" for B in GRID_B for label in GRID_EPS},
    "lowrank.grid_refused": "count",
}
