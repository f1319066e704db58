"""attngrad: exact and near-linear-time gradients for the single-layer
attention loss, with verification oracles and a hardness lab.

Importing the package loads no numpy: the entry points below resolve
from their modules on first access, so ``attngrad.cli`` can pin the
BLAS/OpenMP pools before numpy starts them.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "AttentionInstance": "forward",
    "random_instance": "forward",
    "load_instance": "forward",
    "save_instance": "forward",
    "loss": "forward",
    "gradient_exact": "gradient",
    "gradient_fast": "lowrank",
    "finite_diff_gradient": "oracles",
    "brute_kron_gradient": "oracles",
    "factor_chain": "oracles",
    "compare": "oracles",
    "gen_hard_instance": "hardness",
    "riemann_reduction": "hardness",
    "gradient_to_forward": "hardness",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
