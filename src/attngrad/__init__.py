"""attngrad: exact and near-linear-time gradients for the single-layer
attention loss, with verification oracles and a hardness lab.

The API is imported from its modules: ``attngrad.forward``,
``attngrad.gradient``, ``attngrad.lowrank``, ``attngrad.oracles``,
``attngrad.hardness`` and ``attngrad.bench``. Importing the package
loads no numpy, so ``attngrad.cli`` can pin the BLAS/OpenMP pools
before numpy starts them.
"""

__version__ = "0.1.0"
