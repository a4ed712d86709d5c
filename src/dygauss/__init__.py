"""Gaussian posterior approximation for multinomial log-linear models under
conjugate priors, with exact KL diagnostics, Monte Carlo and Laplace
baselines, penalized-credible-region model selection, and a reproducible
simulation harness.

Names are imported from their modules (``dygauss.posterior``,
``dygauss.selection``, ...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
