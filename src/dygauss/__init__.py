"""Gaussian posterior approximation for multinomial log-linear models under
conjugate priors, with exact KL diagnostics, Monte Carlo and Laplace
baselines, penalized-credible-region model selection, and a reproducible
simulation harness.
"""

from .baselines import (
    NewtonError,
    SampleBatch,
    derive_seed,
    laplace_approx,
    map_estimate,
    mc_approx,
    stream_rng,
)
from .metrics import (
    MetricReport,
    coverage,
    empirical_intervals,
    frobenius_loss,
    gaussian_intervals,
    ks_statistic,
    unexplained_variation,
)
from .parametrization import (
    ContingencyTable,
    DesignMatrix,
    TableSchema,
    canonical_cell_order,
    corner_design,
    from_theta_star,
    identity_design,
    marginalize,
    to_theta_star,
)
from .posterior import (
    CompoundSymmetryMatrix,
    DirichletParams,
    GaussianApprox,
    KLBound,
    cs_logdet,
    cs_mahalanobis,
    cs_solve,
    dy_update,
    exact_min_kl,
    kl_bound,
    kl_to_gaussian,
    ld_moments,
    optimal_gaussian,
    transform_gaussian,
)
from .selection import (
    ConfusionCounts,
    LassoConvergenceError,
    LassoPath,
    SelectionResult,
    edge_confusion,
    lasso_path,
    mahalanobis_delta,
    pcr_select,
)
from .simplex import (
    SimplexPoint,
    dirichlet_logpdf,
    jacobian_logdet_inv,
    ld_logpdf,
    log_dirichlet_norm,
    log_ratio,
    logistic,
)
from .simulate import SimulationConfig, aggregate_means, multinomial_sample, run_compare
from .specfun import (
    chi2_cdf,
    chi2_quantile,
    digamma,
    log_gamma,
    normal_cdf,
    normal_quantile,
    reg_lower_gamma,
    trigamma,
)
from .tableio import InputError, load_table, save_table_csv, save_table_json

__version__ = "0.1.0"
