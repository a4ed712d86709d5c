"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria run at the pre-registered default study seed; they are
estimates with replicate-level noise, and the printed detail includes the
measured values so near-boundary outcomes can be judged.
"""

import math
import time

import numpy as np
import pytest

from dygauss.baselines import (
    derive_seed,
    laplace_approx,
    map_estimate,
    mc_approx,
    stream_rng,
)
from dygauss.metrics import frobenius_loss, ks_statistic
from dygauss.parametrization import TableSchema, corner_design, from_theta_star, to_theta_star
from dygauss.posterior import (
    CompoundSymmetryMatrix,
    DirichletParams,
    exact_min_kl,
    kl_bound,
    kl_to_gaussian,
    ld_moments,
    optimal_gaussian,
)
from dygauss.selection import lasso_path, pcr_select
from dygauss.simulate import SimulationConfig, aggregate_means, multinomial_sample, run_compare
from dygauss.specfun import chi2_quantile

from oracles import gauss_legendre, gumbel_normal_ks_limit, ks_logit_beta, ld_logpdf, logit_beta_moments

STUDY_SEED = 20240  # fixed before any acceptance run; never tuned afterwards
REPLICATE_Z = 3.0  # standard errors allowed between a replicate mean and its target

# Standard error of one 100-replicate mean per (metric, parametrization, N)
# cell: the per-replicate standard deviation over sqrt(100), measured on
# 20,000 `run_compare` replicates of the table_study design at seed 20241
# (independent of STUDY_SEED).
POPULATION_SE = {
    ("unexplained_variation_on", "identity", 250): 0.0417,
    ("unexplained_variation_on", "identity", 10_000): 0.0165,
    ("unexplained_variation_on", "corner", 250): 0.0157,
    ("unexplained_variation_on", "corner", 10_000): 0.00889,
    ("coverage_on", "identity", 250): 0.0111,
    ("coverage_on", "identity", 10_000): 0.00962,
    ("coverage_on", "corner", 250): 0.00589,
    ("coverage_on", "corner", 10_000): 0.00609,
}
# Largest accepted ratio of a run's own SE to POPULATION_SE, so that a defect
# which spreads the replicates cannot widen its own tolerance without bound.
# Of the 200 disjoint 100-replicate blocks behind POPULATION_SE, 4 exceed it,
# all in the heavy-tailed identity/N=10000 unexplained-variation cell.
SE_CAP = 2.0


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def random_beta(rng, d, lo=0.6, hi=50.0):
    return DirichletParams(rng.uniform(lo, hi, d + 1))


def test_criterion_01_optimality():
    """No Gaussian beats the moment-matched one, over 200 random suites."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gap = math.inf
    for _ in range(200):
        d = int(rng.integers(1, 17))
        beta = random_beta(rng, d)
        mean, cov = ld_moments(beta)
        dense = cov.to_dense()
        base = exact_min_kl(beta)
        assert kl_to_gaussian(beta, mean, cov) == pytest.approx(base, abs=1e-10)
        for _ in range(20):
            kind = rng.integers(0, 3)
            mu, sigma = mean, dense
            if kind == 0:  # mean shift, norm bounded away from zero
                shift = rng.normal(size=d)
                shift *= rng.uniform(0.05, 1.0) / max(np.linalg.norm(shift), 1e-12)
                mu = mean + shift
            elif kind == 1:  # diagonal scaling
                sigma = dense * float(rng.uniform(1.1, 3.0))
            else:  # random SPD mix carrying at least 5% of the trace
                m = rng.normal(size=(d, d))
                bump = m @ m.T + 1e-3 * np.eye(d)
                bump *= rng.uniform(0.05, 0.5) * np.trace(dense) / np.trace(bump)
                sigma = dense + bump
            value = kl_to_gaussian(beta, mu, sigma)
            assert value >= base - 1e-10
            worst_gap = min(worst_gap, value - base)
    elapsed = time.perf_counter() - start
    ok = worst_gap > 1e-10 and elapsed < 60
    announce(1, ok, f"200 suites x 20 perturbations, min gap {worst_gap:.3e}, {elapsed:.1f}s")
    assert worst_gap > 1e-10  # equality only at the unperturbed moments
    assert elapsed < 60


def test_criterion_02_kl_bound_and_quadrature():
    """Closed-form minimum KL sits under the analytic bound and matches
    quadrature in one dimension."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    margin = math.inf
    for _ in range(200):
        d = int(rng.integers(1, 17))
        beta = random_beta(rng, d, lo=0.51, hi=60.0)
        value, valid = kl_bound(beta)
        assert valid
        margin = min(margin, value - exact_min_kl(beta))
        assert exact_min_kl(beta) < value + 1e-10

    worst_quad = 0.0
    nodes, weights = gauss_legendre(-70.0, 70.0, 1500)
    for _ in range(6):
        beta = DirichletParams(rng.uniform(0.6, 5.0, 2))
        mean, cov = ld_moments(beta)
        var = cov.to_dense()[0, 0]
        logp = ld_logpdf(nodes[:, None], beta.beta)
        logphi = -0.5 * np.log(2 * math.pi * var) - 0.5 * (nodes - mean[0]) ** 2 / var
        quad = float(np.sum(weights * np.exp(logp) * (logp - logphi)))
        worst_quad = max(worst_quad, abs(quad - exact_min_kl(beta)))
        assert quad == pytest.approx(exact_min_kl(beta), abs=1e-4)
    elapsed = time.perf_counter() - start
    ok = margin > 0 and elapsed < 60
    announce(
        2, ok, f"bound margin >= {margin:.3e}, worst 1-d quadrature gap {worst_quad:.2e}, {elapsed:.1f}s"
    )
    assert margin > 0
    assert elapsed < 60


def test_criterion_03_moment_correctness():
    """Million-draw Monte Carlo at d = 7 agrees with the digamma/trigamma
    moments within four standard errors."""
    start = time.perf_counter()
    beta = DirichletParams(np.array([3.0, 1.0, 5.0, 2.0, 1.0, 8.0, 2.0, 4.0]))
    mean, cov = ld_moments(beta)
    mc = 1_000_000
    draws = mc_approx(beta, mc, seed=303).draws
    centered = draws - draws.mean(axis=0)

    se_mean = draws.std(axis=0) / math.sqrt(mc)
    mean_err = np.abs(draws.mean(axis=0) - mean)
    assert np.all(mean_err < 4 * se_mean)

    sample_cov = (centered.T @ centered) / (mc - 1)
    sq = centered * centered
    fourth = (sq.T @ sq) / mc
    cov_se = np.sqrt(np.maximum(fourth - sample_cov**2, 1e-30) / mc)
    cov_err = np.abs(sample_cov - cov.to_dense())
    assert np.all(cov_err < 4 * cov_se)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120
    announce(
        3,
        ok,
        f"max |mean err|/se {float(np.max(mean_err / se_mean)):.2f}, "
        f"max |cov err|/se {float(np.max(cov_err / cov_se)):.2f}, {elapsed:.1f}s",
    )
    assert elapsed < 120


def test_criterion_04_covariance_loss_band():
    """Scaled Table-3 check: relative Frobenius error of the Monte Carlo
    covariance at mc = 1e5 lands in the published band."""
    start = time.perf_counter()
    d = 255
    losses = []
    base = derive_seed(STUDY_SEED, 404)
    for rep in range(10):
        rng = stream_rng(base, rep)
        alpha = np.ones(d + 1)
        g = np.log(rng.gamma(alpha + 1.0)) + np.log(1.0 - rng.random(d + 1))
        pif = np.exp(g - g.max())
        pif /= pif.sum()
        y = multinomial_sample(10_000, pif, rng)
        beta = DirichletParams(alpha + y)
        _, cov = ld_moments(beta)
        draws = mc_approx(beta, 100_000, seed=derive_seed(base, rep, 1)).draws
        losses.append(frobenius_loss(np.cov(draws.T), cov.to_dense()))
    mean_loss = float(np.mean(losses))
    elapsed = time.perf_counter() - start
    ok = 0.005 <= mean_loss <= 0.02 and elapsed < 600
    announce(4, ok, f"mean relative Frobenius loss {mean_loss:.4f} over 10 replicates, {elapsed:.0f}s")
    assert 0.005 <= mean_loss <= 0.02
    assert elapsed < 600


@pytest.fixture(scope="module")
def table_study():
    start = time.perf_counter()
    cfg = SimulationConfig(
        levels=(2,) * 8,
        sample_sizes=(250, 10_000),
        prior_a=(1.0,),
        mc_sizes=(),
        replicates=100,
        seed=STUDY_SEED,
        parametrizations=("identity", "corner"),
        ks_coords=0,
        timing_repeats=1,
    )
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        rows = run_compare(cfg, out_dir=td)
    per_replicate: dict[tuple, list[float]] = {}
    for row in rows:
        key = (row.metric, row.parametrization, row.sample_size, row.mc)
        per_replicate.setdefault(key, []).append(row.value)
    return aggregate_means(rows), per_replicate, time.perf_counter() - start


def standard_error(values) -> float:
    """Standard error of a replicate mean: ddof=1 spread over sqrt(R)."""
    return float(np.std(values, ddof=1)) / math.sqrt(len(values))


def assert_se_within_cap(key, se) -> None:
    assert se <= SE_CAP * POPULATION_SE[key], (
        f"{key}: replicate SE {se:.4f} exceeds {SE_CAP:g} x the population SE "
        f"{POPULATION_SE[key]:.4f}; the replicates spread far more than the method's do"
    )


def test_criterion_05_table1_replication(table_study):
    """Mean unexplained variation for the closed-form approximation against
    the published values, p = 8, R = 100, N in {250, 10000}.

    Each published value is itself an R = 100 mean of the same heavy-tailed
    statistic, so a cell is held to a two-sample bound: |measured - target|
    <= z * sqrt(2) * SE, with SE the standard error of the measured mean,
    computed from this run's own replicates and itself held to at most
    SE_CAP times the cell's POPULATION_SE.
    """
    means, per_replicate, elapsed = table_study
    targets = {
        ("identity", 250): 0.98,
        ("identity", 10_000): 0.35,
        ("corner", 250): 0.81,
        ("corner", 10_000): 0.27,
    }
    cells = {}
    for par, n in targets:
        key = ("unexplained_variation_on", par, n, 0)
        se = standard_error(per_replicate[key])
        cells[(par, n)] = (means[key], se, REPLICATE_Z * math.sqrt(2.0) * se)
    capped = all(
        se <= SE_CAP * POPULATION_SE[("unexplained_variation_on", *c)]
        for c, (_, se, _) in cells.items()
    )
    ok = capped and all(abs(m - targets[c]) <= tol for c, (m, _, tol) in cells.items())
    detail = ", ".join(
        f"{par}/N={n}: {m:.4f} (SE {se:.4f}, population "
        f"{POPULATION_SE[('unexplained_variation_on', par, n)]:.4f}; target "
        f"{targets[(par, n)]:.2f} +- {tol:.3f})"
        for (par, n), (m, se, tol) in cells.items()
    )
    announce(5, ok and elapsed < 900, f"{detail}, {elapsed:.0f}s")
    assert elapsed < 900
    for (par, n), (_, se, _) in cells.items():
        assert_se_within_cap(("unexplained_variation_on", par, n), se)
    for cell, (m, se, tol) in cells.items():
        assert abs(m - targets[cell]) <= tol, (
            f"unexplained variation at {cell}: {m:.4f} (SE {se:.4f}) vs published "
            f"{targets[cell]} +- {tol:.4f} ({REPLICATE_Z:g} * sqrt(2) * SE). The paper's "
            "abstract does not give the simulation design, so it is not settled whether a "
            "published value is the paper's own R = 100 realization of this design (at "
            "identity/N=250 the population mean under this design is 1.07 +- 0.003, about 2.2 "
            "SE of an R = 100 mean above the published 0.98) or comes from a different design"
        )


def test_criterion_06_table2_replication(table_study):
    """Coverage of 95% intervals: the band [0.93, 0.97] within z standard
    errors of every cell's mean, and 0.95 +- 0.02 at N = 10,000.

    The band is a statement about expected coverage; the measured value is
    one R = 100 mean, so a cell fails only when the band lies more than
    z * SE from it, with SE taken from this run's own replicates and held to
    at most SE_CAP times the cell's POPULATION_SE.
    """
    means, per_replicate, _ = table_study
    lo, hi = 0.93, 0.97
    cells = {}
    for par in ("identity", "corner"):
        for n in (250, 10_000):
            key = ("coverage_on", par, n, 0)
            v = means[key]
            cells[(par, n)] = (v, standard_error(per_replicate[key]), max(lo - v, v - hi, 0.0))
    capped = all(
        se <= SE_CAP * POPULATION_SE[("coverage_on", *c)] for c, (_, se, _) in cells.items()
    )
    ok = (
        capped
        and all(gap <= REPLICATE_Z * se for v, se, gap in cells.values())
        and all(abs(cells[(par, 10_000)][0] - 0.95) <= 0.02 for par in ("identity", "corner"))
    )
    detail = ", ".join(
        f"{par}/N={n}: {v:.4f} (SE {se:.4f}, population "
        f"{POPULATION_SE[('coverage_on', par, n)]:.4f}; {gap:.4f} outside the band)"
        for (par, n), (v, se, gap) in cells.items()
    )
    announce(6, ok, detail)
    for (par, n), (_, se, _) in cells.items():
        assert_se_within_cap(("coverage_on", par, n), se)
    for cell, (v, se, gap) in cells.items():
        assert gap <= REPLICATE_Z * se, (
            f"coverage at {cell}: {v:.4f} (SE {se:.4f}) lies {gap:.4f} outside [{lo}, {hi}], "
            f"more than {REPLICATE_Z:g} SE = {REPLICATE_Z * se:.4f}"
        )
    for par in ("identity", "corner"):
        assert abs(cells[(par, 10_000)][0] - 0.95) <= 0.02


def test_criterion_07_ks_marginals():
    """One replicate at N = 10,000, d = 255, mc = 1e6: KS statistics of 20
    random coordinates against the Gaussian marginals.

    Each coordinate's exact posterior marginal is logit-Beta(b_j, b_0), so
    its exact KS distance to the Gaussian is computed by an oracle. The
    Monte Carlo statistic must agree with it within the DKW-Massart bound
    eps = sqrt(ln(2 / delta) / (2 mc)) at delta = 1e-6, and the median
    statistic must be below 0.02 ("most below 0.02").

    The Gumbel-vs-normal limit is the supremum of the exact distance over
    b_j, b_0 >= 1 for the moment-matched Gaussian, so "every exact distance
    below it" holds whenever the Gaussian's moments are right: it checks
    only those moments, which are also compared directly with scipy's
    digamma and trigamma.
    """
    start = time.perf_counter()
    d = 255
    mc = 1_000_000
    rng = stream_rng(STUDY_SEED, 707)
    alpha = np.ones(d + 1)
    g = np.log(rng.gamma(alpha + 1.0)) + np.log(1.0 - rng.random(d + 1))
    pif = np.exp(g - g.max())
    pif /= pif.sum()
    y = multinomial_sample(10_000, pif, rng)
    beta = DirichletParams(alpha + y)
    gauss = optimal_gaussian(beta)
    sd = np.sqrt(gauss.variances())
    coords = rng.choice(d, size=20, replace=False)

    draws = mc_approx(beta, mc, seed=derive_seed(STUDY_SEED, 708)).draws
    stats = np.array([ks_statistic(draws[:, j], gauss.mean[j], sd[j]) for j in coords])
    del draws
    b = beta.beta
    matched = np.array([logit_beta_moments(b[j + 1], b[0]) for j in coords])
    np.testing.assert_allclose(gauss.mean[coords], matched[:, 0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sd[coords], matched[:, 1], rtol=1e-12)
    exact = np.array([ks_logit_beta(b[j + 1], b[0], gauss.mean[j], sd[j]) for j in coords])
    eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * mc))
    limit = gumbel_normal_ks_limit()
    elapsed = time.perf_counter() - start
    mc_gap = float(np.max(np.abs(stats - exact)))
    median = float(np.median(stats))
    ok = mc_gap <= eps and exact.max() < limit and median < 0.02 and elapsed < 300
    announce(
        7,
        ok,
        f"20 coordinates, max KS {stats.max():.5f} (exact {exact.max():.5f}, Gumbel limit "
        f"{limit:.5f}), max |KS - exact| {mc_gap:.5f} (DKW {eps:.5f}), median {median:.4f}, "
        f"{elapsed:.0f}s",
    )
    for j, s, e in zip(coords, stats, exact):
        assert abs(s - e) <= eps, (
            f"coordinate {j} (b_j = {b[j + 1]:g}, b_0 = {b[0]:g}): Monte Carlo KS {s:.5f} vs "
            f"exact {e:.5f}, beyond the DKW bound {eps:.5f}"
        )
        assert e < limit, (
            f"coordinate {j}: exact KS {e:.5f} not below the Gumbel-vs-normal limit {limit:.5f}"
        )
    assert median < 0.02, f"median KS {median:.4f} not below 0.02"
    assert elapsed < 300


def test_criterion_08_laplace_and_timing():
    """Newton MAP agrees with its closed form at d = 255, the Laplace fit is
    strictly KL-worse than the optimum, and the closed-form approximation
    computes in under 50 ms."""
    start = time.perf_counter()
    d = 255
    rng = stream_rng(STUDY_SEED, 808)
    alpha = np.ones(d + 1)
    g = np.log(rng.gamma(alpha + 1.0)) + np.log(1.0 - rng.random(d + 1))
    pif = np.exp(g - g.max())
    pif /= pif.sum()
    y = multinomial_sample(10_000, pif, rng)
    beta = DirichletParams(alpha + y)

    theta_hat = map_estimate(beta)
    closed = np.log(beta.beta[1:] / beta.beta[0])
    map_err = float(np.abs(theta_hat - closed).max())
    assert map_err < 1e-8

    gap_min = math.inf
    suite_rng = np.random.default_rng(809)
    for _ in range(50):
        dd = int(suite_rng.integers(1, 13))
        b = random_beta(suite_rng, dd, lo=0.4, hi=40.0)
        lap = laplace_approx(b)
        gap = kl_to_gaussian(b, lap.mean, lap.cov) - exact_min_kl(b)
        gap_min = min(gap_min, gap)
        assert gap > 0

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        optimal_gaussian(beta)
        times.append(time.perf_counter() - t0)
    median_ms = 1000.0 * float(np.median(times))
    elapsed = time.perf_counter() - start
    ok = map_err < 1e-8 and gap_min > 0 and median_ms < 50.0
    announce(
        8,
        ok,
        f"MAP deviation {map_err:.2e}, min Laplace KL gap {gap_min:.2e}, "
        f"closed-form approximation {median_ms:.2f} ms at d=255, {elapsed:.1f}s",
    )
    assert median_ms < 50.0


def test_criterion_09_structured_algebra():
    """Compound-symmetry solve / log-determinant / Mahalanobis match dense
    linear algebra to 1e-10 up to d = 256."""
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for d in (2, 8, 32, 128, 256):
        for _ in range(5):
            m = CompoundSymmetryMatrix(rng.uniform(0.1, 6.0, d), float(rng.uniform(0.02, 3.0)))
            dense = m.to_dense()
            v = rng.normal(size=d)
            worst = max(worst, float(np.abs(m.solve(v) - np.linalg.solve(dense, v)).max()))
            worst = max(worst, abs(m.logdet() - np.linalg.slogdet(dense)[1]))
            worst = max(worst, abs(float(v @ m.solve(v)) - float(v @ np.linalg.solve(dense, v))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30
    announce(9, ok, f"worst structured-vs-dense deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 30


def test_criterion_10_corner_parametrization():
    """The 2^3 corner design matrix is exact and coordinate round trips hold
    to 1e-10 at d = 255."""
    from test_parametrization import THREE_WAY_MATRIX

    design3 = corner_design(TableSchema((2, 2, 2)))
    exact = np.array_equal(design3.entries, THREE_WAY_MATRIX)
    assert exact

    rng = np.random.default_rng(1010)
    design8 = corner_design(TableSchema((2,) * 8))
    worst = 0.0
    for _ in range(5):
        theta = rng.normal(size=255) * 3.0
        back = from_theta_star(to_theta_star(theta, design8), design8)
        worst = max(worst, float(np.abs(back - theta).max()))
    ok = exact and worst < 1e-10
    announce(10, ok, f"2^3 matrix exact: {exact}, worst d=255 round-trip error {worst:.2e}")
    assert worst < 1e-10


def test_criterion_11_selection_contract():
    """KKT certificates hold on every emitted path point, the selected model
    is verified sparsest-feasible by exhaustive scan, the identity-covariance
    path matches soft thresholding, and the two synthetic 2x2 tables select
    the expected supports. (The published real-data FDR/F1 needs the external
    reference graph and dataset, so it is replaced by these checks.)"""
    start = time.perf_counter()
    rng = np.random.default_rng(1111)

    worst_kkt = 0.0
    for d in (3, 8, 16, 32):
        m = rng.normal(size=(d, d))
        sigma = m @ m.T + 0.3 * np.eye(d)
        theta = rng.normal(size=d) * 2.0
        path = lasso_path(theta, sigma, n_lambda=60)
        sigma_inv = np.linalg.inv(sigma)
        for lam, coef in zip(path.lambdas, path.coefs):
            grad = 2.0 * sigma_inv @ (coef - theta)
            for j, c in enumerate(coef):
                if abs(c) > 1e-10:
                    worst_kkt = max(worst_kkt, abs(grad[j] + lam * np.sign(c)))
                else:
                    worst_kkt = max(worst_kkt, max(0.0, abs(grad[j]) - lam))
        result = pcr_select(path, theta, sigma, alpha=0.1)
        if not result.fallback:
            feasible = [
                len(s)
                for s, c in zip(path.supports, path.coefs)
                if (theta - c) @ np.linalg.solve(sigma, theta - c) <= result.delta_max
            ]
            assert len(result.support) == min(feasible)
    assert worst_kkt < 1e-6

    theta = rng.normal(size=6) * 2.0
    path = lasso_path(theta, np.eye(6), n_lambda=50, lambda_min_ratio=1e-4)
    soft_ok = all(
        np.allclose(c, np.sign(theta) * np.maximum(np.abs(theta) - lam / 2.0, 0.0), atol=1e-9)
        for lam, c in zip(path.lambdas, path.coefs)
    )
    assert soft_ok

    from dygauss.parametrization import ContingencyTable
    from dygauss.posterior import transform_gaussian

    def select_counts(counts):
        table = ContingencyTable(TableSchema((2, 2)), np.asarray(counts))
        beta = DirichletParams(1.0 + table.counts)
        design = corner_design(table.schema)
        gauss = transform_gaussian(optimal_gaussian(beta), design)
        p = lasso_path(gauss.mean, gauss.cov)
        return pcr_select(p, gauss.mean, gauss.cov, alpha=0.1), design.labels

    dependent, labels = select_counts([50, 5, 5, 50])
    dep_labels = [labels[j].tolist() for j in dependent.support]
    assert [1, 1] in dep_labels

    independent, labels = select_counts([25, 25, 25, 25])
    ind_labels = [labels[j].tolist() for j in independent.support]
    assert [1, 1] not in ind_labels

    elapsed = time.perf_counter() - start
    ok = worst_kkt < 1e-6 and soft_ok
    announce(
        11,
        ok,
        f"worst KKT residual {worst_kkt:.2e}, soft-threshold match {soft_ok}, "
        f"interaction kept on the dependent table and dropped on the independent one, "
        f"{elapsed:.1f}s",
    )


def test_delta_max_uses_chi_square_quantile():
    """Companion check: the selection threshold is the stated quantile."""
    theta = np.array([1.0, 0.5, 0.2])
    path = lasso_path(theta, np.eye(3))
    result = pcr_select(path, theta, np.eye(3), alpha=0.1)
    assert result.delta_max == pytest.approx(chi2_quantile(0.9, 2), abs=1e-9)
