"""Independent oracles used to fix expected values: direct series with tail
brackets, numerical quadrature, and bisection. None of these share code with
the implementation under test.
"""

import csv
import math

import numpy as np
from scipy import integrate, optimize, special


def log_gamma_quad(z: float) -> float:
    """log of the defining integral of Gamma(z)."""
    val, _ = integrate.quad(lambda t: t ** (z - 1.0) * math.exp(-t), 0, np.inf)
    return math.log(val)


def euler_gamma_series(n: int = 10**6) -> float:
    """Euler-Mascheroni constant by Euler-Maclaurin-corrected harmonic sum."""
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    return harmonic - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


def trigamma_bracket(z: float, m: int = 2_000_000) -> tuple[float, float]:
    """Bracket of sum_{j>=0} 1/(z+j)^2 from partial sums plus integral tail bounds."""
    j = np.arange(m, dtype=float)
    partial = float(np.sum(1.0 / (z + j) ** 2))
    return partial + 1.0 / (z + m), partial + 1.0 / (z + m - 1.0)


def normal_cdf_simpson(x: float) -> float:
    """Phi(x) by Simpson quadrature of the density from 0."""
    xs = np.linspace(0.0, x, 20001)
    pdf = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    return 0.5 + float(integrate.simpson(pdf, x=xs))


def chi2_cdf_quad(x: float, k: int) -> float:
    def pdf(t):
        return math.exp((k / 2 - 1) * math.log(t) - t / 2 - (k / 2) * math.log(2) - math.lgamma(k / 2))

    val, _ = integrate.quad(pdf, 0, x, limit=200)
    return val


def chi2_quantile_bisect(p: float, k: int) -> float:
    lo, hi = 1e-12, 1.0
    while chi2_cdf_quad(hi, k) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_quad(mid, k) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for Gauss-Legendre quadrature on [lo, hi]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * weights


def logit_beta_cdf(t, a: float, b: float):
    """P(log(X / (1 - X)) <= t) for X ~ Beta(a, b), i.e. I_{sigma(t)}(a, b).

    This is the exact marginal of a log ratio log(pi_j / pi_0) when pi is
    Dirichlet with concentration a on cell j and b on the baseline cell 0.
    """
    return special.betainc(a, b, special.expit(np.asarray(t, dtype=float)))


def ks_distance(cdf, mean: float, sd: float) -> float:
    """sup_t |cdf(t) - Phi((t - mean) / sd)| for a continuous cdf.

    The supremum is located on a 20,001-point grid over mean +- 12 sd and
    then refined by a bounded scalar search between the grid neighbours of
    the best grid point.
    """
    n_grid = 20_001
    grid = mean + sd * np.linspace(-12.0, 12.0, n_grid)

    def gap(t):
        return np.abs(cdf(t) - special.ndtr((t - mean) / sd))

    values = gap(grid)
    k = int(np.argmax(values))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, n_grid - 1)]
    refined = optimize.minimize_scalar(
        lambda t: -float(gap(t)), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
    )
    return max(float(values[k]), -float(refined.fun))


def logit_beta_moments(a: float, b: float) -> tuple[float, float]:
    """Mean psi(a) - psi(b) and standard deviation sqrt(psi'(a) + psi'(b)) of
    the logit-Beta(a, b) law."""
    mean = float(special.digamma(a) - special.digamma(b))
    return mean, math.sqrt(float(special.polygamma(1, a) + special.polygamma(1, b)))


def ks_logit_beta(a: float, b: float, mean: float | None = None, sd: float | None = None) -> float:
    """Exact KS distance between the logit-Beta(a, b) law and a Gaussian,
    by default the moment-matched one (`logit_beta_moments`)."""
    matched_mean, matched_sd = logit_beta_moments(a, b)
    mean = matched_mean if mean is None else mean
    sd = matched_sd if sd is None else sd
    return ks_distance(lambda t: logit_beta_cdf(t, a, b), mean, sd)


def gumbel_normal_ks_limit() -> float:
    """KS distance between log E, E ~ Exp(1), and its moment-matched normal
    N(-gamma, pi^2 / 6): the limit of the logit-Beta(1, b) distance as
    b -> infinity, since logit-Beta(1, b) + log b -> log E in law."""
    return ks_distance(
        lambda t: -np.expm1(-np.exp(t)), -float(np.euler_gamma), math.pi / math.sqrt(6.0)
    )


def ld_logpdf(theta, beta):
    """Log density of the log-ratio pushforward of Dirichlet(beta),
    lnGamma(B) - sum_j lnGamma(b_j) + sum_j b_j t_j - B log(1 + sum_l e^{t_l}),
    evaluated in log-ratio coordinates so it stays finite for extreme theta.
    theta is one point (d,), giving a float, or a batch (n, d), giving n
    values."""
    t = np.asarray(theta, dtype=float)
    b = np.asarray(beta, dtype=float)
    if t.ndim not in (1, 2) or b.shape != (t.shape[-1] + 1,):
        raise ValueError(f"expected (d,) or (n, d) points with d + 1 concentrations, got {t.shape}, {b.shape}")
    if not np.all(b > 0.0):
        raise ValueError("concentration entries must be positive")
    padded = np.concatenate([np.zeros(t.shape[:-1] + (1,)), t], axis=-1)
    log_norm = special.logsumexp(padded, axis=-1)
    out = special.gammaln(b.sum()) - special.gammaln(b).sum() + (t * b[1:]).sum(axis=-1) - b.sum() * log_norm
    return float(out) if t.ndim == 1 else out


def lasso_path_cd(theta_hat, cov, lambdas) -> np.ndarray:
    """Lasso path of min (t - theta_hat)^T cov^{-1} (t - theta_hat) + lam ||t||_1
    on the given grid, by cyclic coordinate descent on the whitened problem
    ||L theta_hat - L t||^2 with L^T L = cov^{-1}, warm-started along the grid.

    Each point sweeps until a sweep moves no coordinate by more than 1e-14
    (relative) and the KKT residual is at most 1e-9 max(1, lambda_max); there
    is no sweep cap.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    d = theta_hat.size
    a = np.linalg.inv(np.linalg.cholesky(np.asarray(cov, dtype=float)))
    z = a @ theta_hat
    col_norms = (a * a).sum(axis=0)
    kkt_tol = 1e-9 * max(1.0, float(np.abs(2.0 * (a.T @ z)).max()))
    coefs = np.zeros((len(lambdas), d))
    theta = np.zeros(d)
    resid = z.copy()
    for i, lam in enumerate(lambdas):
        while True:
            delta_max = 0.0
            for j in range(d):
                old = theta[j]
                rho = float(a[:, j] @ resid) + col_norms[j] * old
                new = math.copysign(max(abs(rho) - 0.5 * lam, 0.0), rho) / col_norms[j]
                if new != old:
                    resid -= (new - old) * a[:, j]
                    theta[j] = new
                    delta_max = max(delta_max, abs(new - old))
            if delta_max <= 1e-14 * max(1.0, float(np.abs(theta).max())):
                grad = -2.0 * (a.T @ resid)
                violation = np.where(
                    np.abs(theta) > 1e-10,
                    np.abs(grad + lam * np.sign(theta)),
                    np.maximum(np.abs(grad) - lam, 0.0),
                )
                if violation.max(initial=0.0) <= kkt_tol:
                    break
        coefs[i] = theta
    return coefs


def load_table_csv_rows(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Reference table-CSV reader, one Python row at a time: (levels, counts
    in canonical order). Rejects malformed input with ValueError, or with
    OverflowError for a count beyond int64."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"table CSV {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2 or header[-1] != "count":
        raise ValueError(f"table CSV {path} needs a header 'i_1,...,i_p,count'")
    p = len(header) - 1
    seen: dict[tuple[int, ...], int] = {}
    for row in rows[1:]:
        if len(row) != p + 1:
            raise ValueError(f"expected {p + 1} columns, got {len(row)}")
        cell = tuple(int(v) for v in row[:p])
        count = int(row[p])
        if any(v < 0 for v in cell) or count < 0:
            raise ValueError("negative level index or count")
        if cell in seen:
            raise ValueError(f"duplicate cell {cell}")
        seen[cell] = count
    if not seen:
        raise ValueError(f"table CSV {path} has no data rows")
    levels = tuple(max(2, 1 + max(cell[v] for cell in seen)) for v in range(p))
    counts = np.zeros(math.prod(levels), dtype=np.int64)
    strides = np.cumprod((1,) + levels[::-1][:-1])[::-1]
    for cell, count in seen.items():
        counts[int(np.dot(cell, strides))] = count
    return levels, counts
