"""Independent oracles used to fix expected values: direct series with tail
brackets, numerical quadrature, bisection, dense linear algebra on
``scipy.special``, and reference readers and writers of the file formats.
None of these share code with the implementation under test.
"""

import csv
import ctypes
import glob
import json
import math
import os
from pathlib import Path

import numpy as np
from scipy import integrate, linalg, optimize, special


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


def mc_buffer_reference(draws, mean, sd, ks_columns):
    """The Monte Carlo metric inputs of one (mc, d) draw matrix as the compare
    study first computed them, each from a copy of the draws: column means,
    ``np.percentile``'s central 95% intervals, ``np.cov(draws.T)``, and the
    KS distance of each column in `ks_columns`, sorted on its own, from
    N(mean_j, sd_j^2) by the order-statistic formula with Phi evaluated as
    0.5 * erfc(-z / sqrt 2) through ``math.erfc``."""
    draws = np.asarray(draws, dtype=float)
    tail = 100.0 * 0.5 * (1.0 - 0.95)
    intervals = np.percentile(draws, [tail, 100.0 - tail], axis=0).T
    ks = []
    for j in ks_columns:
        x = np.sort(draws[:, j])
        n = x.size
        z = ((x - mean[j]) / sd[j]).tolist()
        cdf = 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in z])
        i = np.arange(1, n + 1)
        ks.append(float(np.maximum(i / n - cdf, cdf - (i - 1) / n).max()))
    return draws.mean(axis=0), intervals, np.cov(draws.T), ks


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


def kl_to_gaussian(beta, mu, sigma) -> float:
    """KL divergence from the log-ratio law with concentration beta (a vector,
    or anything with a ``.beta`` vector) to N(mu, sigma), on dense matrices.

    KL = E log p - E log q. The first term is lnGamma(B) - sum_j lnGamma(b_j)
    + sum_j b_j (psi(b_j) - psi(B)). The cross-entropy -E log q is
    (d/2) log 2pi + (1/2) log det sigma + (1/2) tr(sigma^{-1} S)
    + (1/2) (m - mu)^T sigma^{-1} (m - mu), with the law's moments
    m_j = psi(b_j) - psi(b_0) and S = Diag(psi'(b_j)) + psi'(b_0) 11^T,
    through a Cholesky factor of sigma (a matrix, or anything with
    ``to_dense()``). A sigma that is not positive definite raises ValueError.
    """
    b = np.asarray(getattr(beta, "beta", beta), dtype=float)
    d = b.size - 1
    mu = np.asarray(mu, dtype=float)
    cov = np.asarray(sigma.to_dense() if hasattr(sigma, "to_dense") else sigma, dtype=float)
    if mu.shape != (d,) or cov.shape != (d, d):
        raise ValueError(f"expected a mean of length {d} and a {d}x{d} covariance")
    chol = np.linalg.cholesky(cov)  # LinAlgError, a ValueError, unless positive definite
    psi, tri = special.digamma(b), special.polygamma(1, b)
    total = b.sum()
    neg_entropy = special.gammaln(total) - special.gammaln(b).sum() + (b * (psi - special.digamma(total))).sum()
    half = linalg.solve_triangular(chol, np.diag(tri[1:]) + tri[0], lower=True)
    trace = np.trace(linalg.solve_triangular(chol, half.T, lower=True))
    resid = linalg.solve_triangular(chol, psi[1:] - psi[0] - mu, lower=True)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return float(neg_entropy + 0.5 * d * math.log(2.0 * math.pi) + 0.5 * logdet + 0.5 * (trace + resid @ resid))


def plain_moments_and_kl(b, log_gamma, digamma, trigamma):
    """(mean, diag, common, exact_min_kl) of the optimal Gaussian with each
    special function evaluated once on the whole concentration vector b, in
    the arithmetic order of the closed form: the reference for evaluating on
    the distinct values. The functions are passed in, so the bits compared
    are those of one implementation and nothing is imported from dygauss.
    diag + common 11^T is the identity-space covariance."""
    b = np.asarray(b, dtype=float)
    psi, tri = digamma(b), trigamma(b)
    diag, common = tri[1:], float(tri[0])
    neg_entropy = log_gamma(b.sum()) - float(log_gamma(b).sum()) + float((b * (psi - digamma(float(b.sum())))).sum())
    logdet = float(np.log(diag).sum()) + math.log1p(common * float((1.0 / diag).sum()))
    kl = neg_entropy + 0.5 * (b.size - 1) * (1.0 + math.log(2.0 * math.pi)) + 0.5 * logdet
    return psi[1:] - psi[0], diag, common, kl


def gaussian_from_json(payload: dict) -> tuple[np.ndarray, np.ndarray, str]:
    """(mean, dense covariance, parametrization) of a Gaussian as ``approx``
    writes it. A "cs" covariance is Diag(diag) + common 11^T. A "corner_cs"
    one is that matrix S carried through the corner matrix X as
    X^{-1} S X^{-T}, with X built densely from its Kronecker factors
    I + (first column of ones) over `levels`, baseline row and column dropped.
    """
    spec = payload["cov"]
    if spec["type"] not in ("cs", "corner_cs"):
        raise ValueError(f"unknown covariance type {spec['type']!r}")
    cov = np.diag(np.asarray(spec["diag"], dtype=float)) + float(spec["common"])
    if spec["type"] == "corner_cs":
        x = np.ones((1, 1))
        for n in spec["levels"]:
            factor = np.eye(n)
            factor[:, 0] = 1.0
            x = np.kron(x, factor)
        x = x[1:, 1:]
        cov = np.linalg.solve(x, np.linalg.solve(x, cov).T)
    return np.asarray(payload["mean"], dtype=float), cov, payload["parametrization"]


def save_table_csv(table, path) -> None:
    """Write a table (``schema.levels`` and canonical ``counts``) as table CSV,
    one row per cell in canonical order."""
    levels = table.schema.levels
    cells = np.indices(levels).reshape(len(levels), -1).T.tolist()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"i_{v + 1}" for v in range(len(levels))] + ["count"])
        for cell, count in zip(cells, table.counts.tolist()):
            writer.writerow(cell + [count])


def save_table_json(table, path) -> None:
    """Write a table as table JSON: levels and canonical counts."""
    payload = {"levels": list(table.schema.levels), "counts": table.counts.tolist()}
    Path(path).write_text(json.dumps(payload))


class DenseCovariance:
    """A plain covariance matrix behind the interface ``lasso_path`` reads:
    ``solve`` by two dense solves against its Cholesky factor, and
    ``to_dense``. A matrix that is not positive definite raises LinAlgError."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        self.chol = np.linalg.cholesky(self.matrix)

    def solve(self, v) -> np.ndarray:
        return np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, v))

    def to_dense(self) -> np.ndarray:
        return self.matrix


def supports(coefs, eps: float = 1e-10) -> tuple[tuple[int, ...], ...]:
    """The indices of each row's entries with |value| > eps."""
    return tuple(tuple(int(j) for j in np.flatnonzero(np.abs(row) > eps)) for row in coefs)


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


def openblas_thread_calls():
    """(get, set) thread-count calls of the OpenBLAS that numpy ships with,
    looked up here apart from dygauss.tableio, or None when there is none."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, ()
                set_.restype, set_.argtypes = None, (ctypes.c_int,)
                return get, set_
    return None
