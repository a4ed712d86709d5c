"""Evaluation metrics for posterior approximations: proportion of variation
unexplained, credible-interval coverage, relative Frobenius covariance loss,
and the one-sample Kolmogorov-Smirnov statistic against a Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import normal_cdf, normal_quantile

__all__ = [
    "CREDIBLE_LEVEL",
    "MetricReport",
    "unexplained_variation",
    "coverage",
    "gaussian_intervals",
    "empirical_intervals",
    "frobenius_loss",
    "ks_statistic",
]

CREDIBLE_LEVEL = 0.95  # central mass of every credible interval
_SORT_COLUMNS = 16  # empirical_intervals sorts this many columns as one contiguous block


@dataclass(frozen=True)
class MetricReport:
    """One metric value with the keys a study needs to group it by."""

    metric: str
    value: float
    parametrization: str = ""
    sample_size: int = 0
    mc: int = 0
    replicate: int = 0

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise FloatingPointError(f"metric {self.metric!r} produced a non-finite value")

    def as_row(self) -> tuple:
        return (
            self.metric,
            self.parametrization,
            self.sample_size,
            self.mc if self.mc else "",
            self.replicate,
            repr(float(self.value)),
        )


def unexplained_variation(theta_hat, theta0) -> float:
    """Residual norm of the estimate over the total variation of the truth:
    ||theta_hat - theta0|| / sqrt(sum_j (theta0_j - mean(theta0))^2).

    The denominator is the centered norm of the true vector, i.e. its sample
    standard deviation (divisor d - 1) times sqrt(d - 1). With no data this
    ratio sits near 1, and it falls toward 0 as the estimate improves, which
    is what "proportion of variation unexplained" means.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    if theta_hat.shape != theta0.shape or theta_hat.ndim != 1:
        raise ValueError("estimate and truth must be vectors of equal length")
    if theta0.size < 2:
        raise ValueError("need at least 2 coordinates to measure variation")
    centered = theta0 - theta0.mean()
    total = float(np.sqrt((centered * centered).sum()))
    if total == 0.0:
        raise ValueError("true vector is constant; variation is undefined")
    return float(np.linalg.norm(theta_hat - theta0)) / total


def coverage(intervals, theta0) -> float:
    """Fraction of coordinates whose interval contains the true value."""
    theta0 = np.asarray(theta0, dtype=float)
    bounds = np.asarray(intervals, dtype=float)
    if bounds.shape != (theta0.size, 2):
        raise ValueError("one interval per coordinate required")
    lo, hi = bounds.T
    if np.any(lo > hi):
        j = int(np.argmax(lo > hi))
        raise ValueError(f"interval has lo > hi: ({lo[j]}, {hi[j]})")
    hits = int(np.count_nonzero((lo <= theta0) & (theta0 <= hi)))
    return hits / theta0.size


def gaussian_intervals(mean, variances) -> np.ndarray:
    """Symmetric normal credible intervals mean +/- z * sd, one (lo, hi) row
    per coordinate."""
    mean = np.asarray(mean, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if np.any(variances < 0):
        raise ValueError("variances must be nonnegative")
    half = normal_quantile(0.5 + 0.5 * CREDIBLE_LEVEL) * np.sqrt(variances)
    return np.stack([mean - half, mean + half], axis=1)


def empirical_intervals(draws, on_sorted=None) -> np.ndarray:
    """Columnwise empirical central intervals from a sample matrix, one
    (lo, hi) row per coordinate.

    Equal to ``np.percentile(draws, [tail, 100 - tail], axis=0).T`` for
    finite draws: the same virtual index (n - 1) q and the same
    interpolation as numpy's "linear" method (from the upper neighbour when
    the weight is >= 1/2). Columns are sorted in contiguous copies of
    _SORT_COLUMNS at a time, so `draws` is never modified and the only
    temporary is one such block. `on_sorted(j, values)`, if given, is
    called with column j's sorted values, a view valid during the call.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2:
        raise ValueError("draws must be an (mc x d) matrix")
    tail = 100.0 * 0.5 * (1.0 - CREDIBLE_LEVEL)
    q = np.true_divide([tail, 100.0 - tail], 100)
    n, d = draws.shape
    virtual = (n - 1) * q
    below = np.floor(virtual)
    gamma = virtual - below
    below = below.astype(np.intp)
    above = np.minimum(below + 1, n - 1)
    out = np.empty((d, 2))
    for j0 in range(0, d, _SORT_COLUMNS):
        block = draws[:, j0:j0 + _SORT_COLUMNS].T.copy()
        block.sort(axis=1)
        lo, hi = block[:, below], block[:, above]
        diff = hi - lo
        part = out[j0:j0 + _SORT_COLUMNS]
        np.add(lo, diff * gamma, out=part)
        np.subtract(hi, diff * (1 - gamma), out=part, where=gamma >= 0.5)
        if on_sorted is not None:
            for k, values in enumerate(block):
                on_sorted(j0 + k, values)
    return out


def frobenius_loss(sigma_hat, sigma) -> float:
    """Relative Frobenius error ||Sigma_hat - Sigma||_F / ||Sigma||_F. Both
    are scaled by 2^-k, 2^k just above Sigma's largest |entry|, so no square
    overflows (entries near 1e200 at priors of 1e-100); a power of two scales
    exactly, so the ratio keeps its bits wherever it was finite unscaled."""
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if sigma_hat.shape != sigma.shape:
        raise ValueError("matrices must have the same shape")
    largest = max(float(sigma.max(initial=0.0)), -float(sigma.min(initial=0.0)))
    if largest == 0.0:
        raise ValueError("reference matrix is zero; relative loss undefined")
    scale = np.ldexp(1.0, -np.frexp(largest)[1])
    work = np.subtract(sigma_hat, sigma)  # the one d x d buffer, reused for both norms
    numer = float(np.linalg.norm(np.multiply(work, scale, out=work)))
    return numer / float(np.linalg.norm(np.multiply(sigma, scale, out=work)))


def ks_statistic(samples, mu: float, sigma: float) -> float:
    """One-sample Kolmogorov-Smirnov distance between an empirical sample and
    N(mu, sigma^2), by the exact order-statistic formula
    max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n). Samples already in
    ascending order (a column from `empirical_intervals`' sort) are not
    sorted again.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("need at least one sample")
    if np.any(x[1:] < x[:-1]):
        x = np.sort(x)
    n = x.size
    cdf = normal_cdf((x - mu) / sigma)
    i = np.arange(1, n + 1)
    upper = i / n - cdf
    lower = cdf - (i - 1) / n
    return float(np.maximum(upper, lower).max())
