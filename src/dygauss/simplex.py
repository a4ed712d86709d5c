"""Transforms between the open simplex and log-ratio coordinates, plus the
three densities that live on them (Dirichlet, its log-ratio pushforward, and
the logistic normal).

Conventions: a point of the d-dimensional open simplex is stored as the d
free probabilities (p_1, ..., p_d) with p_0 = 1 - sum(p_j) implied. The
log-ratio coordinate is t_j = log(p_j / p_0), t_0 = 0. Concentration vectors
have length d + 1 with index 0 pairing with the implied coordinate.

All densities return log values; exponentiation is the caller's job because
linear-scale densities underflow long before d reaches table sizes of
interest (2^8 cells).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import log_gamma

__all__ = [
    "SimplexPoint",
    "NaturalParam",
    "logistic",
    "log_ratio",
    "jacobian_logdet_inv",
    "log_dirichlet_norm",
    "dirichlet_logpdf",
    "ld_logpdf",
    "logistic_normal_logpdf",
]


@dataclass(frozen=True)
class SimplexPoint:
    """Strictly interior simplex point; probs holds (p_1, ..., p_d).

    The baseline probability p_0 may be supplied explicitly; computing it as
    1 - sum(probs) loses all relative precision once it falls near machine
    epsilon, and the log-ratio transform needs it to full precision.
    """

    probs: np.ndarray
    p0: float = None  # type: ignore[assignment]

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("SimplexPoint requires a 1-d vector of probabilities")
        if not np.all(np.isfinite(probs)):
            raise ValueError("SimplexPoint entries must be finite")
        p0 = 1.0 - float(probs.sum()) if self.p0 is None else float(self.p0)
        if self.p0 is not None and abs(p0 - (1.0 - probs.sum())) > 1e-9:
            raise ValueError("explicit p0 is inconsistent with 1 - sum(probs)")
        if np.any(probs <= 0.0) or p0 <= 0.0:
            raise ValueError("SimplexPoint must be strictly interior (all p_j > 0, p_0 > 0)")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "p0", p0)

    @property
    def d(self) -> int:
        return self.probs.size

    def full(self) -> np.ndarray:
        """All d + 1 probabilities, baseline coordinate first."""
        return np.concatenate([[self.p0], self.probs])


@dataclass(frozen=True)
class NaturalParam:
    """Log-ratio coordinates (t_1, ..., t_d); the implied t_0 is 0."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1 or theta.size < 1:
            raise ValueError("NaturalParam requires a 1-d vector")
        if not np.all(np.isfinite(theta)):
            raise ValueError("NaturalParam entries must be finite")
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    @property
    def d(self) -> int:
        return self.theta.size


def _as_theta(theta) -> np.ndarray:
    if isinstance(theta, NaturalParam):
        return theta.theta
    arr = np.asarray(theta, dtype=float)
    if arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ValueError("expected a finite 1-d log-ratio vector")
    return arr


def _as_simplex(pi) -> SimplexPoint:
    return pi if isinstance(pi, SimplexPoint) else SimplexPoint(np.asarray(pi, dtype=float))


def _log_norm(theta: np.ndarray) -> float:
    """log(1 + sum exp(t_l)), overflow-guarded by max subtraction."""
    m = max(0.0, float(theta.max()))
    return m + np.log(np.exp(-m) + np.exp(theta - m).sum())


def logistic(theta) -> SimplexPoint:
    """Map log-ratio coordinates to the simplex: p_j = e^{t_j} / (1 + sum e^{t_l}).

    Overflow is guarded by max subtraction, and the baseline probability is
    produced directly (not by subtraction from 1), so the round trip with
    log_ratio holds to near machine precision.
    """
    t = _as_theta(theta)
    m = max(0.0, float(t.max()))
    ex = np.exp(t - m)
    base = np.exp(-m)
    denom = base + ex.sum()
    return SimplexPoint(ex / denom, base / denom)


def log_ratio(pi) -> NaturalParam:
    """Inverse of logistic: t_j = log(p_j / p_0). Requires an interior point."""
    p = _as_simplex(pi)
    p0 = p.p0
    if p0 <= 0.0:
        raise ValueError("log_ratio requires an interior simplex point")
    return NaturalParam(np.log(p.probs) - np.log(p0))


def jacobian_logdet_inv(theta) -> float:
    """log |J|^{-1} for the simplex -> log-ratio change of variables.

    Equals sum_l t_l - (d + 1) log(1 + sum e^{t_l}), i.e. the sum of the
    logs of all d + 1 probabilities.
    """
    t = _as_theta(theta)
    return float(t.sum()) - (t.size + 1) * _log_norm(t)


def log_dirichlet_norm(beta: np.ndarray) -> float:
    """log Gamma(B) - sum_j log Gamma(b_j) with B = sum_j b_j: the log of the
    Dirichlet(beta) normalizing constant."""
    return log_gamma(beta.sum()) - float(log_gamma(beta).sum())


def dirichlet_logpdf(pi, beta) -> float:
    """Log density of the Dirichlet law with concentration beta = (b_0, ..., b_d)."""
    p = _as_simplex(pi)
    b = np.asarray(beta, dtype=float)
    if b.ndim != 1 or b.size != p.d + 1:
        raise ValueError(f"concentration must have length d + 1 = {p.d + 1}, got {b.size}")
    if np.any(b <= 0.0) or not np.all(np.isfinite(b)):
        raise ValueError("concentration entries must be positive and finite")
    log_norm = log_dirichlet_norm(b)
    log_p = np.concatenate([[np.log(p.p0)], np.log(p.probs)])
    return log_norm + float(((b - 1.0) * log_p).sum())


def ld_logpdf(theta, beta) -> float:
    """Log density of the log-ratio pushforward of Dirichlet(beta).

    This is dirichlet_logpdf at logistic(theta) plus the Jacobian term, but
    evaluated directly in log-ratio coordinates so it stays finite for
    arbitrarily extreme theta.
    """
    t = _as_theta(theta)
    b = np.asarray(beta, dtype=float)
    if b.ndim != 1 or b.size != t.size + 1:
        raise ValueError(f"concentration must have length d + 1 = {t.size + 1}, got {b.size}")
    if np.any(b <= 0.0) or not np.all(np.isfinite(b)):
        raise ValueError("concentration entries must be positive and finite")
    return log_dirichlet_norm(b) + float((b[1:] * t).sum()) - float(b.sum()) * _log_norm(t)


def logistic_normal_logpdf(pi, mu, sigma) -> float:
    """Log density on the simplex of logistic(G) for Gaussian G ~ N(mu, sigma)."""
    p = _as_simplex(pi)
    mu = np.asarray(mu, dtype=float)
    cov = np.asarray(sigma, dtype=float)
    if cov.shape == () and p.d == 1:
        cov = cov.reshape(1, 1)
    if mu.shape != (p.d,) or cov.shape != (p.d, p.d):
        raise ValueError("mean/covariance dimensions do not match the simplex point")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be symmetric positive definite") from exc
    t = log_ratio(p).theta
    resid = np.linalg.solve(chol, t - mu)
    quad = float(resid @ resid)
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    log_prob_sum = float(np.log(p.full()).sum())
    return -0.5 * p.d * np.log(2.0 * np.pi) - 0.5 * logdet - log_prob_sum - 0.5 * quad
