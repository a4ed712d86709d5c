"""Sparse model selection inside a Gaussian credible region.

Given a posterior approximation N(theta_hat, Sigma), the procedure is:

1. delta_max = quantile(1 - alpha) of chi-square with d - 1 degrees of
   freedom (d - 1 is used verbatim; see the docs note in the README).
2. For each candidate theta_0, the Mahalanobis distance
   delta(theta_0) = (theta_hat - theta_0)^T Sigma^{-1} (theta_hat - theta_0).
3. The chosen model is the sparsest candidate with delta <= delta_max.

Candidates come from the lasso path of
    min (theta - theta_hat)^T Sigma^{-1} (theta - theta_hat) + lam * ||theta||_1,
solved by cyclic coordinate descent on the whitened problem
||L theta_hat - L theta||^2 with L^T L = Sigma^{-1}. Every emitted path point
carries a KKT certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posterior import CompoundSymmetryMatrix, _as_dense, cs_mahalanobis
from .specfun import chi2_quantile

__all__ = [
    "LassoConvergenceError",
    "LassoPath",
    "SelectionResult",
    "ConfusionCounts",
    "lasso_path",
    "mahalanobis_delta",
    "pcr_select",
    "edge_confusion",
]

SUPPORT_EPS = 1e-10  # coordinate descent yields exact zeros; this absorbs roundoff
MAX_SWEEPS = 10_000  # coordinate-descent sweeps allowed per path point


class LassoConvergenceError(RuntimeError):
    """A lasso path point was not certified within MAX_SWEEPS sweeps."""


@dataclass(frozen=True)
class LassoPath:
    """Penalty grid, per-penalty coefficient vectors, and their supports."""

    lambdas: np.ndarray
    coefs: np.ndarray
    supports: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        lambdas = np.asarray(self.lambdas, dtype=float)
        coefs = np.asarray(self.coefs, dtype=float)
        if lambdas.ndim != 1 or np.any(lambdas <= 0.0):
            raise ValueError("lambdas must be positive")
        if np.any(np.diff(lambdas) >= 0.0):
            raise ValueError("lambdas must be strictly decreasing")
        if coefs.ndim != 2 or coefs.shape[0] != lambdas.size or len(self.supports) != lambdas.size:
            raise ValueError("one coefficient vector and support per lambda required")
        if np.any(np.abs(coefs[0]) > SUPPORT_EPS):
            raise ValueError("the largest penalty must yield the zero vector")
        lambdas.flags.writeable = False
        coefs.flags.writeable = False
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "coefs", coefs)

    @property
    def n_points(self) -> int:
        return self.lambdas.size

    @property
    def d(self) -> int:
        return self.coefs.shape[1]


@dataclass(frozen=True)
class SelectionResult:
    chosen: np.ndarray
    support: tuple[int, ...]
    delta: float
    delta_max: float
    alpha: float
    fallback: bool = False

    def to_json_dict(self, labels=None) -> dict:
        payload = {
            "coefficients": np.asarray(self.chosen).tolist(),
            "support": list(self.support),
            "delta": self.delta,
            "delta_max": self.delta_max,
            "alpha": self.alpha,
            "fallback": self.fallback,
        }
        if labels is not None:
            payload["support_labels"] = [list(labels[j]) for j in self.support]
        return payload


def _whitening_factor(sigma) -> np.ndarray:
    """L with L^T L = Sigma^{-1}.

    Compound-symmetry covariances factor analytically: with
    Sigma^{-1} = D^{-1/2}(I - g u u^T)D^{-1/2} for unit u proportional to
    D^{-1/2} 1 and g = c s/(1 + c s), the square root of the middle term is
    I - eta u u^T with eta = 1 - 1/sqrt(1 + c s). Any other covariance
    goes through a Cholesky factor of its dense form instead.
    """
    if isinstance(sigma, CompoundSymmetryMatrix):
        inv_sqrt_d = 1.0 / np.sqrt(sigma.diag)
        v = inv_sqrt_d.copy()
        s = float((inv_sqrt_d * inv_sqrt_d).sum())
        u = v / np.sqrt(s)
        eta = 1.0 - 1.0 / np.sqrt(1.0 + sigma.common * s)
        return np.diag(inv_sqrt_d) - eta * np.outer(u, u * inv_sqrt_d)
    cov = _as_dense(sigma)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be symmetric positive definite") from exc
    return np.linalg.solve(chol, np.eye(cov.shape[0]))


def _support_of(coef: np.ndarray) -> tuple[int, ...]:
    return tuple(int(j) for j in np.where(np.abs(coef) > SUPPORT_EPS)[0])


def lasso_path(
    theta_hat,
    sigma,
    n_lambda: int = 100,
    lambda_min_ratio: float = 1e-3,
) -> LassoPath:
    """Coordinate-descent lasso path for the credible-region objective.

    The grid is log-spaced from lambda_max = 2 ||Sigma^{-1} theta_hat||_inf
    (the smallest penalty whose solution is exactly zero) down to
    lambda_max * lambda_min_ratio, warm-starting each point at the previous
    solution. Iteration stops when the KKT residual is driven well below
    the certificate tolerance used in the tests; a point that is not
    certified within MAX_SWEEPS sweeps raises LassoConvergenceError.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    d = theta_hat.size
    if n_lambda < 1:
        raise ValueError("n_lambda must be >= 1")
    if not (0.0 < lambda_min_ratio <= 1.0):
        raise ValueError("lambda_min_ratio must lie in (0, 1]")
    a = _whitening_factor(sigma)
    z = a @ theta_hat
    grad_at_zero = 2.0 * (a.T @ z)  # 2 Sigma^{-1} theta_hat
    lam_max = float(np.abs(grad_at_zero).max())
    if lam_max == 0.0:
        # theta_hat is exactly zero; the path is the single zero model.
        return LassoPath(np.array([1.0]), np.zeros((1, d)), (tuple(),))

    lambdas = np.exp(
        np.linspace(np.log(lam_max), np.log(lam_max * lambda_min_ratio), n_lambda)
    )
    col_norms = (a * a).sum(axis=0)  # Sigma^{-1} diagonal
    kkt_tol = 1e-9 * max(1.0, lam_max)

    coefs = np.zeros((n_lambda, d))
    theta = np.zeros(d)
    resid = z.copy()
    for i, lam in enumerate(lambdas):
        half = 0.5 * lam
        for _ in range(MAX_SWEEPS):
            delta_max = 0.0
            for j in range(d):
                old = theta[j]
                rho = float(a[:, j] @ resid) + col_norms[j] * old
                new = _soft_threshold(rho, half) / col_norms[j]
                if new != old:
                    resid -= (new - old) * a[:, j]
                    theta[j] = new
                    delta_max = max(delta_max, abs(new - old))
            if delta_max <= 1e-14 * max(1.0, float(np.abs(theta).max())):
                if _kkt_residual(a, resid, theta, lam) <= kkt_tol:
                    break
        else:
            raise LassoConvergenceError(
                f"lasso path point {i} (lambda={lam:.6g}) not certified after {MAX_SWEEPS} sweeps"
            )
        coefs[i] = theta
    supports = tuple(_support_of(c) for c in coefs)
    return LassoPath(lambdas, coefs, supports)


def _soft_threshold(x: float, threshold: float) -> float:
    if x > threshold:
        return x - threshold
    if x < -threshold:
        return x + threshold
    return 0.0


def _kkt_residual(a: np.ndarray, resid: np.ndarray, theta: np.ndarray, lam: float) -> float:
    grad = -2.0 * (a.T @ resid)  # 2 Sigma^{-1} (theta - theta_hat)
    violation = np.where(
        np.abs(theta) > SUPPORT_EPS,
        np.abs(grad + lam * np.sign(theta)),
        np.maximum(np.abs(grad) - lam, 0.0),
    )
    return float(violation.max(initial=0.0))


def mahalanobis_delta(theta0, theta_hat, sigma) -> float:
    """(theta_hat - theta0)^T Sigma^{-1} (theta_hat - theta0)."""
    diff = np.asarray(theta_hat, dtype=float) - np.asarray(theta0, dtype=float)
    if isinstance(sigma, CompoundSymmetryMatrix):
        return cs_mahalanobis(sigma, diff)
    try:
        chol = np.linalg.cholesky(_as_dense(sigma))
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be symmetric positive definite") from exc
    half = np.linalg.solve(chol, diff)
    return float(half @ half)


def pcr_select(path: LassoPath, theta_hat, sigma, alpha: float) -> SelectionResult:
    """Sparsest path model inside the (1 - alpha) credible ellipsoid.

    Ties in support size break toward smaller distance. If no path model
    fits the region, the full (unpenalized) model theta_hat is returned with
    the fallback flag set; its distance is zero by definition.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    d = theta_hat.size
    if d < 2:
        raise ValueError("selection needs at least 2 coefficients (threshold uses d - 1 dof)")
    delta_max = chi2_quantile(1.0 - alpha, d - 1)
    best = None
    for coef, support in zip(path.coefs, path.supports):
        delta = mahalanobis_delta(coef, theta_hat, sigma)
        if delta > delta_max:
            continue
        key = (len(support), delta)
        if best is None or key < best[0]:
            best = (key, coef, support, delta)
    if best is None:
        return SelectionResult(
            theta_hat.copy(), _support_of(theta_hat), 0.0, delta_max, alpha, fallback=True
        )
    _, coef, support, delta = best
    return SelectionResult(coef.copy(), support, delta, delta_max, alpha, fallback=False)


class ConfusionCounts:
    """Aggregated slot-level classification counts with derived rates."""

    __slots__ = ("tp", "fp", "tn", "fn")

    def __init__(self, tp: int, fp: int, tn: int, fn: int):
        self.tp, self.fp, self.tn, self.fn = tp, fp, tn, fn

    @property
    def fdr(self) -> float:
        denom = self.tp + self.fp
        return self.fp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0

    def to_json_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
            "fdr": self.fdr,
            "f1": self.f1,
        }

    def __repr__(self):
        return (
            f"ConfusionCounts(tp={self.tp}, fp={self.fp}, tn={self.tn}, fn={self.fn}, "
            f"fdr={self.fdr:.4f}, f1={self.f1:.4f})"
        )

    def __eq__(self, other):
        if not isinstance(other, ConfusionCounts):
            return NotImplemented
        return (self.tp, self.fp, self.tn, self.fn) == (other.tp, other.fp, other.tn, other.fn)


def edge_confusion(selected, reference, universes) -> ConfusionCounts:
    """Classify every hypothesis slot of every item against the reference.

    `selected[i]`, `reference[i]`, and `universes[i]` are collections of
    hashable slot identifiers (e.g. variable-pair edges); each slot in
    universes[i] contributes one count.
    """
    if not (len(selected) == len(reference) == len(universes)):
        raise ValueError("selected, reference, and universes must have equal lengths")
    tp = fp = tn = fn = 0
    for sel, ref, universe in zip(selected, reference, universes):
        sel, ref = set(sel), set(ref)
        for slot in universe:
            hit, truth = slot in sel, slot in ref
            if hit and truth:
                tp += 1
            elif hit:
                fp += 1
            elif truth:
                fn += 1
            else:
                tn += 1
    return ConfusionCounts(tp, fp, tn, fn)
