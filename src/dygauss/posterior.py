"""Conjugate updating for the multinomial log-linear model and the optimal
Gaussian approximation to its posterior.

The posterior of the log-ratio parameter under the conjugate prior is the
log-ratio pushforward of a Dirichlet law with concentration beta = prior +
counts. The KL-closest Gaussian to that law has mean mu*_j = psi(b_j) -
psi(b_0) and covariance Sigma* = Diag(psi'(b_j)) + psi'(b_0) 11^T, i.e. the
exact posterior mean and covariance. Sigma* is compound symmetric, so every
quadratic form, solve, and determinant here runs in O(d) via the
Sherman-Morrison and matrix-determinant identities.

Covariance transform convention: a Gaussian G ~ N(m, S) pushed through the
linear map t -> A t is N(A m, A S A^T). For t* = X^{-1} t that means mean
X^{-1} m and covariance X^{-1} S X^{-T}. (Displays that write the
transformed covariance as X^T S X are inconsistent with this rule; the
change-of-variables form is the one under which KL divergence is invariant,
and it is what we use.) The transformed covariance is kept as the pair
(Sigma*, X), a `DesignCovariance`; it is expanded to a d x d matrix only by
consumers that need one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .parametrization import DesignMatrix, TableSchema, adjoint_theta_star, from_theta_star, to_theta_star
from .specfun import digamma, log_gamma, trigamma

__all__ = [
    "DirichletParams",
    "CompoundSymmetryMatrix",
    "DesignCovariance",
    "GaussianApprox",
    "dy_update",
    "ld_moments",
    "optimal_gaussian",
    "transform_gaussian",
    "exact_min_kl",
    "kl_to_gaussian",
    "KLBound",
    "kl_bound",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class DirichletParams:
    """Positive concentration vector (b_0, ..., b_d); index 0 is the baseline."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size < 2:
            raise ValueError("concentration must be a vector of length >= 2")
        if np.any(beta <= 0.0) or not np.all(np.isfinite(beta)):
            raise ValueError("concentration entries must be positive and finite")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)

    @property
    def d(self) -> int:
        return self.beta.size - 1

    @property
    def total(self) -> float:
        return float(self.beta.sum())


@dataclass(frozen=True)
class CompoundSymmetryMatrix:
    """Diag(diag) + common * 11^T with positive diag and common > 0."""

    diag: np.ndarray
    common: float

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        if diag.ndim != 1 or diag.size < 1:
            raise ValueError("diag must be a 1-d vector")
        if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
            raise ValueError("diag entries must be positive and finite")
        if not (self.common > 0.0 and math.isfinite(self.common)):
            raise ValueError("common term must be positive and finite")
        diag.flags.writeable = False
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "common", float(self.common))

    @property
    def d(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag) + self.common

    def full_diagonal(self) -> np.ndarray:
        return self.diag + self.common

    def solve(self, v) -> np.ndarray:
        """Solve (Diag(D) + c 11^T) x = v by Sherman-Morrison, O(d) per column."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.d:
            raise ValueError(f"expected {self.d} rows, got shape {v.shape}")
        diag = self.diag.reshape((-1,) + (1,) * (v.ndim - 1))
        w = v / diag
        s = float((1.0 / self.diag).sum())
        return w - (self.common * w.sum(axis=0) / (1.0 + self.common * s)) / diag

    def logdet(self) -> float:
        """log det via the matrix-determinant lemma: sum log D_j + log(1 + c sum 1/D_j)."""
        s = float((1.0 / self.diag).sum())
        return float(np.log(self.diag).sum()) + math.log1p(self.common * s)

    def to_json_dict(self) -> dict:
        return {"type": "cs", "diag": self.diag.tolist(), "common": self.common}


@dataclass(frozen=True)
class DesignCovariance:
    """X^{-1} cs X^{-T}: a compound-symmetry covariance carried through a design.

    X^{-1} has entries +-1 exactly on the support of the 0/1 matrix X, so the
    diagonal is X D + c (X^{-1} 1)^2, O(d p) without forming the matrix.
    """

    cs: CompoundSymmetryMatrix
    design: DesignMatrix

    def __post_init__(self):
        if not isinstance(self.cs, CompoundSymmetryMatrix):
            raise TypeError("only a compound-symmetry covariance can be carried through a design")
        if self.cs.d != self.design.d:
            raise ValueError(f"design is {self.design.d}-dimensional, covariance is {self.cs.d}")

    @property
    def d(self) -> int:
        return self.cs.d

    def to_dense(self) -> np.ndarray:
        full = to_theta_star(to_theta_star(self.cs.to_dense(), self.design).T, self.design)
        return 0.5 * (full + full.T)

    def solve(self, v) -> np.ndarray:
        """(X^{-1} cs X^{-T})^{-1} v = X^T cs^{-1} X v, O(d p) per column."""
        return adjoint_theta_star(self.cs.solve(from_theta_star(v, self.design)), self.design)

    def full_diagonal(self) -> np.ndarray:
        signs = to_theta_star(np.ones(self.d), self.design)
        return from_theta_star(self.cs.diag, self.design) + self.cs.common * signs * signs

    def to_json_dict(self) -> dict:
        levels = list(self.design.schema.levels)
        return {**self.cs.to_json_dict(), "type": f"{self.design.kind}_cs", "levels": levels}


@dataclass(frozen=True)
class GaussianApprox:
    """Gaussian with a mean vector and a structured covariance.

    `parametrization` records which coordinates the moments live in:
    "identity" for raw log ratios (covariance a `CompoundSymmetryMatrix`), or
    the kind of the design used to transform them (a `DesignCovariance`).
    """

    mean: np.ndarray
    cov: CompoundSymmetryMatrix | DesignCovariance
    parametrization: str = "identity"

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        if not isinstance(self.cov, (CompoundSymmetryMatrix, DesignCovariance)):
            raise TypeError("covariance must be a CompoundSymmetryMatrix or DesignCovariance")
        if self.cov.d != mean.size:
            raise ValueError("mean and covariance dimensions disagree")
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    @property
    def d(self) -> int:
        return self.mean.size

    def cov_dense(self) -> np.ndarray:
        return self.cov.to_dense()

    def variances(self) -> np.ndarray:
        return self.cov.full_diagonal()

    def to_json_dict(self) -> dict:
        return {
            "parametrization": self.parametrization,
            "mean": self.mean.tolist(),
            "cov": self.cov.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GaussianApprox":
        cov_spec = payload["cov"]
        kind = cov_spec["type"]
        if kind != "cs" and not kind.endswith("_cs"):
            raise ValueError(f"unknown covariance type {kind!r}")
        cov = CompoundSymmetryMatrix(np.array(cov_spec["diag"], dtype=float), float(cov_spec["common"]))
        if kind != "cs":
            design = DesignMatrix(kind.removesuffix("_cs"), TableSchema(cov_spec["levels"]))
            cov = DesignCovariance(cov, design)
        return cls(np.array(payload["mean"], dtype=float), cov, payload["parametrization"])


def dy_update(alpha: DirichletParams, y) -> DirichletParams:
    """Conjugate update: posterior concentration = prior + observed counts."""
    y = np.asarray(y, dtype=float)
    if y.shape != alpha.beta.shape:
        raise ValueError(f"count vector must have length {alpha.beta.size}, got {y.shape}")
    if np.any(y < 0) or not np.all(y == np.floor(y)):
        raise ValueError("counts must be nonnegative integers")
    return DirichletParams(alpha.beta + y)


def ld_moments(beta: DirichletParams) -> tuple[np.ndarray, CompoundSymmetryMatrix]:
    """Exact mean and covariance of the log-ratio coordinates under beta."""
    psi = digamma(beta.beta)
    tri = trigamma(beta.beta)
    return psi[1:] - psi[0], CompoundSymmetryMatrix(tri[1:], tri[0])


def optimal_gaussian(beta: DirichletParams) -> GaussianApprox:
    """The KL-closest Gaussian to the log-ratio law with concentration beta."""
    mean, cov = ld_moments(beta)
    return GaussianApprox(mean, cov, "identity")


def transform_gaussian(g: GaussianApprox, design: DesignMatrix) -> GaussianApprox:
    """Push an identity-space Gaussian through t -> X^{-1} t: mean X^{-1} m,
    covariance X^{-1} S X^{-T} held as a `DesignCovariance`, O(d p)."""
    if design.d != g.d:
        raise ValueError(f"design is {design.d}-dimensional, Gaussian is {g.d}")
    return GaussianApprox(to_theta_star(g.mean, design), DesignCovariance(g.cov, design), design.kind)


def _neg_entropy(beta: DirichletParams, psi: np.ndarray) -> float:
    """E log p(t) under the log-ratio law, given psi = digamma(beta):
    log-normalizer + sum_j b_j (psi(b_j) - psi(B)), where the log-normalizer
    of Dirichlet(b) is log Gamma(B) - sum_j log Gamma(b_j)."""
    b = beta.beta
    log_norm = log_gamma(b.sum()) - float(log_gamma(b).sum())
    return log_norm + float((b * (psi - digamma(beta.total))).sum())


def exact_min_kl(beta: DirichletParams) -> float:
    """KL divergence from the log-ratio law to its optimal Gaussian, in closed form.

    Equals log-normalizer + sum_j b_j (psi(b_j) - psi(B)) + (d/2)(1 + log 2pi)
    + (1/2) log det Sigma*, evaluated without densifying Sigma*.
    """
    psi = digamma(beta.beta)
    tri = trigamma(beta.beta)
    logdet = CompoundSymmetryMatrix(tri[1:], tri[0]).logdet()
    return _neg_entropy(beta, psi) + 0.5 * beta.d * (1.0 + _LOG_2PI) + 0.5 * logdet


def kl_to_gaussian(beta: DirichletParams, mu, sigma) -> float:
    """KL divergence from the log-ratio law with concentration beta to N(mu, sigma).

    Closed form: the only terms involving (mu, sigma) are
    (1/2) log det Sigma + (1/2)[tr(Sigma^{-1} Sigma*) + (m* - mu)^T
    Sigma^{-1} (m* - mu)], minimized exactly at the law's own moments.
    """
    mu = np.asarray(mu, dtype=float)
    d = beta.d
    if mu.shape != (d,):
        raise ValueError(f"mean must have length {d}, got shape {mu.shape}")
    cov = sigma.to_dense() if hasattr(sigma, "to_dense") else np.asarray(sigma, dtype=float)
    if cov.shape != (d, d):
        raise ValueError(f"covariance must be {d}x{d}, got {cov.shape}")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance must be symmetric positive definite") from exc

    mean_star, cov_star = ld_moments(beta)
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    # tr(Sigma^{-1} Sigma*) via triangular solves against the structured factor.
    half = np.linalg.solve(chol, cov_star.to_dense())
    trace = float(np.trace(np.linalg.solve(chol, half.T)))
    resid = np.linalg.solve(chol, mean_star - mu)
    quad = float(resid @ resid)
    return (
        _neg_entropy(beta, digamma(beta.beta))
        + 0.5 * d * _LOG_2PI
        + 0.5 * logdet
        + 0.5 * (trace + quad)
    )


class KLBound(NamedTuple):
    """Upper bound on the optimal approximation error, with its hypothesis flag."""

    value: float
    valid: bool


def kl_bound(beta: DirichletParams) -> KLBound:
    """(1/2) sum_j 1/b_j + 1/(6B), valid as a bound when every b_j > 1/2.

    The value is computed regardless; `valid` records whether the
    hypothesis under which it actually bounds the minimum KL holds.
    """
    b = beta.beta
    value = 0.5 * float((1.0 / b).sum()) + 1.0 / (6.0 * beta.total)
    return KLBound(value, bool(np.all(b > 0.5)))
