"""The conjugate posterior of the multinomial log-linear model and the
optimal Gaussian approximation to it.

The posterior of the log-ratio parameter under the conjugate prior is the
log-ratio pushforward of a Dirichlet law with concentration beta = prior +
counts. The KL-closest Gaussian to that law has mean mu*_j = psi(b_j) -
psi(b_0) and covariance Sigma* = Diag(psi'(b_j)) + psi'(b_0) 11^T, i.e. the
exact posterior mean and covariance. Sigma* is compound symmetric, so every
quadratic form, solve, and determinant here runs in O(d) via the
Sherman-Morrison and matrix-determinant identities.

The special functions of beta run through `DirichletParams`: when most
concentrations repeat (a scalar prior plus integer counts gives at most one
value per distinct count; `specfun.mostly_repeated` decides), they are
evaluated once per distinct value and expanded by the inverse index, and a
vector prior with mostly distinct entries is evaluated as it is. psi(beta)
and psi'(beta) are computed once per `DirichletParams`, on those values, so
`ld_moments` and `exact_min_kl` on one instance share them. Sums run over
the expanded arrays, so every result has the bits of the full evaluation.

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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .parametrization import DesignMatrix, adjoint_theta_star, from_theta_star, to_theta_star
from .specfun import digamma, log_gamma, mostly_repeated, trigamma

__all__ = [
    "DirichletParams",
    "CompoundSymmetryMatrix",
    "DesignCovariance",
    "GaussianApprox",
    "ld_moments",
    "optimal_gaussian",
    "transform_gaussian",
    "exact_min_kl",
    "KLBound",
    "kl_bound",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class DirichletParams:
    """Positive concentration vector (b_0, ..., b_d); index 0 is the baseline."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)  # a copy: the caller's array stays writeable
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

    @cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(values, inverse) with values[inverse] == beta when most entries
        repeat; (beta, None) otherwise. The inverse is held in the smallest
        unsigned type that indexes the values, as it lives as long as self."""
        if not mostly_repeated(self.beta):
            return self.beta, None
        values, inverse = np.unique(self.beta, return_inverse=True)
        return values, inverse.astype(np.min_scalar_type(values.size - 1))

    def _expand(self, out: np.ndarray) -> np.ndarray:
        inverse = self._distinct[1]
        return out if inverse is None else out[inverse]

    def elementwise(self, fn) -> np.ndarray:
        """fn(beta) for an elementwise fn, evaluated once per distinct value."""
        return self._expand(fn(self._distinct[0]))

    @cached_property
    def _psi_distinct(self) -> tuple[np.ndarray, np.ndarray]:
        values = self._distinct[0]
        psi, tri = digamma(values), trigamma(values)
        psi.flags.writeable = tri.flags.writeable = False
        return psi, tri

    def psi(self) -> tuple[np.ndarray, np.ndarray]:
        """(psi(beta), psi'(beta)), evaluated once per instance and expanded
        on each call; read-only when nothing needs expanding."""
        psi, tri = self._psi_distinct
        return self._expand(psi), self._expand(tri)


@dataclass(frozen=True)
class CompoundSymmetryMatrix:
    """Diag(diag) + common * 11^T with positive diag and common > 0."""

    diag: np.ndarray
    common: float

    def __post_init__(self):
        diag = np.array(self.diag, dtype=float)  # a copy: the caller's array stays writeable
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
        return {"type": "cs", "diag": self.diag, "common": self.common}


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
        mean = np.array(self.mean, dtype=float)  # a copy: the caller's array stays writeable
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
        """Payload for `tableio.write_json`; the vectors stay ndarrays."""
        return {
            "parametrization": self.parametrization,
            "mean": self.mean,
            "cov": self.cov.to_json_dict(),
        }


def ld_moments(beta: DirichletParams) -> tuple[np.ndarray, CompoundSymmetryMatrix]:
    """Exact mean and covariance of the log-ratio coordinates under beta."""
    psi, tri = beta.psi()
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


def exact_min_kl(beta: DirichletParams) -> float:
    """KL divergence from the log-ratio law to its optimal Gaussian, in closed form.

    Equals log-normalizer + sum_j b_j (psi(b_j) - psi(B)) + (d/2)(1 + log 2pi)
    + (1/2) log det Sigma*, evaluated without densifying Sigma*. The first
    two terms are E log p(t) under the log-ratio law; the log-normalizer of
    Dirichlet(b) is log Gamma(B) - sum_j log Gamma(b_j).
    """
    b = beta.beta
    psi, tri = beta.psi()
    log_norm = log_gamma(b.sum()) - float(beta.elementwise(log_gamma).sum())
    neg_entropy = log_norm + float((b * (psi - digamma(beta.total))).sum())
    logdet = CompoundSymmetryMatrix(tri[1:], tri[0]).logdet()
    return neg_entropy + 0.5 * beta.d * (1.0 + _LOG_2PI) + 0.5 * logdet


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
