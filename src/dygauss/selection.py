"""Sparse model selection inside a Gaussian credible region.

Given a posterior approximation N(theta_hat, Sigma), the procedure is:

1. delta_max = quantile(1 - alpha) of chi-square with d - 1 degrees of
   freedom (d - 1 is used verbatim; see the docs note in the README).
2. For each candidate theta_0, the Mahalanobis distance
   delta(theta_0) = (theta_hat - theta_0)^T Sigma^{-1} (theta_hat - theta_0).
3. The chosen model is the sparsest candidate with delta <= delta_max.

Candidates come from the lasso path of
    min (theta - theta_hat)^T Sigma^{-1} (theta - theta_hat) + lam * ||theta||_1,
followed exactly by the LARS-lasso homotopy (the path is piecewise linear in
lam). Sigma^{-1} is applied, never formed, by the covariance's own O(d p)
`solve` (X^T Sigma*^{-1} X v for the corner covariance). Every emitted path
point carries a KKT certificate and its delta, which `pcr_select` reads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .specfun import chi2_quantile

__all__ = [
    "LassoConvergenceError",
    "LassoPath",
    "SelectionResult",
    "ConfusionCounts",
    "lasso_path",
    "pcr_select",
    "edge_confusion",
]

SUPPORT_EPS = 1e-10  # the homotopy yields exact zeros off the active set; this absorbs roundoff
# A |corr_j| on its bound that falls as fast as lam, to this relative rate, stays
# inactive: tied counts make such tangents exact (a variable that just left is
# one), and roundoff would have them join and leave at zero-length steps.
TANGENT = 1e-9


class LassoConvergenceError(RuntimeError):
    """A lasso path point failed its KKT certificate, or the homotopy stalled."""


@dataclass(frozen=True)
class LassoPath:
    """Penalty grid, per-penalty coefficient vectors and their distances
    delta to theta_hat, the estimate the path shrinks."""

    lambdas: np.ndarray
    coefs: np.ndarray
    theta_hat: np.ndarray
    deltas: np.ndarray

    def __post_init__(self):
        for name in ("lambdas", "coefs", "theta_hat", "deltas"):
            value = np.array(getattr(self, name), dtype=float)  # a copy: the caller's array stays writeable
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        lambdas, coefs = self.lambdas, self.coefs
        if lambdas.ndim != 1 or np.any(lambdas <= 0.0):
            raise ValueError("lambdas must be positive")
        if np.any(np.diff(lambdas) >= 0.0):
            raise ValueError("lambdas must be strictly decreasing")
        if coefs.ndim != 2 or coefs.shape[0] != lambdas.size:
            raise ValueError("one coefficient vector per lambda required")
        if self.theta_hat.shape != coefs.shape[1:] or self.deltas.shape != lambdas.shape:
            raise ValueError("one theta_hat entry per coefficient and one delta per lambda required")
        if np.any(np.abs(coefs[0]) > SUPPORT_EPS):
            raise ValueError("the largest penalty must yield the zero vector")


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
            "coefficients": np.asarray(self.chosen),
            "support": list(self.support),
            "delta": self.delta,
            "delta_max": self.delta_max,
            "alpha": self.alpha,
            "fallback": self.fallback,
        }
        if labels is not None:
            payload["support_labels"] = [labels[j].tolist() for j in self.support]
        return payload


def _support_of(coef: np.ndarray) -> tuple[int, ...]:
    return tuple(int(j) for j in np.where(np.abs(coef) > SUPPORT_EPS)[0])


def lasso_path(
    theta_hat,
    sigma,
    n_lambda: int = 100,
    lambda_min_ratio: float = 1e-3,
) -> LassoPath:
    """Exact lasso path for the credible-region objective, by homotopy.

    The grid is log-spaced from lambda_max = 2 ||Sigma^{-1} theta_hat||_inf
    (the smallest penalty whose solution is exactly zero) down to
    lambda_max * lambda_min_ratio. With corr = 2 Sigma^{-1} (theta_hat -
    theta), the active set A holds |corr_A| = lam with signs s; as lam falls,
    theta_A moves along Q_AA^{-1} s / 2 (Q = Sigma^{-1}) until an inactive
    |corr_j| reaches lam (j joins) or an active coefficient whose step turns
    against its sign reaches 0 (it leaves). Grid points are read off these
    segments. A point whose KKT residual exceeds 1e-9 max(1, lambda_max), or
    a path that stops making progress, raises LassoConvergenceError.
    `sigma` is a covariance with a `solve(v)` method for (d,) and (d, k) v.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    d = theta_hat.size
    if n_lambda < 1:
        raise ValueError("n_lambda must be >= 1")
    if not (0.0 < lambda_min_ratio <= 1.0):
        raise ValueError("lambda_min_ratio must lie in (0, 1]")
    corr_at_zero = 2.0 * sigma.solve(theta_hat)
    lam_max = float(np.abs(corr_at_zero).max())
    if lam_max == 0.0:
        # theta_hat is exactly zero; the path is the single zero model.
        return LassoPath(np.array([1.0]), np.zeros((1, d)), theta_hat, np.zeros(1))

    lambdas = np.exp(
        np.linspace(np.log(lam_max), np.log(lam_max * lambda_min_ratio), n_lambda)
    )
    coefs = np.zeros((n_lambda, d))
    theta = np.zeros(d)
    active = np.zeros(0, dtype=int)
    columns = np.zeros((d, 0))  # Q[:, active]
    lam, emitted, stalls = lambdas[0], 0, 0
    while True:
        corr = corr_at_zero - 2.0 * (columns @ theta[active])
        signs = np.sign(corr[active])
        step = 0.5 * np.linalg.solve(columns[active], signs)  # d theta_A / d(-lam)
        slope = 2.0 * (columns @ step)  # d corr / d(-lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            leave = np.where(signs * step < 0.0, np.maximum(-theta[active] / step, 0.0), np.inf)
            up = np.where(slope < 1.0 - TANGENT, np.maximum(lam - corr, 0.0) / (1.0 - slope), np.inf)
            down = np.where(slope > TANGENT - 1.0, np.maximum(lam + corr, 0.0) / (1.0 + slope), np.inf)
        join = np.minimum(up, down)
        join[active] = np.inf
        to_end, leave_at = lam - lambdas[-1], float(leave.min(initial=np.inf))
        gamma = min(to_end, float(join.min()), leave_at)
        lam_next = lambdas[-1] if gamma == to_end else lam - gamma
        stop = int(np.searchsorted(-lambdas, -lam_next, side="right"))
        coefs[emitted:stop, active] = theta[active] + (lam - lambdas[emitted:stop, None]) * step
        emitted = stop
        theta[active] += gamma * step
        if gamma == to_end:
            break
        stalls = stalls + 1 if lam_next == lam else 0
        if stalls > 2 * d:
            raise LassoConvergenceError(f"lasso homotopy stalled at lambda={lam:.6g} on tied variables")
        lam = lam_next
        if gamma == leave_at:
            k = int(np.argmin(leave))
            theta[active[k]] = 0.0
            active, columns = np.delete(active, k), np.delete(columns, k, axis=1)
        else:
            j = int(np.argmin(join))
            unit = np.zeros(d)
            unit[j] = 1.0
            active, columns = np.append(active, j), np.column_stack([columns, sigma.solve(unit)])

    diffs = theta_hat - coefs
    q = sigma.solve(diffs.T)
    residual = _kkt_residuals(-2.0 * q.T, coefs, lambdas)
    bad = np.flatnonzero(residual > 1e-9 * max(1.0, lam_max))
    if bad.size:
        i = int(bad[0])
        raise LassoConvergenceError(
            f"lasso path point {i} (lambda={lambdas[i]:.6g}) not certified: KKT residual {residual[i]:.3g}"
        )
    return LassoPath(lambdas, coefs, theta_hat, np.einsum("ij,ji->i", diffs, q))


def _kkt_residuals(grad: np.ndarray, coefs: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Worst KKT violation per path point, given each point's gradient
    grad = 2 Sigma^{-1} (coef - theta_hat) as a row."""
    lam = lambdas[:, None]
    violation = np.where(
        np.abs(coefs) > SUPPORT_EPS,
        np.abs(grad + lam * np.sign(coefs)),
        np.maximum(np.abs(grad) - lam, 0.0),
    )
    return violation.max(axis=1, initial=0.0)


def pcr_select(path: LassoPath, alpha: float) -> SelectionResult:
    """Sparsest path model inside the (1 - alpha) credible ellipsoid.

    Ties in support size break toward smaller distance, then toward the
    earlier path point. If no path model fits the region, the full
    (unpenalized) model theta_hat is returned with the fallback flag set;
    its distance is zero by definition.
    """
    if not (0.0 < alpha < 1.0 and 1.0 - alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1) and 1 - alpha must round below 1, got {alpha}")
    d = path.theta_hat.size
    if d < 2:
        raise ValueError("selection needs at least 2 coefficients (threshold uses d - 1 dof)")
    delta_max = chi2_quantile(1.0 - alpha, d - 1)
    feasible = path.deltas <= delta_max
    if not feasible.any():
        theta_hat = path.theta_hat.copy()
        return SelectionResult(theta_hat, _support_of(theta_hat), 0.0, delta_max, alpha, fallback=True)
    sizes = np.count_nonzero(np.abs(path.coefs) > SUPPORT_EPS, axis=1)
    i = int(np.lexsort((path.deltas, sizes, ~feasible))[0])  # stable: the first of equal keys
    chosen = path.coefs[i].copy()
    return SelectionResult(chosen, _support_of(chosen), float(path.deltas[i]), delta_max, alpha)


@dataclass(frozen=True)
class ConfusionCounts:
    """Aggregated slot-level classification counts with derived rates."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def fdr(self) -> float:
        denom = self.tp + self.fp
        return self.fp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "fdr": self.fdr, "f1": self.f1}


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
