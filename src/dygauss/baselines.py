"""Comparison approximations to the conjugate posterior: Monte Carlo
(Dirichlet draws formed directly in log-ratio coordinates) and Laplace
(Newton-Raphson MAP plus inverse curvature).

RNG policy: all randomness flows through numpy's PCG64 generator. Streams
are split by SeedSequence spawn keys, so stream k of seed s is reproducible
regardless of how many other streams exist or which threads run them.

Gamma variates are drawn with the shape-boost identity
Gamma(a) == Gamma(a + 1) * U^{1/a}, applied uniformly and kept in log scale.
This sidesteps the underflow that plain gamma sampling hits for shapes like
1/d on sparse tables, where a draw's linear-scale value can be below the
smallest normal double while its log ratio to other coordinates is benign.
`_log_gamma_block` is the one such sampler; the simulation study draws its
true probability vectors with it too.
"""

from __future__ import annotations

import math

import numpy as np

from .posterior import CompoundSymmetryMatrix, DirichletParams, GaussianApprox

__all__ = [
    "stream_rng",
    "derive_seed",
    "mc_approx",
    "map_estimate",
    "laplace_approx",
    "NewtonError",
]

_MAX_RESAMPLE_ROUNDS = 100
_NEWTON_TOL = 1e-10  # relative gradient tolerance of map_estimate (see its docstring)
_NEWTON_MAX_ITER = 100


class NewtonError(RuntimeError):
    """Newton-Raphson failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate: np.ndarray, grad_norm: float):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.grad_norm = grad_norm


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """PCG64 generator for (seed, stream); distinct streams never collide."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def derive_seed(seed: int, *path: int) -> int:
    """Stable 64-bit sub-seed for a labelled branch of the master seed."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(x) for x in path))
    return int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])


# Transient draw buffers are capped near this many doubles (~192 MB total
# across the two per-block temporaries).
_BLOCK_BUDGET = 12_000_000


def _log_gamma_block(rng: np.random.Generator, shapes: np.ndarray, n: int) -> np.ndarray:
    """(n x len(shapes)) matrix of log Gamma(shape) variates, scale 1:
    log G + log(1 - U) / shape, assembled in the gamma draw's own buffer."""
    boosted = rng.gamma(shapes + 1.0, size=(n, shapes.size))
    u = rng.random(size=(n, shapes.size))
    # 1 - U avoids log(0); U in [0, 1) so 1 - U in (0, 1].
    np.subtract(1.0, u, out=u)
    np.log(boosted, out=boosted)
    np.log(u, out=u)
    u /= shapes
    boosted += u
    return boosted


def mc_approx(beta: DirichletParams, mc: int, seed: int) -> np.ndarray:
    """Monte Carlo posterior approximation: an (mc, d) matrix of Dirichlet
    draws mapped to log-ratio coordinates, one row per draw.

    The log ratio of Dirichlet coordinates equals the difference of the
    underlying log-gamma variates, so the draws are formed directly in log
    scale and never touch the simplex boundary. A row that is not finite
    is redrawn from the same stream, for at most _MAX_RESAMPLE_ROUNDS
    rounds; only redrawn rows are checked again, and rows still not finite
    after the last round raise ValueError.
    """
    if mc < 1:
        raise ValueError(f"need mc >= 1 draws, got {mc}")
    rng = stream_rng(seed)
    theta = _theta_draws(rng, beta, mc)
    bad = np.flatnonzero(~np.all(np.isfinite(theta), axis=1))
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        if bad.size == 0:
            break
        redrawn = _theta_draws(rng, beta, bad.size)
        theta[bad] = redrawn
        bad = bad[~np.all(np.isfinite(redrawn), axis=1)]
    if bad.size:
        raise ValueError(f"{bad.size} draws are still not finite after {_MAX_RESAMPLE_ROUNDS} redraw rounds")
    return theta


def _theta_draws(rng: np.random.Generator, beta: DirichletParams, n: int) -> np.ndarray:
    block = max(1, _BLOCK_BUDGET // beta.beta.size)
    out = np.empty((n, beta.d))
    for start in range(0, n, block):
        stop = min(start + block, n)
        log_g = _log_gamma_block(rng, beta.beta, stop - start)
        np.subtract(log_g[:, 1:], log_g[:, :1], out=out[start:stop])
    return out


def _softmax(theta: np.ndarray) -> tuple[np.ndarray, float]:
    """Cell probabilities at log ratios theta: (p_1, ..., p_d) and p_0, with
    p_j = e^{t_j} / (1 + sum e^{t_l}).

    Overflow is guarded by max subtraction, and p_0 is produced directly (not
    as 1 - sum p_j). A probability that underflows to 0 (or a non-finite
    theta) raises ValueError rather than feeding 1/p into a Newton step.
    """
    m = max(0.0, float(theta.max()))
    ex = np.exp(theta - m)
    base = np.exp(-m)
    denom = base + ex.sum()
    probs, p0 = ex / denom, base / denom
    if not (probs.min() > 0.0 and p0 > 0.0):
        raise ValueError("log ratios leave the simplex interior (a probability underflows to 0)")
    return probs, p0


def _log_posterior(theta: np.ndarray, beta: DirichletParams) -> float:
    m = max(0.0, float(theta.max()))
    log_norm = m + math.log(math.exp(-m) + float(np.exp(theta - m).sum()))
    return float(beta.beta[1:] @ theta) - beta.total * log_norm


def map_estimate(beta: DirichletParams) -> np.ndarray:
    """Posterior mode of the log-ratio parameter by damped Newton-Raphson.

    Gradient is b_j - B p_j(theta); the negative Hessian B(Diag(p) - p p^T)
    has the closed-form inverse (Diag(1/p) + 11^T/p_0)/B, so each step is
    O(d). Steps are halved until the log posterior does not decrease, which
    guarantees monotone ascent from the theta = 0 start; the halving ends on
    its own once theta + t step == theta, so an overlong step is never taken.

    Convergence: per-coordinate gradient below _NEWTON_TOL * (1 + b_j) within
    _NEWTON_MAX_ITER steps, else NewtonError. Relative scaling matches the
    gradient's floating-point noise floor (the term B p_j carries relative,
    not absolute, rounding error); an absolute threshold would be
    unreachable for concentrated posteriors. The line
    search is skipped once steps are tiny, where the log posterior can no
    longer resolve the (certain) improvement of a pure Newton step.
    """
    b = beta.beta
    total = beta.total
    thresholds = _NEWTON_TOL * (1.0 + b[1:])
    theta = np.zeros(beta.d)
    value = _log_posterior(theta, beta)
    for _ in range(_NEWTON_MAX_ITER):
        p, p0 = _softmax(theta)
        grad = b[1:] - total * p
        if np.all(np.abs(grad) < thresholds):
            return theta
        step = (grad / p + grad.sum() / p0) / total
        t = 1.0
        # Inside the quadratic basin the objective cannot resolve the
        # improvement of a tiny step; damping there only causes dithering.
        if float(np.abs(step).max()) > 1e-3:
            while _log_posterior(theta + t * step, beta) < value:
                t *= 0.5
        theta = theta + t * step
        value = _log_posterior(theta, beta)
    grad = b[1:] - total * _softmax(theta)[0]
    if np.all(np.abs(grad) < thresholds):
        return theta
    grad_norm = float(np.abs(grad).max())
    raise NewtonError(
        f"MAP Newton did not converge in {_NEWTON_MAX_ITER} iterations "
        f"(worst gradient {grad_norm:.3e})",
        theta,
        grad_norm,
    )


def laplace_approx(beta: DirichletParams) -> GaussianApprox:
    """Gaussian at the posterior mode with inverse-curvature covariance.

    The curvature is the posterior negative Hessian B(Diag(p) - p p^T)
    evaluated at the mode; its inverse is compound symmetric with diagonal
    1/(B p_j) and common term 1/(B p_0), which at the exact mode reduces to
    Diag(1/b_j) + (1/b_0) 11^T.
    """
    theta_hat = map_estimate(beta)
    p, p0 = _softmax(theta_hat)
    total = beta.total
    cov = CompoundSymmetryMatrix(1.0 / (total * p), 1.0 / (total * p0))
    return GaussianApprox(theta_hat, cov, "identity")
