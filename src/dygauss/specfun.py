"""Special functions: log-gamma, digamma, trigamma and the normal CDF on
arrays, and the scalar normal quantile, regularized incomplete gamma and
chi-square CDF/quantile.

`log_gamma`, `digamma`, `trigamma` and `normal_cdf` apply elementwise to an
array of any shape; a scalar is the 0-d case and comes back as a float. The
gamma-derivative family shifts every entry upward by the recurrence until it
is >= 10 (one masked pass per step, at most 10 passes), then evaluates an
asymptotic (Bernoulli-number) expansion whose truncation error is below
1e-14 there. The recurrences double as test invariants. All functions are
pure and deterministic.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "trigamma",
    "normal_cdf",
    "normal_quantile",
    "reg_lower_gamma",
    "chi2_cdf",
    "chi2_quantile",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# Arguments below this are shifted up by the recurrence before the
# asymptotic series is applied.
_ASYMPTOTIC_CUTOFF = 10.0

# Convergence targets of the iterative scalar routines.
_ABS_TOL = 1e-12
_MAX_ITER = 200


def _require_positive(z, name: str) -> np.ndarray:
    """z as a new float array; ValueError unless every entry is positive and finite."""
    z = np.array(z, dtype=float)
    bad = ~(np.isfinite(z) & (z > 0.0))
    if bad.any():
        raise ValueError(f"{name} requires positive finite arguments, got {z[bad][0]}")
    return z


def _recurrence_shift(z: np.ndarray, term) -> np.ndarray:
    """Move every entry of z below the cutoff up by 1 until none is, in place.

    Returns, per entry, the sum of term(z) over the values each entry passed
    through, added in the order of the scalar recurrence.
    """
    total = np.zeros_like(z)
    low = z < _ASYMPTOTIC_CUTOFF
    while low.any():
        np.add(total, term(z), out=total, where=low)
        np.add(z, 1.0, out=z, where=low)
        low = z < _ASYMPTOTIC_CUTOFF
    return total


def _series(w: np.ndarray, coefs: tuple[float, ...], sign: float) -> np.ndarray:
    """c0 + sign w (c1 + sign w (c2 + ...)) by Horner's rule, innermost first."""
    sw = sign * w
    acc = np.full_like(w, coefs[-1])
    for c in reversed(coefs[:-1]):
        acc = c + sw * acc
    return acc


# Asymptotic series coefficients, lowest order first, in units of w = 1/z^2:
# B_2k / (2k (2k-1)) for log-gamma (Stirling), |B_2k| / 2k for digamma and
# |B_2k| for trigamma, whose series alternate in sign.
_LOG_GAMMA_COEFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_DIGAMMA_COEFS = (1 / 12, 1 / 120, 1 / 252, 1 / 240, 1 / 132, 691 / 32760, 1 / 12)
_TRIGAMMA_COEFS = (1 / 6, 1 / 30, 1 / 42, 1 / 30, 5 / 66, 691 / 2730, 7 / 6)


def _result(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def log_gamma(z):
    """log Gamma(z) for z > 0, elementwise."""
    z = _require_positive(z, "log_gamma")
    shift = _recurrence_shift(z, np.log)
    series = _series(1.0 / (z * z), _LOG_GAMMA_COEFS, 1.0) / z
    return _result(_HALF_LOG_2PI + (z - 0.5) * np.log(z) - z + series - shift)


def digamma(z):
    """psi(z) = d/dz log Gamma(z) for z > 0, elementwise."""
    z = _require_positive(z, "digamma")
    shift = _recurrence_shift(z, np.reciprocal)
    w = 1.0 / (z * z)
    series = w * _series(w, _DIGAMMA_COEFS, -1.0)
    return _result(np.log(z) - 0.5 / z - series - shift)


def trigamma(z):
    """psi'(z), the derivative of digamma, for z > 0, elementwise. Always positive."""
    z = _require_positive(z, "trigamma")
    shift = _recurrence_shift(z, lambda v: 1.0 / (v * v))
    w = 1.0 / (z * z)
    series = w * _series(w, _TRIGAMMA_COEFS, -1.0)
    return _result(1.0 / z + 0.5 * w + series / z + shift)


def normal_cdf(x):
    """Standard normal CDF Phi(x), elementwise."""
    x = np.asarray(x, dtype=float)
    bad = ~np.isfinite(x)
    if bad.any():
        raise ValueError(f"normal_cdf requires finite arguments, got {x[bad][0]}")
    u = -x / _SQRT2
    erfc = np.fromiter(map(math.erfc, u.ravel().tolist()), dtype=float, count=u.size)
    return _result(0.5 * erfc.reshape(u.shape))


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF on (0, 1).

    Tail-asymptotic initial guess refined by Newton; the CDF is smooth and
    log-concave so this converges in a handful of steps.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"normal_quantile requires p in (0, 1), got {p}")
    q = min(p, 1.0 - p)
    # sqrt(-2 log q) is exact to leading order in the tail and adequate
    # everywhere as a starting point.
    x = -math.sqrt(max(-2.0 * math.log(q), 0.0))
    if p > 0.5:
        x = -x
    for _ in range(_MAX_ITER):
        err = normal_cdf(x) - p
        if abs(err) <= _ABS_TOL * min(p, 1.0 - p) + 1e-16:
            break
        d = _normal_pdf(x)
        if d <= 0.0:
            break
        step = err / d
        # Limit the step so the tail-flat pdf cannot catapult the iterate.
        step = max(min(step, 1.0), -1.0)
        x -= step
    return x


def _lower_gamma_series(a: float, x: float) -> float:
    """P(a, x) by power series, reliable for x < a + 1."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(10 * _MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(a * math.log(x) - x - log_gamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Q(a, x) by modified Lentz continued fraction, reliable for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10 * _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(a * math.log(x) - x - log_gamma(a))


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    a = float(_require_positive(a, "reg_lower_gamma"))
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"reg_lower_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x)
    return 1.0 - _upper_gamma_cf(a, x)


def chi2_cdf(x: float, k: int) -> float:
    """CDF of the chi-square distribution with k degrees of freedom."""
    if k < 1:
        raise ValueError(f"chi2_cdf requires k >= 1, got {k}")
    if x <= 0.0:
        return 0.0
    return reg_lower_gamma(0.5 * k, 0.5 * x)


def _chi2_logpdf(x: float, k: int) -> float:
    half_k = 0.5 * k
    return (half_k - 1.0) * math.log(x) - 0.5 * x - half_k * math.log(2.0) - log_gamma(half_k)


def chi2_quantile(p: float, k: int) -> float:
    """Quantile of the chi-square distribution with k degrees of freedom.

    Wilson-Hilferty initial guess refined by bracket-safeguarded Newton on
    the regularized incomplete gamma; falls back to bisection when Newton
    stalls (the density is unbounded at 0 for k = 1, so the safeguard is
    not optional).
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"chi2_quantile requires p in (0, 1), got {p}")
    if k < 1:
        raise ValueError(f"chi2_quantile requires k >= 1, got {k}")

    z = normal_quantile(p)
    t = 1.0 - 2.0 / (9.0 * k) + z * math.sqrt(2.0 / (9.0 * k))
    x = k * t * t * t if t > 0.0 else 0.0
    if x <= 0.0:
        x = 0.5 * k * math.exp((math.log(p) + log_gamma(0.5 * k) + math.log(2.0)) / (0.5 * k))
        x = max(x, 1e-300)

    lo, hi = 0.0, math.inf
    for _ in range(_MAX_ITER):
        err = chi2_cdf(x, k) - p
        if err > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        if abs(err) <= _ABS_TOL:
            return x
        d = math.exp(_chi2_logpdf(x, k))
        if d > 0.0 and math.isfinite(d):
            x_new = x - err / d
        else:
            x_new = math.nan
        if not (lo < x_new < hi) or not math.isfinite(x_new):
            x_new = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * x
        x = x_new

    # Bisection endgame; the bracket is guaranteed by the loop above.
    if not math.isfinite(hi):
        hi = max(x, 1.0)
        while chi2_cdf(hi, k) < p:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, k) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
