"""Special functions: log-gamma, digamma, trigamma and the normal CDF on
arrays, and the scalar normal and chi-square quantiles.

`log_gamma`, `digamma`, `trigamma` and `normal_cdf` apply elementwise to an
array of any shape; a scalar is the 0-d case and comes back as a float. The
gamma-derivative family shifts every entry upward by the recurrence until it
is >= 10 (one masked pass per step, at most 10 passes), then evaluates an
asymptotic (Bernoulli-number) expansion whose truncation error is below
1e-14 there. The recurrences double as test invariants. `chi2_quantile`
inverts the regularized incomplete gamma by a private series / continued
fraction helper. All functions are pure and deterministic.
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
    "chi2_quantile",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# Arguments below this are shifted up by the recurrence before the
# asymptotic series is applied.
_ASYMPTOTIC_CUTOFF = 10.0

# Tolerance, relative to the smaller tail probability, and iteration cap of
# the iterative scalar routines.
_REL_TOL = 1e-12
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
        err = 0.5 * math.erfc(-x / _SQRT2) - p  # normal_cdf(x), without its array path
        if abs(err) <= _REL_TOL * min(p, 1.0 - p) + 1e-16:
            break
        d = _normal_pdf(x)
        if d <= 0.0:
            break
        step = err / d
        # Limit the step so the tail-flat pdf cannot catapult the iterate.
        step = max(min(step, 1.0), -1.0)
        x -= step
    return x


def _reg_gamma(a: float, x: float, log_gamma_a: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for a >= 1/2, x > 0, given log_gamma_a = log Gamma(a):
    the power series gives P for x < a + 1, the modified Lentz continued
    fraction gives Q otherwise, and the other is one minus it (at least 0.08
    there, so it keeps its relative accuracy)."""
    lower = x < a + 1.0
    if lower:
        term = 1.0 / a
        value = term
        n = a
        for _ in range(10 * _MAX_ITER):
            n += 1.0
            term *= x / n
            value += term
            if abs(term) < abs(value) * 1e-16:
                break
    else:
        tiny = 1e-300
        b = x + 1.0 - a
        c = 1.0 / tiny
        d = 1.0 / b
        value = d
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
            value *= delta
            if abs(delta - 1.0) < 1e-16:
                break
    value *= math.exp(a * math.log(x) - x - log_gamma_a)
    return (value, 1.0 - value) if lower else (1.0 - value, value)


def chi2_quantile(p: float, k: int) -> float:
    """Quantile of the chi-square distribution with k degrees of freedom.

    Wilson-Hilferty initial guess refined by bracket-safeguarded Newton on
    the regularized incomplete gamma; falls back to bisection when Newton
    stalls (the density is unbounded at 0 for k = 1, so the safeguard is
    not optional). It solves P(k/2, x/2) = p for p <= 1/2 and
    Q(k/2, x/2) = 1 - p above, to 1e-12 of that tail probability or until
    Newton no longer moves x, so the quantile is accurate in relative terms
    in both tails.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"chi2_quantile requires p in (0, 1), got {p}")
    if k < 1:
        raise ValueError(f"chi2_quantile requires k >= 1, got {k}")
    half_k = 0.5 * k
    log_gamma_half_k = log_gamma(half_k)
    upper = p > 0.5
    tail = 1.0 - p if upper else p  # exact: 1 - p has no rounding on [1/2, 1]

    def excess(x: float) -> float:
        """P(k/2, x/2) - p, computed from the tail that holds p."""
        half_x = 0.5 * x
        lower_p, upper_q = _reg_gamma(half_k, half_x, log_gamma_half_k) if half_x > 0.0 else (0.0, 1.0)
        return tail - upper_q if upper else lower_p - tail

    z = normal_quantile(p)
    t = 1.0 - 2.0 / (9.0 * k) + z * math.sqrt(2.0 / (9.0 * k))
    x = k * t * t * t if t > 0.0 else 0.0
    if x <= 0.0:
        x = max(0.5 * k * math.exp((math.log(p) + log_gamma_half_k + math.log(2.0)) / (0.5 * k)), 1e-300)

    lo, hi = 0.0, math.inf
    for _ in range(_MAX_ITER):
        err = excess(x)
        if err > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        if abs(err) <= _REL_TOL * tail:
            return x
        d = math.exp((half_k - 1.0) * math.log(x) - 0.5 * x - half_k * math.log(2.0) - log_gamma_half_k)
        if d > 0.0 and math.isfinite(d):
            x_new = x - err / d
        else:
            x_new = math.nan
        if not (lo < x_new < hi) or not math.isfinite(x_new):
            x_new = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * x
        if x_new == x:  # the step is below half an ulp: roundoff in P bounds the error
            return x
        x = x_new

    # Bisection endgame; the bracket is guaranteed by the loop above.
    if not math.isfinite(hi):
        hi = max(x, 1.0)
        while excess(hi) < 0.0:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)
