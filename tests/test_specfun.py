import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from dygauss import specfun
from dygauss.specfun import (
    chi2_quantile,
    digamma,
    log_gamma,
    normal_cdf,
    normal_quantile,
    trigamma,
)

from oracles import (
    chi2_quantile_bisect,
    euler_gamma_series,
    log_gamma_quad,
    normal_cdf_simpson,
    trigamma_bracket,
)

# Frozen oracle outputs (see oracles.py; regenerated values agree to the shown digits).
LOG_GAMMA_HALF = 0.5723649429244755  # log_gamma_quad(0.5), quadrature error < 1e-10
EULER_GAMMA = 0.5772156649007987  # euler_gamma_series(10**6), error < 1e-12
CHI2_95_1 = 3.841458820693946  # chi2_quantile_bisect(0.95, 1)
CHI2_95_3 = 7.814727903257351  # chi2_quantile_bisect(0.95, 3)
PHI_975 = 0.9750000009035575  # normal_cdf_simpson(1.959964)


class TestLogGamma:
    def test_integer_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(LOG_GAMMA_HALF, abs=1e-9)
        assert log_gamma(0.5) == pytest.approx(log_gamma_quad(0.5), abs=5e-9)

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                log_gamma(bad)

    def test_stirling_sandwich(self):
        rng = np.random.default_rng(10)
        for z in rng.uniform(0.01, 100.0, 1000):
            s = 0.5 * math.log(2 * math.pi) + (z - 0.5) * math.log(z) - z
            value = log_gamma(z)
            assert s < value < s + 1.0 / (12.0 * z)


class TestDigamma:
    def test_recurrence_at_one(self):
        assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-9)
        assert digamma(1.0) == pytest.approx(-euler_gamma_series(10**5), abs=1e-9)

    def test_bound_at_three(self):
        # psi(z+1) - log z in (1/2z - 1/12z^2, 1/2z) applied at z = 3
        lo = math.log(3.0) + 1.0 / 6.0 - 1.0 / 108.0
        hi = math.log(3.0) + 1.0 / 6.0
        assert lo < digamma(4.0) < hi

    def test_bound_everywhere(self):
        rng = np.random.default_rng(11)
        for z in rng.uniform(0.01, 100.0, 1000):
            gap = digamma(z + 1.0) - math.log(z)
            assert 1.0 / (2 * z) - 1.0 / (12 * z * z) < gap < 1.0 / (2 * z)

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-3.5)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 100.0))
    def test_recurrence(self, z):
        assert digamma(z + 1.0) - digamma(z) == pytest.approx(1.0 / z, abs=1e-11)


class TestTrigamma:
    def test_basel_value(self):
        lo, hi = trigamma_bracket(1.0, m=200_000)
        assert lo <= trigamma(1.0) <= hi
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-9)

    def test_bound_at_two(self):
        assert 0.5 < trigamma(2.0) < 0.75

    def test_bound_everywhere(self):
        rng = np.random.default_rng(12)
        for z in rng.uniform(0.34, 100.0, 1000):
            assert 1.0 / z < trigamma(z) < 1.0 / z + 1.0 / (z * z)

    def test_lower_bound_small_z(self):
        for z in (0.02, 0.1, 0.3):
            assert trigamma(z) > 1.0 / z

    def test_recurrence_quarter(self):
        assert trigamma(0.25) - trigamma(1.25) == pytest.approx(16.0, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 100.0))
    def test_recurrence(self, z):
        assert trigamma(z) - trigamma(z + 1.0) == pytest.approx(1.0 / (z * z), abs=1e-11)

    def test_positive(self):
        assert trigamma(50.0) > 0.0
        with pytest.raises(ValueError):
            trigamma(-1.0)


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_975(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert normal_cdf(1.959964) == pytest.approx(PHI_975, abs=1e-12)

    def test_extreme_tail(self):
        assert 0.0 <= normal_cdf(-38.0) <= 1e-300

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_cdf(math.inf)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-37.0, 37.0))
    def test_symmetry(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        xs = np.linspace(-8, 8, 2001)
        vals = [normal_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_quantile_roundtrip(self):
        for p in (0.025, 0.5, 0.975, 0.9, 1e-4):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-9, abs=1e-12)

    def test_quantile_equals_newton_through_the_array_cdf(self):
        """The scalar erfc step is normal_cdf's arithmetic: the same Newton
        iteration evaluated through normal_cdf gives the same bits."""

        def through_normal_cdf(p):
            q = min(p, 1.0 - p)
            x = -math.sqrt(max(-2.0 * math.log(q), 0.0))
            if p > 0.5:
                x = -x
            for _ in range(specfun._MAX_ITER):
                err = normal_cdf(x) - p
                if abs(err) <= specfun._REL_TOL * min(p, 1.0 - p) + 1e-16:
                    break
                d = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
                if d <= 0.0:
                    break
                x -= max(min(err / d, 1.0), -1.0)
            return x

        grid = np.concatenate([np.geomspace(1e-300, 0.5, 500), 1.0 - np.geomspace(1e-16, 0.5, 500)])
        for p in grid.tolist():
            assert normal_quantile(p).hex() == through_normal_cdf(p).hex(), p


class TestChi2Quantile:
    def test_median_two_dof(self):
        # chi-square with 2 dof is exponential with rate 1/2
        assert chi2_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), abs=1e-6)

    def test_against_bisection_oracle(self):
        assert chi2_quantile(0.95, 1) == pytest.approx(CHI2_95_1, abs=1e-5)
        assert chi2_quantile(0.95, 3) == pytest.approx(CHI2_95_3, abs=1e-5)
        assert chi2_quantile(0.9, 2) == pytest.approx(chi2_quantile_bisect(0.9, 2), abs=1e-7)

    def test_right_inverse_of_cdf(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = float(rng.uniform(1e-6, 1.0 - 1e-6))
            k = int(rng.integers(1, 80))
            assert stats.chi2.cdf(chi2_quantile(p, k), k) == pytest.approx(p, abs=1e-9)

    # p from 1e-10 to 1 - 1e-10: both tails and the middle
    TAIL_PS = [*np.logspace(-10, -1, 10), 0.3, 0.5, 0.7, *(1.0 - np.logspace(-10, -1, 10))]

    def test_two_dof_closed_form(self):
        # chi-square with 2 dof is exponential with rate 1/2: x = -2 log(1 - p)
        for p in self.TAIL_PS:
            assert chi2_quantile(p, 2) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("k", [1, 3, 6, 63, 254, 4094, 65534])
    def test_tail_quantiles_match_scipy(self, k):
        for p in self.TAIL_PS:
            assert chi2_quantile(p, k) == pytest.approx(stats.chi2.ppf(p, k), rel=1e-9, abs=0.0), p

    def test_log_gamma_evaluated_once(self, monkeypatch):
        calls = []

        def counting(z):
            calls.append(z)
            return log_gamma(z)

        monkeypatch.setattr(specfun, "log_gamma", counting)
        for p, k in [(0.9, 6), (1e-10, 1), (1.0 - 1e-10, 254)]:
            calls.clear()
            chi2_quantile(p, k)
            assert len(calls) == 1, (p, k)

    def test_increasing_in_p(self):
        qs = [chi2_quantile(p, 4) for p in np.linspace(0.01, 0.99, 50)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_quantile(0.0, 2)
        with pytest.raises(ValueError):
            chi2_quantile(1.0, 2)
        with pytest.raises(ValueError):
            chi2_quantile(0.5, 0)


class TestArrayNative:
    """log_gamma, digamma, trigamma and normal_cdf on arrays, with the scalar as the 0-d case."""

    GAMMA_FAMILY = (log_gamma, digamma, trigamma)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e15), min_size=0, max_size=40))
    def test_array_equals_elementwise_scalar_calls(self, values):
        z = np.array([1e-6, *values, 1e15])
        for f in self.GAMMA_FAMILY:
            out = f(z)
            assert isinstance(out, np.ndarray) and out.shape == z.shape
            np.testing.assert_array_equal(out, [f(v) for v in z])
            np.testing.assert_array_equal(f(z.reshape(1, -1))[0], out)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40))
    def test_normal_cdf_array_equals_elementwise(self, values):
        x = np.array(values)
        np.testing.assert_array_equal(normal_cdf(x), [normal_cdf(v) for v in x])

    def test_scalar_returns_float(self):
        for f in (*self.GAMMA_FAMILY, normal_cdf):
            for z in (2.5, np.float64(2.5), np.array(2.5), 3):
                assert type(f(z)) is float

    def test_against_scipy(self):
        rng = np.random.default_rng(14)
        z = np.concatenate(
            [
                np.exp(rng.uniform(math.log(1e-6), math.log(1e15), 20_000)),
                np.linspace(0.5, 3.0, 2_001),
                [1e-6, 0.5, 1.0, 2.0, 10.0, 1e15],
            ]
        )
        # lnGamma vanishes at 1 and 2 and psi at 1.4616...: there the shift sum
        # leaves an absolute error of ~1e-14 that no relative bound can hold.
        near_zeros = (z >= 0.5) & (z <= 3.0)
        cases = (
            (log_gamma, special.gammaln(z), 2e-14),
            (digamma, special.digamma(z), 1e-14),
            (trigamma, special.polygamma(1, z), 0.0),
        )
        for f, expected, atol in cases:
            err = np.abs(f(z) - expected)
            bound = 1e-13 * np.abs(expected) + np.where(near_zeros, atol, 0.0)
            worst = int(np.argmax(err / bound))
            assert err[worst] <= bound[worst], (f.__name__, z[worst], err[worst])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_single_bad_entry_raises(self, bad):
        z = np.array([0.5, 3.0, 1e15, 2.0, 7.0])
        z[2] = bad
        for f in self.GAMMA_FAMILY:
            with pytest.raises(ValueError):
                f(z)
        if math.isfinite(bad):
            normal_cdf(z)
        else:
            with pytest.raises(ValueError):
                normal_cdf(z)
