import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dygauss.baselines import stream_rng
from dygauss.metrics import (
    CREDIBLE_LEVEL,
    MetricReport,
    coverage,
    empirical_intervals,
    frobenius_loss,
    gaussian_intervals,
    ks_statistic,
    unexplained_variation,
)
from dygauss.posterior import DirichletParams, optimal_gaussian
from dygauss.simulate import multinomial_sample
from dygauss.specfun import normal_quantile


class TestUnexplainedVariation:
    def test_perfect_estimate(self):
        t = np.array([0.4, -1.0, 2.0])
        assert unexplained_variation(t, t) == 0.0

    def test_hand_example(self):
        # truth (0, 2): centered norm = sqrt(2); residual norm = 1
        assert unexplained_variation(np.array([1.0, 2.0]), np.array([0.0, 2.0])) == pytest.approx(
            1.0 / math.sqrt(2.0)
        )

    def test_constant_truth_rejected(self):
        with pytest.raises(ValueError):
            unexplained_variation(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-50.0, 50.0))
    def test_shift_invariance(self, c):
        rng = np.random.default_rng(1)
        t0 = rng.normal(size=12)
        th = t0 + rng.normal(size=12) * 0.3
        base = unexplained_variation(th, t0)
        shifted = unexplained_variation(th + c, t0 + c)
        assert shifted == pytest.approx(base, rel=1e-9)


class TestCoverage:
    def test_everything_covered(self):
        t0 = np.array([0.0, 5.0, -2.0])
        assert coverage([(-1e308, 1e308)] * 3, t0) == 1.0

    def test_degenerate_intervals_at_truth(self):
        t0 = np.array([1.0, 2.0])
        assert coverage([(1.0, 1.0), (2.0, 2.0)], t0) == 1.0

    def test_counts_fraction(self):
        t0 = np.array([0.0, 10.0])
        assert coverage([(-1.0, 1.0), (0.0, 1.0)], t0) == 0.5

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            coverage([(1.0, 0.0)], np.array([0.5]))

    def test_gaussian_interval_construction(self):
        intervals = gaussian_intervals(np.array([2.0]), np.array([4.0]))
        assert isinstance(intervals, np.ndarray) and intervals.shape == (1, 2)
        (lo, hi), = intervals
        z = 1.959963984540054
        assert lo == pytest.approx(2.0 - 2.0 * z, abs=1e-9)
        assert hi == pytest.approx(2.0 + 2.0 * z, abs=1e-9)

    def test_intervals_match_per_coordinate_reference(self):
        rng = np.random.default_rng(3)
        mean, variances = rng.normal(size=255), rng.uniform(0.01, 4.0, 255)
        z = normal_quantile(0.975)
        expected = [(float(m - h), float(m + h)) for m, h in zip(mean, z * np.sqrt(variances))]
        np.testing.assert_array_equal(gaussian_intervals(mean, variances), expected)
        draws = rng.normal(size=(500, 7))
        tail = 100.0 * 0.5 * (1.0 - 0.95)
        lo, hi = np.percentile(draws, tail, axis=0), np.percentile(draws, 100.0 - tail, axis=0)
        np.testing.assert_array_equal(empirical_intervals(draws), list(zip(lo, hi)))

    def test_empirical_interval_construction(self):
        rng = np.random.default_rng(2)
        draws = rng.normal(size=(200_000, 2))
        intervals = empirical_intervals(draws)
        assert isinstance(intervals, np.ndarray) and intervals.shape == (2, 2)
        (lo, hi), _ = intervals
        assert lo == pytest.approx(-1.96, abs=0.03)
        assert hi == pytest.approx(1.96, abs=0.03)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 300), st.integers(1, 6)),
        scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e5, 1e300]),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_empirical_intervals_equal_numpy_percentile(self, shape, scale, ties, seed):
        """Sorted-draw interpolation is numpy's "linear" percentile exactly,
        ties and every sample size from 1 up included."""
        draws = np.random.default_rng(seed).normal(size=shape)
        if ties:
            draws = np.round(draws * 3)
        draws *= scale
        tail = 100.0 * 0.5 * (1.0 - CREDIBLE_LEVEL)
        expected = np.percentile(draws, [tail, 100.0 - tail], axis=0).T
        assert np.array_equal(empirical_intervals(draws), expected)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_empirical_intervals_leave_draws_and_report_sorted_columns(self, layout):
        """Blocks of columns are sorted in copies, also where a block is a
        contiguous slice of the draws (F order), and `on_sorted` sees each
        column's sorted values once."""
        draws = np.asarray(np.random.default_rng(5).normal(size=(301, 37)), order=layout)
        before = draws.copy()
        seen = []
        intervals = empirical_intervals(draws, lambda j, values: seen.append((j, values.copy())))
        assert np.array_equal(draws, before)
        assert sorted(j for j, _ in seen) == list(range(37))
        for j, values in seen:
            assert np.array_equal(values, np.sort(draws[:, j]))
        tail = 100.0 * 0.5 * (1.0 - CREDIBLE_LEVEL)
        assert np.array_equal(intervals, np.percentile(draws, [tail, 100.0 - tail], axis=0).T)

    def test_calibrated_bayes_coverage(self):
        """Intervals from the optimal Gaussian on prior-simulated data hit
        nominal coverage on average."""
        d = 63
        replicates, n = 30, 10_000
        values = []
        for rep in range(replicates):
            rng = stream_rng(2024, rep)
            alpha = np.ones(d + 1)
            g = np.log(rng.gamma(alpha + 1.0)) + np.log(1.0 - rng.random(d + 1))
            theta0 = g[1:] - g[0]
            pif = np.exp(g - g.max())
            pif /= pif.sum()
            y = multinomial_sample(n, pif, rng)
            gauss = optimal_gaussian(DirichletParams(alpha + y))
            values.append(coverage(gaussian_intervals(gauss.mean, gauss.variances()), theta0))
        half_width = 3.0 * math.sqrt(0.05 * 0.95 / (replicates * d))
        assert abs(float(np.mean(values)) - 0.95) < half_width


class TestFrobeniusLoss:
    def test_zero_at_truth(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert frobenius_loss(m, m) == 0.0

    def test_doubling(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert frobenius_loss(2.0 * m, m) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            frobenius_loss(np.eye(2), np.zeros((2, 2)))


class TestKsStatistic:
    def test_point_mass_at_mean(self):
        assert ks_statistic(np.zeros(50), 0.0, 1.0) == pytest.approx(0.5)

    def test_exact_quantile_construction(self):
        n = 1000
        samples = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
        assert ks_statistic(samples, 0.0, 1.0) <= 0.0005 + 1.0 / (2 * n)

    def test_detects_wrong_scale(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=5000) * 2.0
        assert ks_statistic(samples, 0.0, 1.0) > 0.15

    def test_unsorted_input_handled(self):
        rng = np.random.default_rng(4)
        samples = rng.normal(size=2000)
        shuffled = samples.copy()
        rng.shuffle(shuffled)
        assert ks_statistic(shuffled, 0.0, 1.0) == ks_statistic(np.sort(samples), 0.0, 1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(loc=0.3, scale=1.2, size=4000)
        mine = ks_statistic(samples, 0.0, 1.0)
        ref = stats.kstest(samples, "norm").statistic
        assert mine == pytest.approx(float(ref), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-5.0, 5.0), st.floats(0.1, 10.0))
    def test_affine_invariance(self, shift, scale):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=500)
        base = ks_statistic(samples, 0.1, 1.3)
        moved = ks_statistic(samples * scale + shift, 0.1 * scale + shift, 1.3 * scale)
        assert moved == pytest.approx(base, abs=1e-12)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            ks_statistic(np.zeros(3), 0.0, 0.0)

    def test_ascending_samples_are_not_sorted_again(self, monkeypatch):
        """The study passes columns already sorted for the intervals."""
        ordered = np.sort(np.random.default_rng(6).normal(size=999))
        expected = ks_statistic(ordered[::-1], 0.1, 1.2)
        sorts = []
        real_sort = np.sort
        monkeypatch.setattr(np, "sort", lambda a, *args, **kw: sorts.append(1) or real_sort(a, *args, **kw))
        assert ks_statistic(ordered, 0.1, 1.2) == expected
        assert not sorts


class TestMetricReport:
    def test_row_shape(self):
        row = MetricReport("coverage_on", 0.95, "identity", 250, 0, 3).as_row()
        assert row == ("coverage_on", "identity", 250, "", 3, repr(0.95))

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError, match="non-finite"):
            MetricReport("x", float("nan"))
