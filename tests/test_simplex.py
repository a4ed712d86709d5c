"""The simplex map behind the Laplace baseline (`baselines._softmax`, log
ratios to cell probabilities) and the log-ratio density oracle
(`oracles.ld_logpdf`) that the quadrature checks integrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dygauss.baselines import _softmax

from oracles import gauss_legendre, ld_logpdf


def theta_vectors(max_d=64, lo=-20.0, hi=20.0):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(st.floats(lo, hi), min_size=d, max_size=d)
    )


def theta_batches(max_n=16, max_d=8, lo=-40.0, hi=40.0):
    return st.tuples(st.integers(1, max_n), st.integers(1, max_d)).flatmap(
        lambda nd: st.lists(st.floats(lo, hi), min_size=nd[0] * nd[1], max_size=nd[0] * nd[1]).map(
            lambda values: np.reshape(values, nd)
        )
    )


def log_ratio(probs, p0):
    return np.log(probs) - np.log(p0)


def composed_logpdf(theta, beta):
    """Dirichlet log density at the softmax image plus the log-Jacobian, the
    sum of the logs of all d + 1 probabilities."""
    probs, p0 = _softmax(theta)
    full = np.concatenate([[p0], probs])
    return float(stats.dirichlet.logpdf(full, beta)) + float(np.log(full).sum())


class TestLogistic:
    def test_symmetric(self):
        probs, p0 = _softmax(np.zeros(3))
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.25])
        assert p0 == pytest.approx(0.25)

    def test_scalar(self):
        probs, _ = _softmax(np.array([math.log(2.0)]))
        assert probs[0] == pytest.approx(2.0 / 3.0)

    def test_direct_evaluation(self):
        denom = 1.0 + math.e + math.exp(-1.0)
        probs, _ = _softmax(np.array([1.0, -1.0]))
        np.testing.assert_allclose(probs, [math.e / denom, math.exp(-1.0) / denom], rtol=1e-14)

    def test_large_entries_no_overflow(self):
        probs, p0 = _softmax(np.array([600.0, 590.0]))
        assert np.all(np.isfinite(probs)) and p0 > 0.0
        np.testing.assert_allclose(log_ratio(probs, p0), [600.0, 590.0], rtol=1e-12)

    def test_unrepresentable_extremes_rejected(self):
        # coordinates below the double-precision floor cannot be interior
        with pytest.raises(ValueError, match="interior"):
            _softmax(np.array([-800.0, 0.0]))

    def test_domain(self):
        with pytest.raises(ValueError):
            _softmax(np.array([np.nan]))


class TestLogRatio:
    def test_scalar(self):
        probs, p0 = _softmax(np.zeros(1))
        assert log_ratio(probs, p0)[0] == pytest.approx(0.0)

    def test_uniform(self):
        probs, p0 = _softmax(np.zeros(3))
        np.testing.assert_allclose(log_ratio(probs, p0), 0.0, atol=1e-14)

    def test_known(self):
        probs, p0 = _softmax(np.array([math.log(2.0), 0.0]))
        np.testing.assert_allclose(probs, [0.5, 0.25], rtol=1e-15)
        assert p0 == pytest.approx(0.25, rel=1e-15)

    def test_boundary_rejected(self):
        # the baseline probability underflows as well as a free one
        with pytest.raises(ValueError, match="interior"):
            _softmax(np.array([800.0, 0.0]))
        with pytest.raises(ValueError, match="interior"):
            _softmax(np.array([0.0, -np.inf]))

    @settings(max_examples=250, deadline=None)
    @given(theta_vectors())
    def test_roundtrip(self, t):
        theta = np.asarray(t)
        np.testing.assert_allclose(log_ratio(*_softmax(theta)), theta, atol=1e-11, rtol=1e-11)


class TestJacobian:
    """Under the flat Dirichlet(1, ..., 1), of density d!, the log-ratio
    density is log d! plus the log-Jacobian sum_l t_l - (d + 1) log(1 + sum e^{t_l})."""

    def test_scalar_zero(self):
        assert ld_logpdf(np.zeros(1), np.ones(2)) == pytest.approx(math.log(0.25))

    def test_uniform(self):
        expected = math.log(6.0) + 4.0 * math.log(0.25)
        assert ld_logpdf(np.zeros(3), np.ones(4)) == pytest.approx(expected)

    def test_matches_probability_sum(self):
        theta = np.array([1.0, -1.0])
        probs, p0 = _softmax(theta)
        expected = math.log(2.0) + math.log(p0) + float(np.log(probs).sum())
        assert ld_logpdf(theta, np.ones(3)) == pytest.approx(expected, abs=1e-12)


class TestDirichletLogpdf:
    """Hand-evaluated Dirichlet densities, read through the change of
    variables: log-ratio density = Dirichlet density + sum of log probabilities."""

    @staticmethod
    def dirichlet_part(probs, beta):
        probs = np.asarray(probs)
        full = np.concatenate([[1.0 - probs.sum()], probs])
        return ld_logpdf(np.log(probs / full[0]), beta) - float(np.log(full).sum())

    def test_uniform_on_unit_interval(self):
        assert self.dirichlet_part([0.3], np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_beta(self):
        value = self.dirichlet_part([0.5], np.array([2.0, 2.0]))
        assert value == pytest.approx(math.log(1.5), abs=1e-12)

    def test_hand_evaluated(self):
        value = self.dirichlet_part([0.2, 0.3], np.array([2.0, 1.0, 1.0]))
        assert value == pytest.approx(math.log(3.0), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            ld_logpdf(np.zeros(2), np.array([2.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            ld_logpdf(np.zeros(1), np.array([1.0, 1.0, 1.0]))


class TestLdLogpdf:
    def test_scalar_uniform(self):
        assert ld_logpdf(np.zeros(1), np.array([1.0, 1.0])) == pytest.approx(math.log(0.25))

    def test_quadrature_normalization_1d(self):
        nodes, weights = gauss_legendre(-40.0, 40.0, 500)
        total = float(np.sum(weights * np.exp(ld_logpdf(nodes[:, None], np.array([1.0, 1.0])))))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_change_of_variable_composition(self):
        beta = np.array([2.0, 1.0, 1.0])
        theta = np.log(np.array([0.2, 0.3]) / 0.5)
        assert ld_logpdf(theta, beta) == pytest.approx(composed_logpdf(theta, beta), abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(theta_vectors(max_d=8, lo=-8.0, hi=8.0), st.floats(0.5, 5.0), st.floats(0.5, 5.0))
    def test_change_of_variable_random(self, t, b_low, b_high):
        theta = np.asarray(t)
        rng = np.random.default_rng(abs(hash((tuple(t), b_low, b_high))) % 2**32)
        beta = rng.uniform(min(b_low, b_high), max(b_low, b_high) + 0.1, theta.size + 1)
        assert ld_logpdf(theta, beta) == pytest.approx(composed_logpdf(theta, beta), abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(theta_batches(), st.integers(0, 2**32 - 1))
    def test_batch_matches_rows(self, theta, seed):
        beta = np.random.default_rng(seed).uniform(0.1, 50.0, theta.shape[1] + 1)
        batch = ld_logpdf(theta, beta)
        assert batch.shape == (theta.shape[0],)
        rows = np.array([ld_logpdf(row, beta) for row in theta])
        np.testing.assert_allclose(batch, rows, rtol=1e-15, atol=0.0)
        with pytest.raises(ValueError):
            ld_logpdf(theta[None], beta)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadrature_normalization_random_beta_1d(self, seed):
        rng = np.random.default_rng(seed)
        beta = rng.uniform(0.5, 5.0, 2)
        nodes, weights = gauss_legendre(-80.0, 80.0, 900)
        total = float(np.sum(weights * np.exp(ld_logpdf(nodes[:, None], beta))))
        assert total == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_quadrature_normalization_random_beta_2d(self, seed):
        rng = np.random.default_rng(seed)
        beta = rng.uniform(0.5, 5.0, 3)
        nodes, weights = gauss_legendre(-60.0, 60.0, 260)
        xg, yg = np.meshgrid(nodes, nodes, indexing="ij")
        wg = np.outer(weights, weights)
        flat = np.stack([xg.ravel(), yg.ravel()], axis=1)
        dens = np.exp(ld_logpdf(flat, beta))
        assert float((wg.ravel() * dens).sum()) == pytest.approx(1.0, abs=1e-4)
