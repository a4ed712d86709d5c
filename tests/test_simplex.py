import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dygauss.simplex import (
    SimplexPoint,
    dirichlet_logpdf,
    jacobian_logdet_inv,
    ld_logpdf,
    log_ratio,
    logistic,
)

from oracles import gauss_legendre


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


class TestLogistic:
    def test_symmetric(self):
        p = logistic(np.zeros(3))
        np.testing.assert_allclose(p.probs, [0.25, 0.25, 0.25])
        assert p.p0 == pytest.approx(0.25)

    def test_scalar(self):
        p = logistic(np.array([math.log(2.0)]))
        assert p.probs[0] == pytest.approx(2.0 / 3.0)

    def test_direct_evaluation(self):
        t = np.array([1.0, -1.0])
        denom = 1.0 + math.e + math.exp(-1.0)
        p = logistic(t)
        np.testing.assert_allclose(p.probs, [math.e / denom, math.exp(-1.0) / denom], rtol=1e-14)

    def test_large_entries_no_overflow(self):
        p = logistic(np.array([600.0, 590.0]))
        assert np.all(np.isfinite(p.probs)) and p.p0 > 0.0
        back = log_ratio(p)
        np.testing.assert_allclose(back, [600.0, 590.0], rtol=1e-12)

    def test_unrepresentable_extremes_rejected(self):
        # coordinates below the double-precision floor cannot be interior
        with pytest.raises(ValueError):
            logistic(np.array([-800.0, 0.0]))

    def test_domain(self):
        with pytest.raises(ValueError):
            logistic(np.array([np.nan]))


class TestLogRatio:
    def test_scalar(self):
        assert log_ratio(np.array([0.5]))[0] == pytest.approx(0.0)

    def test_uniform(self):
        np.testing.assert_allclose(log_ratio(np.full(3, 0.25)), 0.0, atol=1e-14)

    def test_known(self):
        t = log_ratio(np.array([0.5, 0.25]))
        np.testing.assert_allclose(t, [math.log(2.0), 0.0], atol=1e-14)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            SimplexPoint(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            SimplexPoint(np.array([0.5, 0.5]))

    @settings(max_examples=250, deadline=None)
    @given(theta_vectors())
    def test_roundtrip(self, t):
        theta = np.asarray(t)
        back = log_ratio(logistic(theta))
        np.testing.assert_allclose(back, theta, atol=1e-11, rtol=1e-11)


class TestJacobian:
    def test_scalar_zero(self):
        assert jacobian_logdet_inv(np.zeros(1)) == pytest.approx(math.log(0.25))

    def test_uniform(self):
        assert jacobian_logdet_inv(np.zeros(3)) == pytest.approx(4.0 * math.log(0.25))

    def test_matches_probability_sum(self):
        theta = np.array([1.0, -1.0])
        p = logistic(theta)
        expected = math.log(p.p0) + float(np.log(p.probs).sum())
        assert jacobian_logdet_inv(theta) == pytest.approx(expected, abs=1e-12)


class TestDirichletLogpdf:
    def test_uniform_on_unit_interval(self):
        assert dirichlet_logpdf(np.array([0.3]), np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_symmetric_beta(self):
        value = dirichlet_logpdf(np.array([0.5]), np.array([2.0, 2.0]))
        assert value == pytest.approx(math.log(1.5), abs=1e-12)

    def test_hand_evaluated(self):
        value = dirichlet_logpdf(np.array([0.2, 0.3]), np.array([2.0, 1.0, 1.0]))
        assert value == pytest.approx(math.log(3.0), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            dirichlet_logpdf(np.array([0.2, 0.3]), np.array([2.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            dirichlet_logpdf(np.array([0.2]), np.array([1.0, 1.0, 1.0]))


class TestLdLogpdf:
    def test_scalar_uniform(self):
        assert ld_logpdf(np.zeros(1), np.array([1.0, 1.0])) == pytest.approx(math.log(0.25))

    def test_quadrature_normalization_1d(self):
        nodes, weights = gauss_legendre(-40.0, 40.0, 500)
        total = float(np.sum(weights * np.exp(ld_logpdf(nodes[:, None], np.array([1.0, 1.0])))))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_change_of_variable_composition(self):
        beta = np.array([2.0, 1.0, 1.0])
        theta = log_ratio(np.array([0.2, 0.3]))
        direct = ld_logpdf(theta, beta)
        composed = dirichlet_logpdf(logistic(theta), beta) + jacobian_logdet_inv(theta)
        assert direct == pytest.approx(composed, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(theta_vectors(max_d=8, lo=-8.0, hi=8.0), st.floats(0.5, 5.0), st.floats(0.5, 5.0))
    def test_change_of_variable_random(self, t, b_low, b_high):
        theta = np.asarray(t)
        rng = np.random.default_rng(abs(hash((tuple(t), b_low, b_high))) % 2**32)
        beta = rng.uniform(min(b_low, b_high), max(b_low, b_high) + 0.1, theta.size + 1)
        direct = ld_logpdf(theta, beta)
        composed = dirichlet_logpdf(logistic(theta), beta) + jacobian_logdet_inv(theta)
        assert direct == pytest.approx(composed, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(theta_batches(), st.integers(0, 2**32 - 1))
    def test_batch_matches_rows(self, theta, seed):
        beta = np.random.default_rng(seed).uniform(0.1, 50.0, theta.shape[1] + 1)
        batch = ld_logpdf(theta, beta)
        assert batch.shape == (theta.shape[0],)
        rows = np.array([ld_logpdf(row, beta) for row in theta])
        np.testing.assert_allclose(batch, rows, rtol=1e-15, atol=0.0)
        for single_point_only in (logistic, jacobian_logdet_inv):
            with pytest.raises(ValueError):
                single_point_only(theta)
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
