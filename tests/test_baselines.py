import math

import numpy as np
import pytest

from dygauss import baselines
from dygauss.baselines import (
    NewtonError,
    _softmax,
    derive_seed,
    laplace_approx,
    map_estimate,
    mc_approx,
    stream_rng,
)
from dygauss.posterior import DirichletParams, exact_min_kl, ld_moments
from dygauss.specfun import trigamma

from oracles import kl_to_gaussian


class TestStreams:
    def test_same_stream_reproduces(self):
        a = stream_rng(7, 3).normal(size=5)
        b = stream_rng(7, 3).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = stream_rng(7, 0).normal(size=5)
        b = stream_rng(7, 1).normal(size=5)
        assert not np.array_equal(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(11, 2, 5) == derive_seed(11, 2, 5)
        assert derive_seed(11, 2, 5) != derive_seed(11, 2, 6)


class TestMcApprox:
    def test_symmetric_mean(self):
        beta = DirichletParams(np.array([1.0, 1.0]))
        draws = mc_approx(beta, 1_000_000, seed=5)
        assert abs(draws.mean()) < 0.01

    def test_mean_matches_moments(self):
        beta = DirichletParams(np.array([2.0, 1.0]))
        draws = mc_approx(beta, 1_000_000, seed=6)
        assert abs(draws.mean() - (-1.0)) < 0.01

    def test_tiny_shapes_stay_finite(self):
        beta = DirichletParams(np.full(128, 1.0 / 127.0))
        draws = mc_approx(beta, 2000, seed=7)
        assert draws.shape == (2000, 127)
        assert np.all(np.isfinite(draws))

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            mc_approx(DirichletParams(np.ones(3)), 0, seed=1)

    def test_rows_never_finite_raise(self, monkeypatch):
        """A row that stays non-finite through every redraw round is an
        error, not a returned draw."""
        def one_nan_row(rng, beta, n):
            out = np.zeros((n, beta.d))
            out[0] = np.nan
            return out

        monkeypatch.setattr(baselines, "_theta_draws", one_nan_row)
        with pytest.raises(ValueError, match="finite"):
            mc_approx(DirichletParams(np.ones(4)), 50, seed=2)

    def test_non_finite_rows_redrawn_from_the_stream(self, monkeypatch):
        """Rows that are not finite are redrawn; the finite rows stay."""
        real = baselines._theta_draws
        calls = []

        def first_row_nan_once(rng, beta, n):
            out = real(rng, beta, n)
            if not calls:
                out[0] = np.nan
            calls.append(n)
            return out

        monkeypatch.setattr(baselines, "_theta_draws", first_row_nan_once)
        draws = mc_approx(DirichletParams(np.ones(4)), 50, seed=2)
        assert calls == [50, 1]
        assert np.all(np.isfinite(draws))

    @pytest.mark.parametrize("budget", [baselines._BLOCK_BUDGET, 1000])
    def test_in_place_assembly_equals_the_out_of_place_formula(self, budget, monkeypatch):
        """log G + log(1 - U) / shape, assembled in the gamma buffer, and the
        log ratios subtracted into the output, equal the out-of-place formula
        on the same generator bit for bit, in one block and in many."""
        monkeypatch.setattr(baselines, "_BLOCK_BUDGET", budget)
        beta = DirichletParams(np.random.default_rng(4).uniform(0.05, 40.0, 64))
        mc, seed = 300, 17
        rng = stream_rng(seed)
        block = max(1, budget // beta.beta.size)
        parts = []
        for start in range(0, mc, block):
            n = min(block, mc - start)
            boosted = rng.gamma(beta.beta + 1.0, size=(n, beta.beta.size))
            u = 1.0 - rng.random(size=(n, beta.beta.size))
            log_g = np.log(boosted) + np.log(u) / beta.beta
            parts.append(log_g[:, 1:] - log_g[:, :1])
        expected = np.concatenate(parts)
        draws = mc_approx(beta, mc, seed)
        assert draws.flags.c_contiguous
        assert draws.tobytes() == expected.tobytes()


class TestMapEstimate:
    def test_symmetric(self):
        theta = map_estimate(DirichletParams(np.array([1.0, 1.0])))
        assert theta[0] == pytest.approx(0.0, abs=1e-10)

    def test_two_to_one(self):
        theta = map_estimate(DirichletParams(np.array([2.0, 1.0])))
        assert theta[0] == pytest.approx(math.log(0.5), abs=1e-10)

    def test_closed_form_d31(self):
        rng = np.random.default_rng(9)
        b = rng.uniform(0.5, 30.0, 32)
        theta = map_estimate(DirichletParams(b))
        np.testing.assert_allclose(theta, np.log(b[1:] / b[0]), atol=1e-8)

    def test_gradient_norm_at_exit(self, monkeypatch):
        monkeypatch.setattr(baselines, "_NEWTON_TOL", 1e-12)
        beta = DirichletParams(np.array([4.0, 0.6, 12.0, 1.0]))
        theta = map_estimate(beta)
        probs, _ = _softmax(theta)
        grad = beta.beta[1:] - beta.total * probs
        assert np.all(np.abs(grad) < 1e-12 * (1.0 + beta.beta[1:]))

    def test_nonconvergence_error_carries_state(self, monkeypatch):
        monkeypatch.setattr(baselines, "_NEWTON_TOL", 1e-10)
        monkeypatch.setattr(baselines, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(NewtonError) as err:
            map_estimate(DirichletParams(np.array([5.0, 1.0, 2.0])))
        assert err.value.last_iterate.shape == (2,)
        assert err.value.grad_norm > 0

    def test_robust_convergence_skewed_beta(self, monkeypatch):
        monkeypatch.setattr(baselines, "_NEWTON_TOL", 1e-10)
        monkeypatch.setattr(baselines, "_NEWTON_MAX_ITER", 50)
        rng = np.random.default_rng(10)
        for d in (16, 64, 256):
            b = np.exp(rng.uniform(0.0, math.log(1e6), d + 1))
            b = b / b.min()  # max/min ratio <= 1e6, min exactly 1
            theta = map_estimate(DirichletParams(b))
            np.testing.assert_allclose(theta, np.log(b[1:] / b[0]), atol=1e-7)

    def test_prior_one_over_d_with_one_full_cell(self):
        """An exhausted line search must not take a step that lowers the
        posterior (here one of ~1e23, which left the simplex interior)."""
        b = np.r_[np.full(63, 1.0 / 63.0), 250.0 + 1.0 / 63.0]
        theta = map_estimate(DirichletParams(b))
        np.testing.assert_allclose(theta, np.log(b[1:] / b[0]), atol=1e-7)


class TestLaplaceApprox:
    def test_beta_one_one(self):
        lap = laplace_approx(DirichletParams(np.array([1.0, 1.0])))
        assert lap.mean[0] == pytest.approx(0.0, abs=1e-9)
        assert lap.cov_dense()[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_narrower_than_optimal(self):
        lap = laplace_approx(DirichletParams(np.array([2.0, 2.0])))
        assert lap.cov_dense()[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert 2 * trigamma(2.0) > 1.0  # optimal variance strictly larger

    def test_curvature_inverse_matches_dense(self):
        rng = np.random.default_rng(11)
        for d in (3, 16, 64):
            beta = DirichletParams(rng.uniform(0.5, 20.0, d + 1))
            lap = laplace_approx(beta)
            p, _ = _softmax(lap.mean)
            hessian = beta.total * (np.diag(p) - np.outer(p, p))
            np.testing.assert_allclose(
                lap.cov_dense(), np.linalg.inv(hessian), atol=1e-10, rtol=1e-8
            )

    def test_variance_dominates_laplace_everywhere(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = int(rng.integers(1, 12))
            beta = DirichletParams(rng.uniform(0.2, 40.0, d + 1))
            lap = laplace_approx(beta)
            _, cov = ld_moments(beta)
            b = beta.beta
            assert np.all([trigamma(bj) > 1.0 / bj for bj in b])
            assert np.all(np.diag(cov.to_dense()) > np.diag(lap.cov_dense()))

    def test_kl_strictly_above_optimum(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = int(rng.integers(1, 10))
            beta = DirichletParams(rng.uniform(0.6, 30.0, d + 1))
            lap = laplace_approx(beta)
            gap = kl_to_gaussian(beta, lap.mean, lap.cov) - exact_min_kl(beta)
            assert gap > 0
