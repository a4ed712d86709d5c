import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dygauss.baselines import mc_approx
from dygauss.parametrization import DesignMatrix, TableSchema, corner_design, identity_design
from dygauss.posterior import (
    CompoundSymmetryMatrix,
    DirichletParams,
    GaussianApprox,
    exact_min_kl,
    kl_bound,
    ld_moments,
    optimal_gaussian,
    transform_gaussian,
)
from dygauss.specfun import digamma, log_gamma, trigamma
from dygauss.tableio import write_json

from oracles import gauss_legendre, gaussian_from_json, kl_to_gaussian, ld_logpdf, trigamma_bracket


def random_beta(rng, d=None, lo=0.6, hi=50.0):
    if d is None:
        d = int(rng.integers(1, 17))
    return DirichletParams(rng.uniform(lo, hi, d + 1))


def quadrature_kl_1d(beta, mu, var):
    """KL of a 1-d log-ratio law from N(mu, var) by Gauss-Legendre quadrature."""
    nodes, weights = gauss_legendre(-70.0, 70.0, 1500)
    logp = ld_logpdf(nodes[:, None], beta.beta)
    logphi = -0.5 * np.log(2 * math.pi * var) - 0.5 * (nodes - mu) ** 2 / var
    p = np.exp(logp)
    return float(np.sum(weights * p * (logp - logphi)))


class TestLdMoments:
    def test_symmetric_mean_zero(self):
        mean, _ = ld_moments(DirichletParams(np.array([1.0, 1.0])))
        assert mean[0] == pytest.approx(0.0, abs=1e-14)

    def test_mean_via_recurrence(self):
        mean, _ = ld_moments(DirichletParams(np.array([2.0, 1.0])))
        assert mean[0] == pytest.approx(-1.0, abs=1e-12)

    def test_cov_scalar_against_series_oracle(self):
        _, cov = ld_moments(DirichletParams(np.array([2.0, 2.0])))
        lo, hi = trigamma_bracket(2.0, m=200_000)
        assert 2 * lo <= cov.to_dense()[0, 0] <= 2 * hi
        assert cov.to_dense()[0, 0] == pytest.approx(1.2898681, abs=1e-6)

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(21)
        beta = DirichletParams(rng.uniform(0.8, 6.0, 5))
        mean, cov = ld_moments(beta)
        mc = 400_000
        draws = mc_approx(beta, mc, seed=99)
        se_mean = draws.std(axis=0) / math.sqrt(mc)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se_mean)
        sample_cov = np.cov(draws.T)
        # covariance entries fluctuate at roughly var/sqrt(mc) scale
        scale = np.sqrt(np.outer(np.diag(sample_cov), np.diag(sample_cov)))
        assert np.all(np.abs(sample_cov - cov.to_dense()) < 5 * scale / math.sqrt(mc) + 1e-12)


class TestOptimalGaussian:
    def test_beta_one_one(self):
        g = optimal_gaussian(DirichletParams(np.array([1.0, 1.0])))
        assert g.mean[0] == pytest.approx(0.0, abs=1e-14)
        assert g.cov_dense()[0, 0] == pytest.approx(math.pi**2 / 3.0, abs=1e-9)

    def test_symmetric_three(self):
        g = optimal_gaussian(DirichletParams(np.ones(3)))
        np.testing.assert_allclose(g.mean, 0.0, atol=1e-14)
        np.testing.assert_allclose(g.cov_dense(), trigamma(1.0) * (np.eye(2) + 1.0), rtol=1e-12)

    def test_large_uniform_beta_matches_bound(self):
        g = optimal_gaussian(DirichletParams(np.full(10, 100.0)))
        off_diag = g.cov_dense()[0, 1]
        diag_excess = g.cov_dense()[0, 0] - off_diag
        assert 0.01 < off_diag < 0.0101  # trigamma(100) between 1/z and 1/z + 1/z^2
        assert 0.01 < diag_excess < 0.0101


class TestTransformGaussian:
    def test_identity_matrix(self):
        g = optimal_gaussian(DirichletParams(np.array([2.0, 3.0, 1.5])))
        out = transform_gaussian(g, identity_design(TableSchema((3,))))
        np.testing.assert_array_equal(out.mean, g.mean)
        np.testing.assert_array_equal(out.cov_dense(), g.cov_dense())
        assert out.parametrization == "identity"

    @pytest.mark.parametrize("levels", [(2, 2, 2), (3, 2, 4)], ids=["2x2x2", "3x2x4"])
    def test_dense_expansion_matches_solve(self, levels):
        schema = TableSchema(levels)
        design = corner_design(schema)
        g = optimal_gaussian(DirichletParams(np.random.default_rng(3).uniform(0.5, 9.0, schema.n_cells)))
        star = transform_gaussian(g, design)
        x = design.entries.astype(float)
        expected = np.linalg.solve(x, np.linalg.solve(x, g.cov_dense()).T)
        np.testing.assert_allclose(star.mean, np.linalg.solve(x, g.mean), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(star.cov_dense(), expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(star.cov_dense(), star.cov_dense().T)
        v = np.random.default_rng(4).normal(size=(schema.d, 3))
        np.testing.assert_allclose(star.cov.solve(v), np.linalg.solve(expected, v), rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        levels=st.lists(st.integers(2, 4), min_size=1, max_size=4).filter(
            lambda lv: int(np.prod(lv)) <= 128
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_full_diagonal_equals_dense_diagonal(self, levels, seed):
        schema = TableSchema(levels)
        beta = np.random.default_rng(seed).uniform(0.05, 50.0, schema.n_cells)
        star = transform_gaussian(optimal_gaussian(DirichletParams(beta)), corner_design(schema))
        dense = np.diag(star.cov_dense())
        np.testing.assert_allclose(star.variances(), dense, rtol=1e-15, atol=0.0)

    def test_monte_carlo_moments_under_transform(self):
        rng = np.random.default_rng(4)
        design = corner_design(TableSchema((2, 2, 2)))
        g = optimal_gaussian(DirichletParams(rng.uniform(1.0, 10.0, 8)))
        star = transform_gaussian(g, design)
        n = 200_000
        samples = rng.multivariate_normal(g.mean, g.cov_dense(), size=n)
        star_samples = np.linalg.solve(design.entries.astype(float), samples.T).T
        se = star_samples.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(star_samples.mean(axis=0) - star.mean) < 4 * se)
        sample_cov = np.cov(star_samples.T)
        diag = np.diag(sample_cov)
        tol = 5 * np.sqrt(np.outer(diag, diag)) / math.sqrt(n)
        assert np.all(np.abs(sample_cov - star.cov_dense()) < tol + 1e-12)

    def test_dimension_mismatch(self):
        g = optimal_gaussian(DirichletParams(np.ones(3)))
        with pytest.raises(ValueError):
            transform_gaussian(g, DesignMatrix("identity", TableSchema((2, 3))))


class TestCompoundSymmetryOps:
    def test_logdet_small(self):
        m = CompoundSymmetryMatrix(np.ones(2), 1.0)
        assert m.logdet() == pytest.approx(math.log(3.0), abs=1e-14)

    def test_mahalanobis_zero(self):
        m = CompoundSymmetryMatrix(np.array([2.0, 0.5, 1.0]), 0.2)
        v = np.zeros(3)
        assert v @ m.solve(v) == 0.0

    @pytest.mark.parametrize("d", [2, 16, 64, 256])
    def test_against_dense_oracle(self, d):
        rng = np.random.default_rng(d)
        m = CompoundSymmetryMatrix(rng.uniform(0.2, 5.0, d), float(rng.uniform(0.05, 2.0)))
        dense = m.to_dense()
        v = rng.normal(size=d)
        np.testing.assert_allclose(m.solve(v), np.linalg.solve(dense, v), atol=1e-10)
        sign, logdet = np.linalg.slogdet(dense)
        assert sign == 1.0
        assert m.logdet() == pytest.approx(logdet, abs=1e-10)
        assert v @ m.solve(v) == pytest.approx(float(v @ np.linalg.solve(dense, v)), abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompoundSymmetryMatrix(np.array([1.0, -1.0]), 0.5)
        with pytest.raises(ValueError):
            CompoundSymmetryMatrix(np.array([1.0]), 0.0)


class TestValueTypesCopyBeforeFreezing:
    """Each value type stores a read-only copy; the caller's array stays writeable."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (DirichletParams, "beta"),
            (lambda v: CompoundSymmetryMatrix(v, 0.5), "diag"),
            (lambda v: GaussianApprox(v, CompoundSymmetryMatrix(np.ones(3), 0.5)), "mean"),
        ],
        ids=["DirichletParams", "CompoundSymmetryMatrix", "GaussianApprox"],
    )
    def test_caller_array_stays_writeable(self, build, field):
        caller = np.ones(3)
        stored = getattr(build(caller), field)
        assert caller.flags.writeable
        assert not stored.flags.writeable
        np.testing.assert_array_equal(stored, caller)


class TestSpecialFunctionCalls:
    """ld_moments and exact_min_kl evaluate the special functions on the whole
    concentration vector: the call count does not grow with d."""

    @staticmethod
    def count_calls(monkeypatch):
        import dygauss.posterior as posterior

        calls = []
        targets = ((posterior, "digamma"), (posterior, "trigamma"), (posterior, "log_gamma"))
        for module, name in targets:
            fn = getattr(module, name)

            def counted(*args, fn=fn, name=name):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("fn, most", [(ld_moments, 2), (exact_min_kl, 5)])
    def test_constant_in_d(self, monkeypatch, fn, most):
        calls = self.count_calls(monkeypatch)
        rng = np.random.default_rng(41)
        counts = []
        for d in (15, 4095):
            calls.clear()
            fn(DirichletParams(rng.uniform(0.01, 1e6, d + 1)))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= most


class TestExactMinKl:
    def test_matches_per_element_sum(self):
        """Against the sum of scalar calls in sequence: only the summation order
        differs, so the two agree within the recursive-summation bound."""
        b = np.random.default_rng(43).uniform(0.01, 1e6, 4096)
        beta = DirichletParams(b)
        total = float(b.sum())
        log_norm = log_gamma(total) - sum(log_gamma(bj) for bj in b)
        cross = sum(bj * (digamma(bj) - digamma(total)) for bj in b)
        logdet = ld_moments(beta)[1].logdet()
        expected = log_norm + cross + 0.5 * beta.d * (1.0 + math.log(2.0 * math.pi)) + 0.5 * logdet
        scale = abs(log_gamma(total)) + sum(
            abs(log_gamma(bj)) + bj * abs(digamma(bj) - digamma(total)) for bj in b
        )
        assert abs(exact_min_kl(beta) - expected) <= b.size * np.finfo(float).eps * scale

    def test_consistent_with_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            beta = random_beta(rng)
            mean, cov = ld_moments(beta)
            assert kl_to_gaussian(beta, mean, cov) == pytest.approx(exact_min_kl(beta), abs=1e-10)

    def test_quadrature_1d(self):
        beta = DirichletParams(np.array([1.0, 1.0]))
        mean, cov = ld_moments(beta)
        quad = quadrature_kl_1d(beta, mean[0], cov.to_dense()[0, 0])
        assert exact_min_kl(beta) == pytest.approx(quad, abs=1e-4)

    def test_upper_bound_large_uniform(self):
        beta = DirichletParams(np.full(10, 100.0))
        assert 0.0 <= exact_min_kl(beta) < 0.5 * 10 / 100 + 1 / 6000


class TestKlToGaussian:
    def test_minimum_at_moments(self):
        beta = DirichletParams(np.array([1.0, 1.0]))
        mean, cov = ld_moments(beta)
        assert kl_to_gaussian(beta, mean, cov) == pytest.approx(exact_min_kl(beta), abs=1e-12)

    def test_mean_shift_strictly_larger(self):
        beta = DirichletParams(np.array([1.0, 1.0]))
        mean, cov = ld_moments(beta)
        base = exact_min_kl(beta)
        for delta in (0.3, -1.0, 2.5):
            assert kl_to_gaussian(beta, mean + delta, cov) > base

    def test_quadrature_standard_normal_reference(self):
        beta = DirichletParams(np.array([1.0, 1.0]))
        closed = kl_to_gaussian(beta, np.zeros(1), np.eye(1))
        assert closed == pytest.approx(quadrature_kl_1d(beta, 0.0, 1.0), abs=1e-4)

    def test_non_pd_rejected(self):
        beta = DirichletParams(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            kl_to_gaussian(beta, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_optimality_random_suite(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            beta = random_beta(rng, d=int(rng.integers(1, 9)))
            mean, cov = ld_moments(beta)
            base = exact_min_kl(beta)
            dense = cov.to_dense()
            d = beta.d
            for _ in range(5):
                mu = mean + rng.normal(scale=0.4, size=d)
                scale = float(rng.uniform(0.5, 2.0))
                mix = rng.normal(size=(d, d))
                sigma = scale * dense + 0.1 * (mix @ mix.T) + 1e-6 * np.eye(d)
                assert kl_to_gaussian(beta, mu, sigma) >= base - 1e-10


class TestKlBound:
    def test_values(self):
        v, ok = kl_bound(DirichletParams(np.array([1.0, 1.0])))
        assert v == pytest.approx(1.0 + 1.0 / 12.0) and ok
        v, ok = kl_bound(DirichletParams(np.array([10.0, 10.0])))
        assert v == pytest.approx(0.1 + 1.0 / 120.0) and ok

    def test_hypothesis_flag(self):
        v, ok = kl_bound(DirichletParams(np.array([0.4, 2.0])))
        assert not ok and v == pytest.approx(0.5 * (1 / 0.4 + 0.5) + 1 / (6 * 2.4))

    def test_bounds_exact_kl(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            beta = random_beta(rng)
            value, ok = kl_bound(beta)
            assert ok
            assert exact_min_kl(beta) < value + 1e-10


class TestKlInvariance:
    def test_corner_transform_preserves_min_kl(self):
        """Monte Carlo estimate of the KL in transformed coordinates matches
        the closed-form minimum from the identity parametrization."""
        rng = np.random.default_rng(34)
        beta = DirichletParams(rng.uniform(1.0, 8.0, 4))
        design = corner_design(TableSchema((2, 2)))
        x = design.entries.astype(float)
        star = transform_gaussian(optimal_gaussian(beta), design)

        mc = 400_000
        theta = mc_approx(beta, mc, seed=55)
        theta_star = np.linalg.solve(x, theta.T).T
        # the corner matrix is unit triangular: |det X| = 1, so the density
        # of theta* is the identity density evaluated at X theta*
        log_p = ld_logpdf(theta, beta.beta)
        chol = np.linalg.cholesky(star.cov_dense())
        resid = np.linalg.solve(chol, (theta_star - star.mean).T)
        log_q = (
            -0.5 * beta.d * math.log(2 * math.pi)
            - float(np.log(np.diag(chol)).sum())
            - 0.5 * (resid * resid).sum(axis=0)
        )
        ratios = log_p - log_q
        estimate = float(ratios.mean())
        se = float(ratios.std() / math.sqrt(mc))
        assert estimate == pytest.approx(exact_min_kl(beta), abs=4 * se + 1e-6)


class TestGaussianApproxSerialization:
    def test_cs_roundtrip(self):
        g = optimal_gaussian(DirichletParams(np.array([2.0, 1.0, 4.0])))
        mean, cov, parametrization = gaussian_from_json(g.to_json_dict())
        np.testing.assert_allclose(mean, g.mean)
        np.testing.assert_allclose(cov, g.cov_dense())
        assert parametrization == g.parametrization

    def test_corner_cs_roundtrip(self):
        design = corner_design(TableSchema((3, 2)))
        g = transform_gaussian(
            optimal_gaussian(DirichletParams(np.array([2.0, 1.0, 4.0, 3.0, 0.5, 7.0]))), design
        )
        text = io.StringIO()
        write_json(g.to_json_dict(), text)
        payload = json.loads(text.getvalue())
        assert payload["cov"]["type"] == "corner_cs"
        assert payload["cov"]["levels"] == [3, 2]
        mean, cov, parametrization = gaussian_from_json(payload)
        np.testing.assert_array_equal(mean, g.mean)
        np.testing.assert_allclose(cov, g.cov_dense(), rtol=1e-13, atol=1e-13)
        assert parametrization == "corner"

    def test_validation(self):
        with pytest.raises(TypeError):
            GaussianApprox(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError):
            GaussianApprox(np.zeros(3), CompoundSymmetryMatrix(np.ones(2), 1.0))
