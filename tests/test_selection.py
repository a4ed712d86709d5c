import numpy as np
import pytest

from dygauss import selection
from dygauss.cli import main
from dygauss.posterior import CompoundSymmetryMatrix
from dygauss.selection import (
    ConfusionCounts,
    LassoConvergenceError,
    LassoPath,
    edge_confusion,
    lasso_path,
    mahalanobis_delta,
    pcr_select,
)
from dygauss.specfun import chi2_quantile


def kkt_residuals(path, theta_hat, sigma_inv):
    worst_active, worst_inactive = 0.0, 0.0
    for lam, coef in zip(path.lambdas, path.coefs):
        grad = 2.0 * sigma_inv @ (coef - theta_hat)
        for j, c in enumerate(coef):
            if abs(c) > 1e-10:
                worst_active = max(worst_active, abs(grad[j] + lam * np.sign(c)))
            else:
                worst_inactive = max(worst_inactive, abs(grad[j]) - lam)
    return worst_active, worst_inactive


class TestLassoPath:
    def test_zero_at_lambda_max(self):
        path = lasso_path(np.array([1.0, -2.0]), np.eye(2))
        assert np.all(path.coefs[0] == 0.0)
        assert path.supports[0] == ()

    def test_converges_to_estimate_at_small_lambda(self):
        theta = np.array([3.0, -1.0, 0.5])
        path = lasso_path(theta, np.eye(3), n_lambda=80, lambda_min_ratio=1e-4)
        np.testing.assert_allclose(path.coefs[-1], theta, atol=1e-3)

    def test_soft_threshold_closed_form(self):
        rng = np.random.default_rng(1)
        theta = rng.normal(size=5) * 3.0
        path = lasso_path(theta, np.eye(5), n_lambda=60, lambda_min_ratio=1e-4)
        for lam, coef in zip(path.lambdas, path.coefs):
            expected = np.sign(theta) * np.maximum(np.abs(theta) - lam / 2.0, 0.0)
            np.testing.assert_allclose(coef, expected, atol=1e-9)

    @pytest.mark.parametrize("d", [3, 16, 64])
    def test_kkt_certificates_dense(self, d):
        rng = np.random.default_rng(d)
        m = rng.normal(size=(d, d))
        sigma = m @ m.T + 0.3 * np.eye(d)
        theta = rng.normal(size=d) * 2.0
        path = lasso_path(theta, sigma, n_lambda=60)
        active, inactive = kkt_residuals(path, theta, np.linalg.inv(sigma))
        assert active < 1e-6
        assert inactive < 1e-6

    def test_kkt_certificates_compound_symmetry(self):
        rng = np.random.default_rng(17)
        cs = CompoundSymmetryMatrix(rng.uniform(0.3, 3.0, 12), 0.7)
        theta = rng.normal(size=12)
        path = lasso_path(theta, cs)
        active, inactive = kkt_residuals(path, theta, np.linalg.inv(cs.to_dense()))
        assert active < 1e-6 and inactive < 1e-6

    def test_support_grows_from_empty(self):
        rng = np.random.default_rng(2)
        theta = rng.normal(size=8)
        path = lasso_path(theta, np.eye(8))
        assert len(path.supports[0]) == 0
        assert len(path.supports[-1]) >= len(path.supports[0])

    def test_kkt_residual_matches_loop(self):
        rng = np.random.default_rng(9)
        a, resid, lam = rng.normal(size=(12, 12)), rng.normal(size=12), 0.7
        theta = np.where(rng.random(12) < 0.5, 0.0, rng.normal(size=12))
        grad = -2.0 * (a.T @ resid)
        expected = max(
            abs(g + lam * np.sign(t)) if abs(t) > 1e-10 else max(0.0, abs(g) - lam)
            for g, t in zip(grad, theta)
        )
        assert selection._kkt_residual(a, resid, theta, lam) == expected

    def test_zero_estimate_short_circuit(self):
        path = lasso_path(np.zeros(4), np.eye(4))
        assert path.n_points == 1
        assert path.supports == ((),)

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            lasso_path(np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_path_validation(self):
        with pytest.raises(ValueError):
            LassoPath(np.array([1.0, 2.0]), np.zeros((2, 3)), ((), ()))  # increasing
        with pytest.raises(ValueError):
            LassoPath(np.array([2.0, 1.0]), np.ones((2, 3)), ((0, 1, 2), (0, 1, 2)))


class TestSweepLimit:
    """A path point that coordinate descent does not certify within MAX_SWEEPS
    raises instead of being returned."""

    def test_lasso_path_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        sigma = (q * np.logspace(-4, 0, 8)) @ q.T  # condition number 1e4
        theta = rng.normal(size=8)
        assert lasso_path(theta, sigma, n_lambda=10).n_points == 10
        monkeypatch.setattr(selection, "MAX_SWEEPS", 1)
        with pytest.raises(LassoConvergenceError, match="not certified"):
            lasso_path(theta, sigma, n_lambda=10)

    def test_select_exits_3(self, tmp_path, monkeypatch, capsys):
        table = tmp_path / "t.json"
        table.write_text('{"levels": [2, 2, 2], "counts": [90, 3, 4, 1, 2, 5, 1, 40]}')
        monkeypatch.setattr(selection, "MAX_SWEEPS", 1)
        assert main(["select", "--table", str(table), "--prior", "1", "--alpha", "0.1"]) == 3
        assert "not certified" in capsys.readouterr().err


class TestMahalanobisDelta:
    def test_zero_at_estimate(self):
        theta = np.array([1.0, 2.0])
        assert mahalanobis_delta(theta, theta, np.eye(2)) == 0.0

    def test_squared_norm_for_identity(self):
        assert mahalanobis_delta(np.zeros(2), np.array([3.0, 4.0]), np.eye(2)) == pytest.approx(25.0)

    def test_cs_matches_dense(self):
        rng = np.random.default_rng(3)
        cs = CompoundSymmetryMatrix(rng.uniform(0.5, 4.0, 64), 1.1)
        t0, th = rng.normal(size=64), rng.normal(size=64)
        dense = mahalanobis_delta(t0, th, cs.to_dense())
        assert mahalanobis_delta(t0, th, cs) == pytest.approx(dense, abs=1e-9)


class TestPcrSelect:
    def test_strong_signal_sparse_support(self):
        theta = np.array([5.0, 0.01, 0.01])
        path = lasso_path(theta, np.eye(3), n_lambda=100, lambda_min_ratio=1e-4)
        result = pcr_select(path, theta, np.eye(3), alpha=0.1)
        assert result.support == (0,)
        assert not result.fallback
        # exhaustive confirmation: no feasible path model is sparser
        delta_max = chi2_quantile(0.9, 2)
        feasible_sizes = [
            len(s)
            for s, c in zip(path.supports, path.coefs)
            if mahalanobis_delta(c, theta, np.eye(3)) <= delta_max
        ]
        assert min(feasible_sizes) == 1

    def test_zero_estimate(self):
        path = lasso_path(np.zeros(3), np.eye(3))
        result = pcr_select(path, np.zeros(3), np.eye(3), alpha=0.1)
        assert result.support == ()
        assert result.delta == 0.0
        assert not result.fallback

    def test_threshold_collapse_falls_back(self):
        theta = np.array([4.0, 3.0, 2.0])
        path = lasso_path(theta, np.eye(3), n_lambda=25, lambda_min_ratio=1e-2)
        result = pcr_select(path, theta, np.eye(3), alpha=1.0 - 1e-12)
        assert result.fallback
        assert result.delta == 0.0
        np.testing.assert_allclose(result.chosen, theta)

    def test_output_always_feasible_or_flagged(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = int(rng.integers(2, 10))
            m = rng.normal(size=(d, d))
            sigma = m @ m.T + 0.2 * np.eye(d)
            theta = rng.normal(size=d) * rng.uniform(0.5, 3.0)
            path = lasso_path(theta, sigma, n_lambda=40)
            result = pcr_select(path, theta, sigma, alpha=0.1)
            if not result.fallback:
                assert result.delta <= result.delta_max + 1e-12
                feasible = [
                    len(s)
                    for s, c in zip(path.supports, path.coefs)
                    if mahalanobis_delta(c, theta, sigma) <= result.delta_max
                ]
                assert len(result.support) == min(feasible)

    def test_scale_invariance_of_support(self):
        rng = np.random.default_rng(5)
        d = 6
        m = rng.normal(size=(d, d))
        sigma = m @ m.T + 0.4 * np.eye(d)
        theta = rng.normal(size=d) * 2.0
        base = pcr_select(lasso_path(theta, sigma), theta, sigma, alpha=0.2)
        for c in (0.03, 7.0, 250.0):
            scaled = pcr_select(
                lasso_path(c * theta, c * c * sigma), c * theta, c * c * sigma, alpha=0.2
            )
            assert scaled.support == base.support

    def test_alpha_validation(self):
        path = lasso_path(np.ones(2), np.eye(2))
        with pytest.raises(ValueError):
            pcr_select(path, np.ones(2), np.eye(2), alpha=0.0)

    def test_single_coefficient_rejected(self):
        path = lasso_path(np.ones(1), np.eye(1))
        with pytest.raises(ValueError):
            pcr_select(path, np.ones(1), np.eye(1), alpha=0.1)


class TestEdgeConfusion:
    def test_identical(self):
        universe = [{(0, 1), (0, 2), (1, 2)}]
        got = edge_confusion([{(0, 1)}], [{(0, 1)}], universe)
        assert got == ConfusionCounts(tp=1, fp=0, tn=2, fn=0)
        assert got.f1 == 1.0 and got.fdr == 0.0

    def test_total_miss(self):
        universe = [{(0, 1), (0, 2)}]
        got = edge_confusion([set()], [{(0, 1), (0, 2)}], universe)
        assert got.tp == 0 and got.fn == 2 and got.f1 == 0.0

    def test_aggregates_across_items(self):
        universes = [{(0, 1), (0, 2), (1, 2)}, {(0, 1)}]
        selected = [{(0, 1), (1, 2)}, set()]
        reference = [{(0, 1)}, {(0, 1)}]
        got = edge_confusion(selected, reference, universes)
        assert (got.tp, got.fp, got.tn, got.fn) == (1, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            edge_confusion([set()], [set(), set()], [set(), set()])
