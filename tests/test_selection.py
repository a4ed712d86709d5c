import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import lasso_path_cd

from dygauss import selection
from dygauss.cli import main
from dygauss.parametrization import TableSchema, corner_design
from dygauss.posterior import CompoundSymmetryMatrix, DirichletParams, optimal_gaussian, transform_gaussian
from dygauss.selection import (
    ConfusionCounts,
    LassoConvergenceError,
    LassoPath,
    edge_confusion,
    lasso_path,
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


def corner_gaussian(levels, counts, prior=1.0):
    beta = DirichletParams(prior + np.asarray(counts, dtype=float))
    return transform_gaussian(optimal_gaussian(beta), corner_design(TableSchema(levels)))


def assert_matches_coordinate_descent(path, theta, cov):
    reference = lasso_path_cd(theta, cov, path.lambdas)
    np.testing.assert_allclose(path.coefs, reference, rtol=0.0, atol=1e-9)
    assert path.supports == tuple(selection._support_of(c) for c in reference)


@st.composite
def corner_tables(draw):
    """Mixed-level tables of at most 12 cells whose counts repeat: every cell
    takes one of at most three values, so correlations tie exactly."""
    levels = draw(
        st.lists(st.integers(2, 4), min_size=2, max_size=3).filter(lambda v: math.prod(v) <= 12)
    )
    pool = draw(st.lists(st.integers(0, 200), min_size=1, max_size=3))
    counts = draw(st.lists(st.sampled_from(pool), min_size=math.prod(levels), max_size=math.prod(levels)))
    return levels, counts, draw(st.sampled_from([0.5, 1.0]))


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
        assert_matches_coordinate_descent(path, theta, sigma)

    def test_kkt_certificates_compound_symmetry(self):
        rng = np.random.default_rng(17)
        cs = CompoundSymmetryMatrix(rng.uniform(0.3, 3.0, 12), 0.7)
        theta = rng.normal(size=12)
        path = lasso_path(theta, cs)
        active, inactive = kkt_residuals(path, theta, np.linalg.inv(cs.to_dense()))
        assert active < 1e-6 and inactive < 1e-6
        assert_matches_coordinate_descent(path, theta, cs.to_dense())

    @settings(max_examples=60, deadline=None)
    @given(corner_tables())
    # an active coefficient at exactly 0 whose step turns against its sign must leave
    @example(((2, 2, 2), [154, 119, 119, 154, 119, 119, 154, 154], 1.0))
    # two inactive correlations stay on the bound as lam falls (tangent, not joining)
    @example(((4, 3), [119, 119, 143, 143, 143, 119, 143, 119, 143, 143, 143, 119], 0.5))
    def test_matches_coordinate_descent_on_tied_corner_tables(self, table):
        levels, counts, prior = table
        gauss = corner_gaussian(levels, counts, prior)
        path = lasso_path(gauss.mean, gauss.cov, n_lambda=20)
        assert_matches_coordinate_descent(path, gauss.mean, gauss.cov.to_dense())

    @pytest.mark.parametrize("hi", [60, 200])
    @pytest.mark.parametrize("seed", range(6))
    def test_certified_on_full_five_variable_tables(self, seed, hi):
        """Coordinate descent left 5 of these 12 tables uncertified."""
        gauss = corner_gaussian((2,) * 5, np.random.default_rng(seed).integers(0, hi, 32))
        path = lasso_path(gauss.mean, gauss.cov)
        active, inactive = kkt_residuals(path, gauss.mean, np.linalg.inv(gauss.cov.to_dense()))
        assert active < 1e-6 and inactive < 1e-6

    def test_support_grows_from_empty(self):
        rng = np.random.default_rng(2)
        theta = rng.normal(size=8)
        path = lasso_path(theta, np.eye(8))
        assert len(path.supports[0]) == 0
        assert len(path.supports[-1]) >= len(path.supports[0])

    def test_kkt_residual_matches_loop(self):
        rng = np.random.default_rng(9)
        grad, lambdas = rng.normal(size=(5, 12)), rng.uniform(0.2, 1.0, 5)
        coefs = np.where(rng.random((5, 12)) < 0.5, 0.0, rng.normal(size=(5, 12)))
        expected = [
            max(
                abs(g + lam * np.sign(t)) if abs(t) > 1e-10 else max(0.0, abs(g) - lam)
                for g, t in zip(point_grad, coef)
            )
            for point_grad, coef, lam in zip(grad, coefs, lambdas)
        ]
        assert selection._kkt_residuals(grad, coefs, lambdas).tolist() == expected

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
    """A path point whose KKT residual exceeds the tolerance raises instead of
    being returned; `_kkt_residuals` is patched to report a violation."""

    @pytest.fixture
    def uncertified(self, monkeypatch):
        monkeypatch.setattr(
            selection, "_kkt_residuals", lambda grad, coefs, lambdas: np.where(lambdas < lambdas[0], 1.0, 0.0)
        )

    def test_lasso_path_raises(self, uncertified):
        with pytest.raises(LassoConvergenceError, match="point 1 .*not certified"):
            lasso_path(np.array([1.0, -2.0, 0.5]), np.eye(3), n_lambda=10)

    def test_select_exits_3(self, uncertified, tmp_path, capsys):
        table = tmp_path / "t.json"
        table.write_text('{"levels": [2, 2, 2], "counts": [90, 3, 4, 1, 2, 5, 1, 40]}')
        assert main(["select", "--table", str(table), "--prior", "1", "--alpha", "0.1"]) == 3
        assert "not certified" in capsys.readouterr().err


class TestMahalanobisDelta:
    """The distance pcr_select reports for its chosen model:
    (theta_hat - theta_0)^T Sigma^{-1} (theta_hat - theta_0)."""

    def test_zero_at_estimate(self):
        theta = np.array([1.0, 2.0])
        path = LassoPath(np.array([2.0, 1.0]), np.array([np.zeros(2), theta]), ((), (0, 1)))
        result = pcr_select(path, theta, np.eye(2), alpha=0.5)
        assert not result.fallback and result.support == (0, 1)
        assert result.delta == 0.0

    def test_squared_norm_for_identity(self):
        path = LassoPath(np.array([1.0]), np.zeros((1, 2)), ((),))
        result = pcr_select(path, np.array([3.0, 4.0]), np.eye(2), alpha=1e-8)
        assert not result.fallback
        assert result.delta == pytest.approx(25.0)

    def test_cs_matches_dense(self):
        rng = np.random.default_rng(3)
        cs = CompoundSymmetryMatrix(rng.uniform(0.5, 4.0, 64), 1.1)
        diff = rng.normal(size=64) - rng.normal(size=64)
        path = LassoPath(np.array([1.0]), np.zeros((1, 64)), ((),))
        dense = pcr_select(path, diff, cs.to_dense(), alpha=1e-8)
        structured = pcr_select(path, diff, cs, alpha=1e-8)
        assert not dense.fallback and not structured.fallback
        assert structured.delta == pytest.approx(dense.delta, abs=1e-9)
        assert structured.delta == pytest.approx(float(diff @ cs.solve(diff)), abs=1e-9)


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
            if (theta - c) @ (theta - c) <= delta_max
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
                    if (theta - c) @ np.linalg.solve(sigma, theta - c) <= result.delta_max
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
        assert got.to_json_dict() == {"tp": 1, "fp": 0, "tn": 2, "fn": 0, "fdr": 0.0, "f1": 1.0}
        assert list(got.to_json_dict()) == ["tp", "fp", "tn", "fn", "fdr", "f1"]

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
