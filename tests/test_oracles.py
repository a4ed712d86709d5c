"""Checks of the test oracles themselves against scipy's own distributions
and against limits they must reach."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

import oracles
from oracles import (
    gumbel_normal_ks_limit,
    ks_distance,
    ks_logit_beta,
    ld_logpdf,
    logit_beta_cdf,
    logit_beta_moments,
)


def test_oracles_import_nothing_from_dygauss():
    """The oracles fix expected values for dygauss, so they must share no code with it."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "oracles.py must not use relative imports"
            imported.append(node.module)
    assert imported and not [name for name in imported if name.split(".")[0] == "dygauss"]


class TestLdLogpdf:
    """The log-ratio density against scipy's Dirichlet density at the logistic
    image plus the log-Jacobian sum_l t_l - (d + 1) log(1 + sum_l e^{t_l})."""

    @staticmethod
    def reference(theta, beta):
        probs = special.softmax(np.concatenate([[0.0], theta]))
        jacobian = theta.sum() - (theta.size + 1) * math.log1p(float(np.exp(theta).sum()))
        return float(stats.dirichlet.logpdf(probs, beta)) + jacobian

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_matches_scipy_dirichlet(self, d):
        rng = np.random.default_rng(d)
        beta = rng.uniform(0.3, 30.0, d + 1)
        theta = rng.normal(0.0, 2.0, (20, d))
        rows = [ld_logpdf(row, beta) for row in theta]
        np.testing.assert_allclose(rows, [self.reference(row, beta) for row in theta], rtol=0, atol=1e-10)
        batch = ld_logpdf(theta, beta)
        assert batch.shape == (20,)
        np.testing.assert_allclose(batch, rows, rtol=1e-15, atol=0.0)


class TestLogitBetaCdf:
    @pytest.mark.parametrize("a, b", [(1.0, 101.0), (2.5, 7.0), (40.0, 3.0), (0.6, 0.8)])
    def test_matches_beta_prime(self, a, b):
        """X / (1 - X) is beta-prime(a, b) for X ~ Beta(a, b)."""
        t = np.linspace(-15.0, 8.0, 47)
        expected = stats.betaprime.cdf(np.exp(t), a, b)
        assert np.max(np.abs(logit_beta_cdf(t, a, b) - expected)) < 1e-12


class TestLogitBetaMoments:
    @pytest.mark.parametrize("a, b", [(1.0, 101.0), (2.5, 7.0), (40.0, 3.0)])
    def test_matches_quadrature(self, a, b):
        """Mean and variance of the density sigma(t)^a sigma(-t)^b / B(a, b)."""

        def pdf(t):
            return math.exp(
                a * special.log_expit(t) + b * special.log_expit(-t) - special.betaln(a, b)
            )

        m1 = integrate.quad(lambda t: t * pdf(t), -np.inf, np.inf, epsabs=1e-13)[0]
        m2 = integrate.quad(lambda t: (t - m1) ** 2 * pdf(t), -np.inf, np.inf, epsabs=1e-13)[0]
        mean, sd = logit_beta_moments(a, b)
        assert mean == pytest.approx(m1, rel=1e-8)
        assert sd == pytest.approx(math.sqrt(m2), rel=1e-8)


class TestKsDistance:
    def test_zero_against_itself(self):
        assert ks_distance(lambda t: stats.norm.cdf(t, 1.5, 2.0), 1.5, 2.0) < 1e-15

    def test_shifted_normal(self):
        """Two unit normals a distance s apart differ most at the midpoint."""
        shift = 0.3
        expected = 2.0 * stats.norm.cdf(shift / 2.0) - 1.0
        got = ks_distance(lambda t: stats.norm.cdf(t, shift, 1.0), 0.0, 1.0)
        assert got == pytest.approx(expected, abs=1e-12)


class TestLogitBetaKs:
    def test_symmetric(self):
        """logit-Beta(b, a) is the reflection of logit-Beta(a, b), and so is
        its moment-matched Gaussian."""
        for a, b in [(1.0, 101.0), (3.0, 50.0), (2.0, 2.5)]:
            assert ks_logit_beta(a, b) == pytest.approx(ks_logit_beta(b, a), abs=1e-12)

    def test_rises_to_gumbel_limit(self):
        limit = gumbel_normal_ks_limit()
        assert limit == pytest.approx(0.070680, abs=1e-6)
        values = [ks_logit_beta(1.0, b0) for b0 in (1.0, 10.0, 101.0, 1e3, 1e4, 1e6)]
        assert np.all(np.diff(values) > 0)
        assert values[-1] < limit
        assert limit - values[-1] < 1e-6

    def test_larger_counts_are_closer(self):
        """Away from a zero-count cell the law is closer to Gaussian."""
        limit = gumbel_normal_ks_limit()
        for a in (2.0, 5.0, 30.0):
            assert ks_logit_beta(a, 1e4) < ks_logit_beta(1.0, 1e4) < limit
