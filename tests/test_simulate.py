import json
import tracemalloc

import numpy as np
import pytest

from dygauss import tableio
from dygauss.baselines import _log_gamma_block, derive_seed, mc_approx, stream_rng
from dygauss.metrics import coverage, frobenius_loss, unexplained_variation
from dygauss.parametrization import corner_design, to_theta_star
from dygauss.posterior import DirichletParams, optimal_gaussian, transform_gaussian
from dygauss.simulate import (
    CSV_HEADER,
    SimulationConfig,
    _Condition,
    _replicate_rows,
    aggregate_means,
    multinomial_sample,
    run_compare,
)
from dygauss.tableio import InputError

from oracles import mc_buffer_reference


class TestMultinomialSample:
    def test_zero_trials(self):
        rng = stream_rng(1)
        np.testing.assert_array_equal(multinomial_sample(0, np.full(4, 0.25), rng), np.zeros(4))

    def test_counts_sum_and_clt_band(self):
        rng = stream_rng(2)
        counts = multinomial_sample(1_000_000, np.full(4, 0.25), rng)
        assert counts.sum() == 1_000_000
        assert np.all(np.abs(counts - 250_000) < 2_000)

    def test_deterministic_per_stream(self):
        pi = np.array([0.1, 0.2, 0.3, 0.4])
        a = multinomial_sample(500, pi, stream_rng(3, 7))
        b = multinomial_sample(500, pi, stream_rng(3, 7))
        np.testing.assert_array_equal(a, b)

    def test_skewed_probabilities(self):
        pi = np.array([0.989, 0.01, 0.001])
        counts = multinomial_sample(100_000, pi, stream_rng(4))
        assert counts.sum() == 100_000
        assert counts[0] > 97_000

    @pytest.mark.parametrize("d", [3, 255, 4095])
    def test_matches_sequential_binomial_reference(self, d):
        """Same counts and same generator state afterwards as sequential
        binomial conditioning, the loop this function used to run."""

        def reference(n, pi, rng):
            counts = np.zeros(pi.size, dtype=np.int64)
            remaining, denom = n, 1.0
            for j in range(pi.size - 1):
                if remaining == 0:
                    break
                counts[j] = rng.binomial(remaining, min(max(pi[j] / denom, 0.0), 1.0))
                remaining -= counts[j]
                denom = max(denom - pi[j], 1e-300)
            counts[-1] += remaining
            return counts

        for a in (1.0, 1.0 / d, 0.5):
            for n in (0, 250, 10_000, 1_000_000):
                pi = stream_rng(d, 0).gamma(a + 1.0, size=d + 1)
                pi /= pi.sum()
                ours, theirs = stream_rng(6, d), stream_rng(6, d)
                np.testing.assert_array_equal(multinomial_sample(n, pi, ours), reference(n, pi, theirs))
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_validation(self):
        rng = stream_rng(5)
        with pytest.raises(ValueError):
            multinomial_sample(-1, np.full(2, 0.5), rng)
        with pytest.raises(ValueError):
            multinomial_sample(5, np.array([0.5, 0.2]), rng)


def tiny_config(**overrides):
    base = dict(
        levels=(2, 2, 2),
        sample_sizes=(60,),
        prior_a=(1.0,),
        mc_sizes=(400,),
        replicates=3,
        seed=11,
        parametrizations=("identity", "corner"),
        ks_coords=4,
        timing_repeats=1,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestRunCompare:
    def test_produces_all_metrics(self, tmp_path):
        rows = run_compare(tiny_config(), out_dir=tmp_path)
        metrics = {r.metric for r in rows}
        assert {
            "unexplained_variation_on",
            "coverage_on",
            "unexplained_variation_laplace",
            "coverage_laplace",
            "frobenius_loss_laplace",
            "unexplained_variation_mc",
            "coverage_mc",
            "frobenius_loss_mc",
            "ks_mc",
            "time_on",
            "time_laplace",
            "time_mc",
        } <= metrics
        params = {r.parametrization for r in rows}
        assert params == {"identity", "corner"}

    def test_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        run_compare(tiny_config(), out_dir=out1)
        run_compare(tiny_config(), out_dir=out2)
        name = "metrics_a1p0.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_metrics_file_excludes_timings(self, tmp_path):
        run_compare(tiny_config(), out_dir=tmp_path)
        text = (tmp_path / "metrics_a1p0.csv").read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert "time_" not in text
        timing_text = (tmp_path / "timings_a1p0.csv").read_text()
        assert "time_on" in timing_text

    def test_mc_skippable(self, tmp_path):
        rows = run_compare(tiny_config(mc_sizes=()), out_dir=tmp_path)
        assert not any(r.metric.endswith("_mc") for r in rows)

    def test_aggregate_means(self, tmp_path):
        rows = run_compare(tiny_config(), out_dir=tmp_path)
        means = aggregate_means(rows)
        key = ("coverage_on", "identity", 60, 0)
        assert key in means
        assert 0.0 <= means[key] <= 1.0

    def test_thread_pool_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DYGAUSS_THREADS", "1")
        run_compare(tiny_config(), out_dir=tmp_path / "serial")
        monkeypatch.setenv("DYGAUSS_THREADS", "3")
        run_compare(tiny_config(), out_dir=tmp_path / "pooled")
        name = "metrics_a1p0.csv"
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pooled" / name).read_bytes()

    def test_blas_thread_count_does_not_change_the_metrics(self, tmp_path, openblas):
        """The p = 8 study's np.cov gemm and Frobenius-norm ddot round
        differently on two OpenBLAS threads than on one; the pool runs BLAS
        on one thread, so the CSV bytes do not depend on the setting."""
        get, set_ = openblas
        config = SimulationConfig(
            levels=(2,) * 8, sample_sizes=(250,), mc_sizes=(2000,), replicates=2, seed=301,
            timing_repeats=1,
        )
        for threads in (2, 1):
            set_(threads)
            run_compare(config, out_dir=tmp_path / f"blas{threads}")
            assert get() == threads
        name = "metrics_a1p0.csv"
        assert (tmp_path / "blas2" / name).read_bytes() == (tmp_path / "blas1" / name).read_bytes()


def reference_mc_rows(cond, rep):
    """The Monte Carlo rows of one replicate, (metric, parametrization, mc,
    repr(value)) in the study's row order, computed from every draw matrix
    kept whole: the identity draws in C order and their corner copy
    to_theta_star(draws.T, design).T, each summarized by the copying
    reference."""
    cfg = cond.config
    d = cfg.schema.d
    rng = stream_rng(cond.cond_seed, rep)
    alpha = np.full(d + 1, cond.prior_a)
    log_g = _log_gamma_block(rng, alpha, 1)[0]
    theta0 = log_g[1:] - log_g[0]
    shifted = np.exp(log_g - log_g.max())
    pi = np.maximum(shifted / shifted.sum(), 1e-300)
    pi /= pi.sum()
    beta = DirichletParams(alpha + multinomial_sample(cond.n, pi, rng))
    ks_pool = rng.choice(d, size=min(cfg.ks_coords, d), replace=False)
    gauss = optimal_gaussian(beta)
    draws = {
        mc: mc_approx(beta, mc, derive_seed(cond.cond_seed, rep, 1 + i))
        for i, mc in enumerate(cfg.mc_sizes)
    }
    rows = []
    for par in cfg.parametrizations:
        truth, g, buffers = theta0, gauss, draws
        if par == "corner":
            truth = to_theta_star(theta0, cond.design)
            g = transform_gaussian(gauss, cond.design)
            buffers = {mc: to_theta_star(x.T, cond.design).T for mc, x in draws.items()}
        sd = np.sqrt(g.variances())
        ks_rows = []
        for mc, buffer in buffers.items():
            ks_cols = ks_pool if mc == max(cfg.mc_sizes) else []
            mean, intervals, cov, ks = mc_buffer_reference(buffer, g.mean, sd, ks_cols)
            rows.append(("unexplained_variation_mc", par, mc, repr(unexplained_variation(mean, truth))))
            rows.append(("coverage_mc", par, mc, repr(coverage(intervals, truth))))
            rows.append(("frobenius_loss_mc", par, mc, repr(frobenius_loss(cov, g.cov_dense()))))
            ks_rows += [("ks_mc", par, mc, repr(v)) for v in ks]
        rows += ks_rows
    return rows


class TestMcDrawBuffers:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("order", [("identity", "corner"), ("corner", "identity")])
    @pytest.mark.parametrize("mc", [500, 2001])
    @pytest.mark.parametrize("p", [3, 5])
    def test_mc_rows_equal_the_copying_reference(self, p, mc, order, threads, monkeypatch):
        """One buffer per parametrization, in-place centring and block sorts
        give the same bits as np.cov, np.percentile and per-column KS on
        whole copies, in either parametrization order and on any pool size."""
        monkeypatch.setenv("DYGAUSS_THREADS", threads)
        config = tiny_config(
            levels=(2,) * p, mc_sizes=(mc, 300), parametrizations=order, replicates=2, ks_coords=6
        )
        cond = _Condition(1.0, 60, derive_seed(config.seed, 0, 0), config, corner_design(config.schema))
        got = tableio.map_jobs(lambda r: _replicate_rows(cond, r), range(config.replicates))
        expected = tableio.map_jobs(lambda r: reference_mc_rows(cond, r), range(config.replicates))
        for rep_rows, rep_expected in zip(got, expected):
            mc_rows = [
                (r.metric, r.parametrization, r.mc, repr(r.value))
                for r in rep_rows
                if r.metric.endswith("_mc") and r.metric != "time_mc"
            ]
            assert mc_rows == rep_expected

    @pytest.mark.parametrize("repeats, bound", [(1, 3.2), (3, 4.2)])
    @pytest.mark.parametrize("order", [("identity", "corner"), ("corner", "identity")])
    def test_traced_peak_per_replicate(self, order, repeats, bound, monkeypatch):
        """A p = 8 replicate at mc = 20,000 holds at most about three draw
        matrices (the draws and the two log-gamma blocks), one more when
        timing repeats keep the first draws while the next are built."""
        monkeypatch.setenv("DYGAUSS_THREADS", "1")
        mc = 20_000
        config = SimulationConfig(
            levels=(2,) * 8, sample_sizes=(10_000,), mc_sizes=(mc,), replicates=1, seed=301,
            parametrizations=order, timing_repeats=repeats,
        )
        cond = _Condition(1.0, 10_000, derive_seed(301, 0, 0), config, corner_design(config.schema))
        tracemalloc.start()
        try:
            tableio.map_jobs(lambda r: _replicate_rows(cond, r), [0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * mc * config.schema.d * 8


class TestSimulationConfig:
    def test_from_json_with_p(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(
            json.dumps({"p": 3, "N": [100], "a": 1, "mc": [200], "replicates": 2, "seed": 5})
        )
        cfg = SimulationConfig.from_json(path)
        assert cfg.levels == (2, 2, 2)
        assert cfg.sample_sizes == (100,)
        assert cfg.mc_sizes == (200,)

    def test_from_json_with_levels(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"levels": [2, 3], "N": 50}))
        cfg = SimulationConfig.from_json(path)
        assert cfg.levels == (2, 3)

    def test_validation(self):
        with pytest.raises(InputError):
            SimulationConfig(levels=(2,), sample_sizes=())
        with pytest.raises(InputError):
            SimulationConfig(levels=(2,), sample_sizes=(10,), prior_a=(0.0,))
        with pytest.raises(InputError):
            SimulationConfig(levels=(2,), sample_sizes=(10,), parametrizations=("weird",))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"N": [10]}))
        with pytest.raises(InputError):
            SimulationConfig.from_json(path)
