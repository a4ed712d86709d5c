import json

import numpy as np
import pytest

from dygauss.baselines import stream_rng
from dygauss.simulate import (
    CSV_HEADER,
    SimulationConfig,
    aggregate_means,
    multinomial_sample,
    run_compare,
)
from dygauss.tableio import InputError


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
