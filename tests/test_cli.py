import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dygauss import cli, simulate, tableio
from dygauss.baselines import NewtonError
from dygauss.cli import main
from dygauss.metrics import CREDIBLE_LEVEL, gaussian_intervals
from dygauss.parametrization import TableSchema, canonical_cell_order, corner_design
from dygauss.posterior import (
    CompoundSymmetryMatrix,
    DirichletParams,
    GaussianApprox,
    kl_bound,
    optimal_gaussian,
    transform_gaussian,
)
from dygauss.selection import lasso_path, pcr_select
from dygauss.specfun import digamma, log_gamma, mostly_repeated, trigamma

from oracles import plain_moments_and_kl


def write_json_table(path, levels, counts):
    path.write_text(json.dumps({"levels": levels, "counts": counts}))
    return str(path)


class TestApproxCommand:
    def test_two_cell_table(self, tmp_path, capsys):
        table = write_json_table(tmp_path / "t.json", [2], [3, 1])
        assert main(["approx", "--table", table, "--prior", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"][0] == pytest.approx(digamma(2.0) - digamma(4.0), abs=1e-12)
        assert payload["cov"]["type"] == "cs"
        assert payload["cov"]["diag"][0] == pytest.approx(trigamma(2.0), abs=1e-12)
        assert payload["cov"]["common"] == pytest.approx(trigamma(4.0), abs=1e-12)
        assert payload["kl_bound"]["valid"] is True
        lo, hi = payload["intervals"][0]
        assert lo < payload["mean"][0] < hi

    def test_empty_table_gives_prior(self, tmp_path, capsys):
        table = write_json_table(tmp_path / "t.json", [2, 2], [0, 0, 0, 0])
        assert main(["approx", "--table", table, "--prior", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["mean"], 0.0, atol=1e-12)

    def test_corner_labels_match_cell_indexing(self, tmp_path, capsys):
        table = write_json_table(tmp_path / "t.json", [2, 2, 2], [5, 3, 4, 1, 2, 2, 1, 6])
        assert main(
            ["approx", "--table", table, "--prior", "1", "--parametrization", "corner"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parametrization"] == "corner"
        assert payload["labels"][0] == [0, 0, 1]
        assert payload["labels"][3] == [1, 0, 0]
        assert payload["labels"][6] == [1, 1, 1]
        assert payload["cov"]["type"] == "corner_cs"
        assert payload["cov"]["levels"] == [2, 2, 2]

    def test_corner_p12_is_compact(self, tmp_path):
        """The corner covariance is written as (Sigma*, design), not as a
        4095 x 4095 matrix."""
        counts = np.random.default_rng(5).integers(0, 30, 2**12).tolist()
        table = write_json_table(tmp_path / "t.json", [2] * 12, counts)
        out = tmp_path / "approx.json"
        argv = ["approx", "--table", table, "--prior", "1", "--parametrization", "corner"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.stat().st_size < 2_000_000
        payload = json.loads(out.read_text())
        assert payload["cov"]["type"] == "corner_cs"
        assert len(payload["cov"]["diag"]) == len(payload["intervals"]) == 4095

    def test_out_file(self, tmp_path):
        table = write_json_table(tmp_path / "t.json", [2], [3, 1])
        out = tmp_path / "approx.json"
        assert main(["approx", "--table", table, "--prior", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["parametrization"] == "identity"

    def test_malformed_table_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ["not json", '{"levels": [1e400], "counts": [1]}']:
            bad.write_text(text)
            assert main(["approx", "--table", str(bad), "--prior", "1"]) == 2, text

    def test_malformed_csv_rows_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        for text, line in [
            ("i_1,i_2,count\n0,0,1\n1,1,100000000000000000000\n", 3),
            ("i_1,i_2,count\n0,0,1\n\n\n1,x,3\n", 5),
        ]:
            bad.write_text(text)
            assert main(["approx", "--table", str(bad), "--prior", "1"]) == 2, text
            assert f"bad.csv:{line}: " in capsys.readouterr().err

    def test_large_level_index_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("i_1,i_2,count\n0,0,1\n1000000,1000000,5\n")
        assert main(["approx", "--table", str(bad), "--prior", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(1000001, 1000001)" in err

    def test_mixed_level_corner_labels_and_compact_json(self, tmp_path):
        schema = TableSchema((3, 2, 4))
        cells = canonical_cell_order(schema).tolist()
        rows = [",".join(map(str, cell + [3 * i % 7])) for i, cell in enumerate(cells)]
        table = tmp_path / "t.csv"
        table.write_text("i_1,i_2,i_3,count\n" + "\n".join(rows[::-1]) + "\n")
        out = tmp_path / "approx.json"
        argv = ["approx", "--table", str(table), "--prior", "1",
                "--parametrization", "corner", "--out", str(out)]
        assert main(argv) == 0
        text = out.read_text()
        payload = json.loads(text)
        assert payload["labels"] == cells[1:]
        assert text == json.dumps(payload) + "\n"

    def test_nonpositive_prior_exit_2(self, tmp_path):
        table = write_json_table(tmp_path / "t.json", [2], [3, 1])
        assert main(["approx", "--table", table, "--prior", "-2"]) == 2

    @pytest.mark.parametrize("parametrization", ["identity", "corner"])
    @pytest.mark.parametrize("prior", ["1e308", "1e-300", "1e200"])
    def test_prior_outside_range_exit_2_without_warnings(self, tmp_path, capsys, prior, parametrization):
        table = write_json_table(tmp_path / "t.json", [2, 2], [3, 0, 1, 7])
        argv = ["approx", "--table", table, "--prior", prior, "--parametrization", parametrization]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert "prior" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("parametrization", ["identity", "corner"])
    @pytest.mark.parametrize("prior", ["1e-100", "1e100"])
    @pytest.mark.parametrize("p", [2, 16])
    def test_prior_range_ends_run_warning_free(self, tmp_path, p, prior, parametrization):
        counts = [3, 0, 1, 7] if p == 2 else (np.arange(2**p) % 5).tolist()
        table = write_json_table(tmp_path / "t.json", [2] * p, counts)
        argv = ["approx", "--table", table, "--prior", prior, "--parametrization", parametrization,
                "--out", str(tmp_path / "o.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0


def listed(value):
    """`value` with every ndarray as its nested list, as JSON payloads were
    built before the array writer."""
    if isinstance(value, dict):
        return {key: listed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [listed(item) for item in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def list_approx_text(levels, counts, prior, parametrization):
    """The approx output as json.dumps of a payload of Python lists, with the
    special functions evaluated on the whole concentration vector
    (`oracles.plain_moments_and_kl`), not on its distinct values."""
    schema = TableSchema(levels)
    b = np.full(schema.n_cells, prior) + np.asarray(counts)
    mean, diag, common, kl = plain_moments_and_kl(b, log_gamma, digamma, trigamma)
    gauss = GaussianApprox(mean, CompoundSymmetryMatrix(diag, common))
    if parametrization == "corner":
        gauss = transform_gaussian(gauss, corner_design(schema))
    bound = kl_bound(DirichletParams(b))
    payload = listed(gauss.to_json_dict())
    payload["labels"] = canonical_cell_order(schema)[1:].tolist()
    payload["exact_min_kl"] = kl
    payload["kl_bound"] = {"value": bound.value, "valid": bound.valid}
    payload["level"] = CREDIBLE_LEVEL
    payload["intervals"] = gaussian_intervals(gauss.mean, gauss.variances()).tolist()
    return json.dumps(payload) + "\n"


@st.composite
def small_tables(draw):
    """Up to three variables, some with 11 or more levels (multi-digit
    labels), at most 400 cells, many of them empty."""
    levels = draw(st.lists(st.one_of(st.integers(2, 4), st.integers(11, 13)), min_size=1, max_size=3)
                  .filter(lambda lv: int(np.prod(lv)) <= 400))
    n_cells = int(np.prod(levels))
    counts = draw(st.lists(st.one_of(st.just(0), st.integers(0, 40)), min_size=n_cells, max_size=n_cells))
    return levels, counts


class TestJsonWriter:
    """`approx` and `select` write the bytes json.dumps gives for the same
    payload built from Python lists."""

    VALUES = [0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3, -1 / 3]

    @pytest.mark.parametrize("shape", [(-1,), (-1, 2)])
    @pytest.mark.parametrize("repeats", [1, 40])
    def test_float_array_text(self, monkeypatch, shape, repeats):
        """All-distinct values take the direct path, repeated ones the
        per-distinct-value path; both give json.dumps's text."""
        deduped = []
        column_texts = tableio._column_texts
        monkeypatch.setattr(tableio, "_column_texts", lambda c: deduped.append(c) or column_texts(c))
        values = np.array(self.VALUES * repeats).reshape(shape)
        assert tableio._float_array_json(values) == json.dumps(values.tolist())
        assert bool(deduped) == (repeats > 1)

    def test_non_finite_and_integer_arrays(self):
        for values in (np.array([np.nan, np.inf, -np.inf, 1.5] * 20), np.arange(50), np.zeros((0, 2))):
            assert tableio._float_array_json(values) == json.dumps(values.tolist())

    def test_string_equal_to_the_slot_is_refused(self):
        with pytest.raises(ValueError):
            tableio.write_json({"mean": np.zeros(3), "name": "\x00"}, io.StringIO())

    @pytest.mark.parametrize("tail_cells", [1, 5, 1024])
    @pytest.mark.parametrize("levels", [(2,), (13,), (3, 2, 4), (2,) * 11, (12, 3, 11, 2)])
    def test_cell_labels_text(self, monkeypatch, tail_cells, levels):
        """Labels come out in blocks of one head prefix each; any split of
        the variables into head and tail gives the same text."""
        monkeypatch.setattr(tableio, "_LABEL_TAIL_CELLS", tail_cells)
        schema = TableSchema(levels)
        text = io.StringIO()
        tableio.write_json({"labels": tableio.CellLabels(schema)}, text)
        expected = {"labels": canonical_cell_order(schema)[1:].tolist()}
        assert text.getvalue() == json.dumps(expected) + "\n"

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=small_tables(), prior=st.floats(1e-4, 1e4),
           parametrization=st.sampled_from(["identity", "corner"]), to_file=st.booleans())
    def test_approx_bytes_equal_list_payload(self, tmp_path, capsys, table, prior, parametrization, to_file):
        levels, counts = table
        path = write_json_table(tmp_path / "t.json", levels, counts)
        argv = ["approx", "--table", path, "--prior", repr(prior), "--parametrization", parametrization]
        out = tmp_path / "o.json"
        capsys.readouterr()
        assert main(argv + (["--out", str(out)] if to_file else [])) == 0
        text = out.read_text() if to_file else capsys.readouterr().out
        assert text == list_approx_text(levels, counts, prior, parametrization)

    @pytest.mark.parametrize("parametrization", ["identity", "corner"])
    @pytest.mark.parametrize(
        "prior, high, repeated",
        [("1", 20, True), ("1e-4", 2, True), ("1e-100", 4, True), ("vector", 20, False)],
    )
    def test_approx_bytes_equal_plain_reference(self, tmp_path, prior, high, repeated, parametrization):
        """Full p = 10 tables, on both sides of the distinct-value test."""
        rng = np.random.default_rng(high)
        counts = rng.integers(0, high, 2**10)
        prior_values = np.full(2**10, float(prior)) if prior != "vector" else rng.uniform(0.5, 2.0, 2**10)
        if prior == "vector":
            prior = str(tmp_path / "prior.txt")
            Path(prior).write_text(" ".join(map(repr, prior_values.tolist())))
        assert mostly_repeated(prior_values + counts) is repeated
        table = write_json_table(tmp_path / "t.json", [2] * 10, counts.tolist())
        out = tmp_path / "o.json"
        argv = ["approx", "--table", table, "--prior", prior, "--parametrization", parametrization]
        assert main(argv + ["--out", str(out)]) == 0
        reference = list_approx_text([2] * 10, counts, prior_values, parametrization)
        assert out.read_text() == reference

    def test_select_bytes_equal_list_payload(self, tmp_path, capsys):
        counts = np.random.default_rng(301).integers(0, 200, 32)
        table = write_json_table(tmp_path / "t.json", [2] * 5, counts.tolist())
        assert main(["select", "--table", table, "--prior", "1", "--alpha", "0.1"]) == 0
        design = corner_design(TableSchema([2] * 5))
        gauss = transform_gaussian(optimal_gaussian(DirichletParams(1.0 + counts)), design)
        path = lasso_path(gauss.mean, gauss.cov, n_lambda=100, lambda_min_ratio=1e-3)
        result = pcr_select(path, 0.1)
        payload = {"alpha": 0.1, "parametrization": "corner", "n_lambda": 100, "lambda_min_ratio": 1e-3}
        payload.update(listed(result.to_json_dict(design.labels)))
        payload["labels"] = design.labels.tolist()
        assert capsys.readouterr().out == json.dumps(payload) + "\n"


class TestCompareCommand:
    def test_runs_and_is_deterministic(self, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(
            json.dumps(
                {
                    "p": 3,
                    "N": [40],
                    "a": [1.0],
                    "mc": [300],
                    "replicates": 2,
                    "seed": 9,
                    "ks_coords": 3,
                    "timing_repeats": 1,
                }
            )
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["compare", "--config", str(config), "--out-dir", str(out1)]) == 0
        assert main(["compare", "--config", str(config), "--out-dir", str(out2)]) == 0
        name = "metrics_a1p0.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        header = (out1 / name).read_text().splitlines()[0]
        assert header == "metric,parametrization,N,mc,replicate,value"

    def test_bad_config_exit_2(self, tmp_path):
        config = tmp_path / "sim.json"
        for text in [
            "{}",
            '{"p": null, "N": [10]}',
            '{"levels": [2, null], "N": [10]}',
            '["p"]',
            '{"p": 1e400, "N": [10]}',
            '{"p": 40, "N": [10], "replicates": 1, "mc": []}',
            '{"p": 64, "N": [10], "replicates": 1, "mc": []}',
            '{"p": 10000000000, "N": [10], "replicates": 1, "mc": []}',
        ]:
            config.write_text(text)
            assert main(["compare", "--config", str(config)]) == 2, text

    def test_prior_outside_range_exit_2_without_warnings(self, tmp_path, capsys):
        config = tmp_path / "sim.json"
        config.write_text('{"p": 2, "N": [5], "a": [1e-300], "mc": [], "replicates": 2}')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "prior" in err and "1e-300" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_prior_with_constant_truth_exit_2(self, tmp_path, capsys):
        """At a = 1e30 every true vector's draws agree to the last bit, so its variation is undefined."""
        config = tmp_path / "sim.json"
        config.write_text('{"p": 3, "N": [5], "a": [1e30], "mc": [], "replicates": 2}')
        assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "prior" in err and "1e+30" in err and "1e+25" in err
        assert not (tmp_path / "o").exists()

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(a=st.floats(1e25, 1e100, exclude_min=True))
    def test_prior_above_the_cap_exit_2(self, tmp_path, capsys, a):
        """Every study prior in (1e25, 1e100] is refused before any output."""
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"p": 3, "N": [5], "a": [a], "mc": [], "replicates": 2}))
        capsys.readouterr()
        assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "prior" in err and repr(a) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, values",
        [("N", [20, 20]), ("a", [1, 1.0]), ("mc", [50, 50]), ("parametrizations", ["corner", "corner"])],
    )
    def test_repeated_entry_exit_2(self, tmp_path, capsys, key, values):
        """A repeated value would overwrite or duplicate another entry's rows."""
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"p": 2, "N": [20], "mc": [], "replicates": 2, key: values}))
        assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        """Misspelt keys would otherwise run the default study (100 replicates) without a word."""
        config = tmp_path / "sim.json"
        config.write_text('{"p": 2, "N": [5], "mc": [], "replicate": 2, "seeds": 3}')
        assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "'replicate'" in err and "'seeds'" in err
        assert not (tmp_path / "o").exists()

    def test_levels_with_p_exit_2(self, tmp_path, capsys):
        """Two table shapes in one config: neither silently wins."""
        config = tmp_path / "sim.json"
        config.write_text('{"p": 3, "levels": [2, 2], "N": [5], "mc": [], "replicates": 2}')
        assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "'levels'" in err and "'p'" in err
        assert not (tmp_path / "o").exists()

    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(log_a=st.floats(-100.0, 25.0), p=st.integers(2, 3), seed=st.integers(1, 2**31))
    @example(log_a=-100.0, p=3, seed=1)
    @example(log_a=-80.0, p=2, seed=1)
    def test_extreme_priors_exit_0_without_warnings(self, tmp_path, log_a, p, seed):
        """The Frobenius loss once overflowed for priors <= 1e-80 (covariance entries near 1e200)."""
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({"p": p, "N": [5], "a": [10.0**log_a], "mc": [20], "replicates": 2,
                                      "seed": seed, "ks_coords": 2, "timing_repeats": 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 0

    def test_newton_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        def no_convergence(beta):
            raise NewtonError("MAP Newton did not converge", np.zeros(beta.d), 1.0)

        monkeypatch.setattr(simulate, "laplace_approx", no_convergence)
        config = tmp_path / "sim.json"
        config.write_text('{"p": 2, "N": [5], "mc": [], "replicates": 2, "timing_repeats": 1}')
        assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 3
        assert "numerical failure: MAP Newton did not converge" in capsys.readouterr().err

    def test_non_finite_metric_exit_3(self, tmp_path, capsys, monkeypatch):
        """A metric that comes out NaN inside a valid study is a numerical
        failure, not an input error."""
        monkeypatch.setattr(simulate, "coverage", lambda intervals, truth: float("nan"))
        config = tmp_path / "sim.json"
        config.write_text('{"p": 2, "N": [5], "mc": [], "replicates": 2, "timing_repeats": 1}')
        assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 3
        assert "numerical failure: metric 'coverage_on' produced a non-finite value" in capsys.readouterr().err

    def test_prior_one_over_d_runs(self, tmp_path):
        """a = 1/d at p = 8 (d = 255) once sent the Laplace baseline off the simplex."""
        config = tmp_path / "sim.json"
        config.write_text(
            json.dumps(
                {"p": 8, "N": [250], "a": [1.0 / 255.0], "mc": [], "replicates": 20, "seed": 1}
            )
        )
        assert main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 0


class TestSelectCommand:
    def test_dependent_table_keeps_interaction(self, tmp_path, capsys):
        table = write_json_table(tmp_path / "t.json", [2, 2], [50, 5, 5, 50])
        assert main(["select", "--table", table, "--prior", "1", "--alpha", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [1, 1] in payload["support_labels"]
        assert payload["delta"] <= payload["delta_max"]

    def test_independent_table_drops_interaction(self, tmp_path, capsys):
        table = write_json_table(tmp_path / "t.json", [2, 2], [25, 25, 25, 25])
        assert main(["select", "--table", table, "--prior", "1", "--alpha", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [1, 1] not in payload["support_labels"]

    def test_marginals_with_reference(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        counts = rng.integers(5, 40, 16).tolist()
        table = write_json_table(tmp_path / "t.json", [2, 2, 2, 2], counts)
        graph = tmp_path / "ref.txt"
        graph.write_text("0,1\n2,3\n")
        assert (
            main(
                [
                    "select",
                    "--table",
                    table,
                    "--prior",
                    "1",
                    "--alpha",
                    "0.1",
                    "--marginals",
                    "3",
                    "--reference",
                    str(graph),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["tables"]) == 4  # C(4, 3)
        confusion = payload["confusion"]
        total = confusion["tp"] + confusion["fp"] + confusion["tn"] + confusion["fn"]
        assert total == 4 * 3  # C(3, 2) slots per marginal
        assert 0.0 <= confusion["f1"] <= 1.0

    @pytest.mark.parametrize("n_lambda", ["20", "100"])
    def test_tied_correlations_exit_0(self, tmp_path, capsys, n_lambda):
        """A select-marginals benchmark input (seed 301, table 11, marginal
        (0, 1, 3)). Its repeated count 10464 makes the path degenerate: one
        active coefficient stands still over whole segments."""
        counts = [7371, 10464, 9671, 13714, 7572, 10464, 16403, 24341]
        table = write_json_table(tmp_path / "t.json", [2, 2, 2], counts)
        argv = ["select", "--table", table, "--prior", "1", "--alpha", "0.1", "--n-lambda", n_lambda]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] <= payload["delta_max"]

    def test_full_eight_variable_table_exit_0(self, tmp_path, capsys):
        counts = np.random.default_rng(301).integers(0, 200, 256).tolist()
        table = write_json_table(tmp_path / "t.json", [2] * 8, counts)
        assert main(["select", "--table", table, "--prior", "1", "--alpha", "0.1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta"] <= payload["delta_max"]

    def test_reference_without_marginals_exit_2(self, tmp_path, capsys):
        table = write_json_table(tmp_path / "t.json", [2, 2], [1, 2, 3, 4])
        argv = ["select", "--table", table, "--prior", "1", "--alpha", "0.1", "--reference", "missing.txt"]
        assert main(argv) == 2
        assert "--marginals" in capsys.readouterr().err

    def test_marginals_too_large_exit_2(self, tmp_path):
        table = write_json_table(tmp_path / "t.json", [2, 2], [1, 2, 3, 4])
        assert (
            main(
                ["select", "--table", table, "--prior", "1", "--alpha", "0.1", "--marginals", "5"]
            )
            == 2
        )

    def test_invalid_thread_count_exit_2(self, tmp_path, monkeypatch, capsys):
        table = write_json_table(tmp_path / "t.json", [2, 2, 2], [5, 1, 2, 3, 4, 5, 6, 7])
        monkeypatch.setenv("DYGAUSS_THREADS", "abc")
        argv = ["select", "--table", table, "--prior", "1", "--alpha", "0.1", "--marginals", "2"]
        assert main(argv) == 2
        assert "DYGAUSS_THREADS" in capsys.readouterr().err


class TestStrongDependenceWorkflow:
    def test_planted_pair_recovered_on_marginals(self, tmp_path, capsys):
        """Three binary variables, first two tightly coupled, third independent:
        the pair (0, 1) should be selected and no edge should touch 2."""
        rng = np.random.default_rng(42)
        n = 4000
        x0 = rng.integers(0, 2, n)
        x1 = np.where(rng.random(n) < 0.9, x0, 1 - x0)
        x2 = rng.integers(0, 2, n)
        counts = np.zeros(8, dtype=int)
        for a, b, c in zip(x0, x1, x2):
            counts[4 * a + 2 * b + c] += 1
        table = write_json_table(tmp_path / "t.json", [2, 2, 2], counts.tolist())
        graph = tmp_path / "ref.txt"
        graph.write_text("0 1\n")
        assert (
            main(
                [
                    "select",
                    "--table",
                    table,
                    "--prior",
                    "1",
                    "--alpha",
                    "0.1",
                    "--marginals",
                    "2",
                    "--reference",
                    str(graph),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        by_vars = {tuple(t["variables"]): t for t in payload["tables"]}
        assert [[0, 1]] == by_vars[(0, 1)]["edges"] or [0, 1] in by_vars[(0, 1)]["edges"]
        assert by_vars[(0, 2)]["edges"] == []
        assert by_vars[(1, 2)]["edges"] == []
        assert payload["confusion"]["fn"] == 0
        assert payload["confusion"]["fp"] == 0


# Level indices and counts: small ones (tables of at most 4^3 = 64 cells),
# ones whose inferred cell count is over the CSV limit, ones beyond int64,
# negatives, and non-integers.
HUGE_INDEX = st.integers(2**24, 2**63 - 1)
BAD_FIELDS = st.one_of(
    HUGE_INDEX.map(str),
    st.integers(2**63, 2**70).map(str),
    st.integers(-3, -1).map(str),
    st.sampled_from(["", " ", "x", "1.5", " 2 ", '"3"', "1e3", "nan", "0x1", "1,2"]),
)
PRIOR_SPECS = st.one_of(
    st.sampled_from(["1", "0.5", "1e-4", "0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
PRIOR_VALUES = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([0.0, -1.0, float("nan"), float("inf"), 1e-320, 1e308]),
)


@st.composite
def csv_texts(draw):
    """Table CSV rows of up to 3 variables with indices 0-3 (at most 64
    cells), with a few fields, rows or the header replaced."""
    p = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 3).map(str), min_size=p + 1, max_size=p + 1), max_size=6))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, p))] = draw(BAD_FIELDS)
    if rows and draw(st.booleans()):
        rows.append(draw(st.lists(st.integers(0, 3).map(str), max_size=p + 3)))
    header = ",".join(f"i_{v + 1}" for v in range(p)) + ",count"
    header = draw(st.sampled_from([header] * 4 + ["a,b", "count", ""]))
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


JSON_SCALARS = st.one_of(
    st.integers(-2, 4), HUGE_INDEX, st.integers(2**63, 2**80), st.floats(), st.none(), st.text(max_size=3)
)


@st.composite
def json_tables(draw):
    """Table JSON: well-formed with some entries replaced, or any JSON value."""
    levels = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    counts = draw(st.lists(st.integers(0, 50), min_size=int(np.prod(levels)), max_size=int(np.prod(levels))))
    payload = {"levels": levels, "counts": counts}
    for key in draw(st.lists(st.sampled_from(["levels", "counts"]), max_size=2)):
        values = payload[key]
        values[draw(st.integers(0, len(values) - 1))] = draw(JSON_SCALARS)
    if draw(st.integers(0, 4)) == 0:
        payload = draw(st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(["levels", "counts", "x"]), inner, max_size=2)))
    return payload


# Values each `select` option accepts, and values outside its range.
SELECT_OPTIONS = {
    "n-lambda": (st.integers(1, 300), st.integers(max_value=0)),
    "lambda-min-ratio": (
        st.floats(0.0, 1.0, exclude_min=True),
        st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True), st.just(math.nan)),
    ),
    "alpha": (
        st.floats(1e-6, 1.0, exclude_max=True),
        st.one_of(
            st.floats(max_value=0.0),
            st.floats(min_value=1.0),
            st.floats(0.0, 1e-16, exclude_min=True).filter(lambda a: 1.0 - a == 1.0),
            st.just(math.nan),
        ),
    ),
}


@st.composite
def bad_select_options(draw):
    """Every select option given, at least one of them out of range."""
    bad = draw(st.sets(st.sampled_from(sorted(SELECT_OPTIONS)), min_size=1))
    return {name: draw(SELECT_OPTIONS[name][name in bad]) for name in SELECT_OPTIONS}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestExitCodeContract:
    """Malformed input exits 2 with an error line; it never ends in exit 1 or
    an uncaught exception. Nothing is asserted about the numbers printed."""

    SETTINGS = settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    @staticmethod
    def approx(tmp_path, table_text, suffix, prior="1"):
        table = tmp_path / f"t{suffix}"
        table.write_text(table_text)
        argv = ["approx", "--table", str(table), f"--prior={prior}", "--out", str(tmp_path / "o.json")]
        for parametrization in ("identity", "corner"):
            assert main(argv + ["--parametrization", parametrization]) in (0, 2)

    @SETTINGS
    @given(text=csv_texts())
    def test_table_csv(self, tmp_path, text):
        self.approx(tmp_path, text, ".csv")

    @SETTINGS
    @given(payload=json_tables())
    def test_table_json(self, tmp_path, payload):
        self.approx(tmp_path, json.dumps(payload), ".json")

    @SETTINGS
    @given(spec=PRIOR_SPECS, file_values=st.lists(PRIOR_VALUES, min_size=3, max_size=5), as_file=st.booleans())
    def test_prior(self, tmp_path, spec, file_values, as_file):
        if as_file:
            prior = tmp_path / "prior.txt"
            prior.write_text(" ".join(map(repr, file_values)))
            spec = str(prior)
        self.approx(tmp_path, '{"levels": [2, 2], "counts": [3, 0, 1, 7]}', ".json", spec)

    @SETTINGS
    @given(lines=st.lists(st.one_of(
        st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda e: f"{e[0]},{e[1]}"),
        st.lists(st.sampled_from(["0", "1", "3", "-1", "x", "#", ",", " ", "\xff"]), max_size=4).map("".join),
    ), max_size=4))
    def test_reference(self, tmp_path, lines):
        table = write_json_table(tmp_path / "t.json", [2, 2, 2], [9, 1, 2, 6, 3, 5, 4, 8])
        reference = tmp_path / "ref.txt"
        reference.write_bytes("\n".join(lines).encode("latin-1"))
        argv = ["select", "--table", table, "--prior", "1", "--alpha", "0.1", "--marginals", "2",
                "--reference", str(reference), "--out", str(tmp_path / "o.json")]
        assert main(argv) in (0, 2)

    @SETTINGS
    @given(options=bad_select_options())
    def test_select_options_checked_before_any_work(self, monkeypatch, capsys, options):
        """Out-of-range --n-lambda, --lambda-min-ratio or --alpha exit 2 with one
        line naming an offending option, before the table is read."""
        monkeypatch.setattr(cli, "load_table", lambda path: pytest.fail("the table was read"))
        capsys.readouterr()
        argv = ["select", "--table", "t.json", "--prior", "1", "--alpha=0.1"]
        assert main(argv + [f"--{name}={value}" for name, value in options.items()]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --")
        assert lines[0].split()[1] in {f"--{name}" for name in options}

    def test_closed_output_pipe_exit_1(self, tmp_path):
        """A reader that closes stdout early (`| head -c 10`) gets exit 1 and
        one error line, not a BrokenPipeError traceback."""
        table = write_json_table(tmp_path / "t.json", [2] * 6, list(range(64)))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dygauss.cli", "select", "--table", table, "--prior", "1", "--alpha", "0.1"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "error: output pipe closed before all output was written\n"
