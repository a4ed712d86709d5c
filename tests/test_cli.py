import json

import numpy as np
import pytest

from dygauss.cli import main
from dygauss.specfun import digamma, trigamma


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
        assert payload["cov"]["type"] == "dense"

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

    def test_nonpositive_prior_exit_2(self, tmp_path):
        table = write_json_table(tmp_path / "t.json", [2], [3, 1])
        assert main(["approx", "--table", table, "--prior", "-2"]) == 2


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
        ]:
            config.write_text(text)
            assert main(["compare", "--config", str(config)]) == 2, text


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
