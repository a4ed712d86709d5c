import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dygauss.cli import main
from dygauss.parametrization import TableSchema, canonical_cell_order
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
