"""The example scripts run end to end against the current library API."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name, args, expected",
    [
        ("selection_demo.py", [], "interaction terms"),
        (
            "reproduce_tables.py",
            ["--p", "3", "--sample-sizes", "50", "--replicates", "2", "--mc", "200", "--out-dir", "out"],
            "KS statistics",
        ),
    ],
    ids=["selection_demo", "reproduce_tables"],
)
def test_script_runs(tmp_path, name, args, expected):
    proc = run_script(name, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsSummary:
    """scripts/bench_pairs.py's summary of alternating parent/change runs,
    on synthetic perfbench result lines."""

    END_TO_END = [{"name": "op_p50_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]

    @staticmethod
    def line(op_p50_s, ops_per_s):
        metrics = {"op_p50_s": {"value": op_p50_s, "unit": "s"}, "ops_per_s": {"value": ops_per_s, "unit": "1/s"}}
        return "details line\n" + json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": metrics})

    def test_parse_result_reads_the_last_line(self):
        bench = load_script("bench_pairs")
        result = bench.parse_result(self.line(0.5, 2.0) + "\n")
        assert result["metrics"] == {"op_p50_s": 0.5, "ops_per_s": 2.0} and result["attempted"] == 5
        with pytest.raises(ValueError):
            bench.parse_result("")

    def test_medians_quartiles_and_wins(self):
        bench = load_script("bench_pairs")
        parent = [(10.0, 1.0), (11.0, 1.1), (12.0, 1.2), (13.0, 1.3), (14.0, 1.4)]
        change = [(8.0, 1.5), (9.0, 1.0), (13.0, 1.6), (10.0, 1.7), (11.0, 1.8)]
        pairs = [
            {"parent": bench.parse_result(self.line(*p)), "change": bench.parse_result(self.line(*c))}
            for p, c in zip(parent, change)
        ]
        summary = bench.summarize(pairs, self.END_TO_END)
        op = summary["op_p50_s"]
        assert op["parent_median"] == 12.0 and op["change_median"] == 10.0
        assert op["parent_quartiles"] == [11.0, 13.0] and op["change_quartiles"] == [9.0, 11.0]
        assert op["change_better_pairs"] == 4 and op["pairs"] == 5
        assert op["gap_exceeds_parent_iqr"] is False  # 2.0 is not more than 13 - 11
        rate = summary["ops_per_s"]
        assert rate["change_better_pairs"] == 4 and rate["change_median"] == 1.6
        assert rate["gap_exceeds_parent_iqr"] is True  # 0.4 > 1.3 - 1.1

    def test_metric_missing_on_one_side_is_left_out(self):
        bench = load_script("bench_pairs")
        partial = {"metrics": {"op_p50_s": 1.0}}
        pairs = [{"parent": partial, "change": bench.parse_result(self.line(0.5, 3.0))}]
        summary = bench.summarize(pairs, self.END_TO_END)
        assert list(summary) == ["op_p50_s"]
        assert summary["op_p50_s"]["parent_quartiles"] == [1.0, 1.0]
