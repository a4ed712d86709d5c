"""The example scripts run end to end against the current library API."""

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
