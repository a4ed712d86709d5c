#!/usr/bin/env python3
"""Benchmark a change against its parent as alternating pairs of runs.

    python scripts/bench_pairs.py --parent HEAD~1 --pairs 10 \
        --workloads approx-identity,select-marginals --out BENCH_26.json

Each side is a ``git archive`` checkout of one revision (``--parent``, and
``--change``, default HEAD) under ``--work``. For every workload the script
runs ``perfbench/run.py --trace 0`` once per side and pair, at seeds
``--seed``, ``--seed`` + 1, ...; the side that runs first alternates pair by
pair (the parent first at even pair indices). The output JSON holds every
run's metrics line and, per workload and end-to-end metric of
``BENCHMARK.json``, the per-side medians and quartiles and the number of
pairs the change wins. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The metrics line of a perfbench run (its last stdout line), with each
    metric as its bare value."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    metrics = result.get("metrics", {})
    result["metrics"] = {
        name: value["value"] if isinstance(value, dict) else value for name, value in metrics.items()
    }
    return result


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and quartiles over the pairs where both
    sides report it, the pairs the change wins (strictly better in the
    metric's direction), and whether the median gap exceeds the parent's
    interquartile range. `pairs` holds {"parent": result, "change": result}
    with results as `parse_result` returns them."""
    summary = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [
            (pair["parent"]["metrics"][name], pair["change"]["metrics"][name])
            for pair in pairs
            if all(name in pair[side].get("metrics", {}) for side in SIDES)
        ]
        if not both:
            continue
        parent, change = [p for p, _ in both], [c for _, c in both]
        parent_q = _quartiles(parent)
        gap = statistics.median(parent) - statistics.median(change)
        summary[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": parent_q,
            "change_quartiles": _quartiles(change),
            "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in both),
            "pairs": len(both),
            "gap_exceeds_parent_iqr": (gap if lower else -gap) > parent_q[1] - parent_q[0],
        }
    return summary


def checkout(rev: str, dest: Path) -> Path:
    """A fresh ``git archive`` copy of `rev` at `dest`."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    try:
        result = parse_result(done.stdout)
    except ValueError as exc:
        result = {"error": str(exc)}
    if done.returncode != 0:
        result["error"] = f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="revision of the change side")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seed", type=int, default=301, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed seconds per run")
    parser.add_argument("--work", default=str(ROOT / ".bench_build"), help="directory for the checkouts")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    work = Path(args.work)
    trees = {side: checkout(getattr(args, side), work / side) for side in SIDES}
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs, summary = {}, {}
    for workload in args.workloads.split(","):
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_side(trees[side], workload, seed, args.seconds) for side in order}
            pair["ran_first"] = order[0]
            pairs.append(pair)
            runs.setdefault(workload, {})[str(seed)] = pair
            print(workload, seed, {side: pair[side].get("metrics", pair[side].get("error")) for side in order},
                  file=sys.stderr, flush=True)
        summary[workload] = summarize([p for p in pairs if not any("error" in p[s] for s in SIDES)], end_to_end)

    revisions = {
        side: subprocess.run(["git", "rev-parse", getattr(args, side)], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        for side in SIDES
    }
    import numpy

    payload = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0",
        "revisions": revisions,
        "method": "alternating pairs of git-archive checkouts; the side that runs first alternates "
                  "pair by pair (parent first at even pair indices, 'ran_first' records it)",
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cores": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
