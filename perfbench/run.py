#!/usr/bin/env python3
"""Benchmark of the dygauss command line, run from the repository root:

    python3 perfbench/run.py --workload approx-identity --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: each op
is one in-process ``dygauss.cli.main(argv)`` call, issued when the previous
one has returned. Inputs are generated from ``--seed`` before timing starts.
Each op's output is compared byte for byte with the first output its input
gave, and those reference outputs go through the oracles in ``workloads.py``
after the timed phase.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` alternates traced and untraced ops and reports the per-layer
metrics of the traced ones (see ``tracing.py``) plus ``trace_overhead``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the details behind the metrics. Exit code 0 on a completed run, 1 when the
sources are missing or an expected layer recorded no span, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dygauss.cli; "
    "print(repr(time.perf_counter() - t))"
)
ONE_OP = "import sys; from dygauss.cli import main; sys.exit(main(sys.argv[1:]))"
RSS_INPUTS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def measure_setup(env: dict) -> list[float]:
    """Seconds to import dygauss.cli in fresh interpreters; one unrecorded
    import first so byte-code compilation is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def one_op_peak_rss_mb(env: dict, argv: list[str], timeout: float = 60.0) -> float:
    """Peak RSS of a fresh process that imports dygauss.cli and runs one op,
    as a CLI user's invocation does. Raises RuntimeError if the op fails."""
    proc = subprocess.Popen([sys.executable, "-c", ONE_OP, *argv], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"one-op process exited with {proc.returncode}: {' '.join(argv)}")
    return usage.ru_maxrss / 1024.0


def openblas_threads():
    """OpenBLAS thread count from the library numpy links, or None."""
    import ctypes

    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dygauss").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the repository the benchmark sits in, or None outside one."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 ops beyond it:
    (value, percentile, ops beyond). With 10 ops or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def run_op(cli, inp) -> tuple[float, bool, list[bytes]]:
    """One CLI invocation; (latency, exited 0, output bytes)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            code = cli.main(inp.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises counts as failed; the loop goes on
        print(f"op raised {type(exc).__name__}: {exc}", file=sys.stderr)
        code = -1
    latency = time.perf_counter() - start
    outputs = []
    for path in inp.outputs:
        try:
            outputs.append(path.read_bytes())
        except OSError:
            outputs.append(b"")
    return latency, code == 0, outputs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dygauss" / "cli.py").is_file():
        print(f"perfbench: no dygauss sources under {SRC}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]()
    threads = nproc()
    os.environ["DYGAUSS_THREADS"] = str(threads)
    env = dict(os.environ, PYTHONPATH=str(SRC))

    setup_samples = measure_setup(env)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workload, work, threads, setup_samples, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run(args, workload, work: Path, threads: int, setup_samples: list[float], env: dict) -> int:
    import numpy

    inputs = workload.generate(args.seed, _fresh(work / "inputs"))
    again = workload.generate(args.seed, _fresh(work / "inputs-again"))
    for a, b in zip(inputs, again):
        for x, y in zip(a.argv, b.argv):
            if x.startswith(str(work)) and Path(x).is_file() and Path(x).read_bytes() != Path(y).read_bytes():
                raise RuntimeError(f"input generation is not deterministic: {x}")
    shutil.rmtree(work / "inputs-again")

    rss_samples, rss_errors = [], []
    if not args.trace:
        for inp in inputs[:RSS_INPUTS]:
            try:
                rss_samples.append(one_op_peak_rss_mb(env, inp.argv))
            except RuntimeError as exc:
                rss_errors.append(str(exc))

    sys.path.insert(0, str(SRC))
    import dygauss.cli as cli

    run_op(cli, inputs[0])  # warm-up: lazy imports and first-call set-up

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    # The first output of each input is its reference: every later op on the
    # same input must reproduce it byte for byte, and the oracle checks it.
    references: dict[int, list[bytes]] = {}
    ref_hash: dict[int, str] = {}
    latencies: list[float] = []
    traced_lat: list[float] = []
    plain_lat: list[float] = []
    per_input_ok = [0] * len(inputs)
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        op = attempted
        k = (op // 2) % len(inputs) if tracer else op % len(inputs)
        traced = tracer is not None and op % 2 == 1
        if traced:
            tracer.begin_op(op)
            tracer.install()
        try:
            latency, ok, outputs = run_op(cli, inputs[k])
        finally:
            if traced:
                tracer.uninstall()
        attempted += 1
        if ok and k not in references:
            references[k], ref_hash[k] = outputs, _digest(outputs)
        if ok and _digest(outputs) == ref_hash[k]:
            latencies.append(latency)
            (traced_lat if traced else plain_lat).append(latency)
            per_input_ok[k] += 1
        else:
            failed += 1
    wall = time.perf_counter() - start
    loop_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    oracle_errors = list(rss_errors)
    for k, outputs in references.items():
        errors = workload.check(inputs[k], outputs)
        if errors:
            oracle_errors.extend(errors)
            failed += per_input_ok[k]
            per_input_ok[k] = 0
    ok_ops = sum(per_input_ok)
    correct = not oracle_errors and failed == 0 and ok_ops > 0

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": threads,
        "DYGAUSS_THREADS": os.environ["DYGAUSS_THREADS"],
        "openblas_threads": openblas_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "timed_s": wall,
        "ops_ok": ok_ops,
        "inputs": len(inputs),
        "setup_samples_s": setup_samples,
        "one_op_rss_mb": rss_samples,
        "loop_peak_rss_mb": loop_rss_mb,
        "oracle_errors": oracle_errors,
    }

    if tracer is None:
        value, pct, beyond = tail(latencies) if latencies else (0.0, 0.0, 0)
        details.update(op_tail_percentile=pct, op_tail_ops_beyond=beyond, op_count=len(latencies))
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (ok_ops / wall, "1/s"),
            "op_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
            "op_tail_s": (value, "s"),
            "peak_rss_mb": (max(rss_samples, default=0.0), "MB"),
            "ok_ratio": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
        }
    else:
        from tracing import MissingLayerError

        traced_ops = len(traced_lat)
        try:
            layer = tracer.layer_metrics(traced_ops, workload.expected_layers)
        except MissingLayerError as exc:
            print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
            return 1
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}.spans.npz")
        layer["trace_overhead"] = (
            statistics.fmean(plain_lat) / statistics.fmean(traced_lat)
            if traced_lat and plain_lat else 0.0
        )
        details.update(traced_ops=traced_ops, untraced_ops=len(plain_lat),
                       spans=OUT.name + f"/{args.workload}.spans.npz")
        units = {"calls": "count", "self_s": "s", "design_bytes": "B_computed",
                 "dense_cov_bytes": "B_computed", "draws": "count_computed",
                 "draws_per_s": "1/s_computed", "path_points": "count",
                 "certified_ratio": "ratio", "concurrency": "ratio", "trace_overhead": "ratio"}
        metrics = {name: (value, units[name.rsplit(".", 1)[-1]]) for name, value in layer.items()}

    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _digest(outputs: list[bytes]) -> str:
    digest = hashlib.sha256()
    for blob in outputs:
        digest.update(hashlib.sha256(blob).digest())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
