"""Tests of the benchmark's own machinery, on inputs small enough to run in
seconds:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dygauss.cli as cli  # noqa: E402
from run import run_op, tail  # noqa: E402
from tracing import MissingLayerError, Tracer, kkt_residuals  # noqa: E402
from workloads import ApproxIdentity, CompareStudy, SelectMarginals  # noqa: E402


def _traced(tracer: Tracer, inp, op: int = 0):
    tracer.begin_op(op)
    tracer.install()
    try:
        return run_op(cli, inp)
    finally:
        tracer.uninstall()


def test_generation_repeats_for_a_seed(tmp_path):
    for i, workload in enumerate((ApproxIdentity(p=5), SelectMarginals(tables=2), CompareStudy(p=3))):
        first_dir, second_dir = tmp_path / f"{i}a", tmp_path / f"{i}b"
        first_dir.mkdir()
        second_dir.mkdir()
        first = workload.generate(7, first_dir)
        second = workload.generate(7, second_dir)
        files = 0
        for x, y in zip(first, second):
            for path_x, path_y in zip(x.argv, y.argv):
                if Path(path_x).is_file():
                    assert Path(path_x).read_bytes() == Path(path_y).read_bytes()
                    files += 1
        assert files >= len(first)


def test_approx_oracle_accepts_output_and_rejects_a_perturbed_mean(tmp_path):
    workload = ApproxIdentity(p=5)
    for inp in workload.generate(3, tmp_path):
        _, ok, outputs = run_op(cli, inp)
        assert ok
        assert workload.check(inp, outputs) == []
        payload = json.loads(outputs[0])
        j = max(range(len(payload["mean"])), key=lambda i: abs(payload["mean"][i]))
        payload["mean"][j] *= 1.0 + 1e-8
        assert workload.check(inp, [json.dumps(payload).encode()])


def test_select_oracle_rejects_a_model_outside_the_region(tmp_path):
    workload = SelectMarginals(tables=1)
    (inp,) = workload.generate(3, tmp_path)
    _, ok, outputs = run_op(cli, inp)
    assert ok
    assert workload.check(inp, outputs) == []
    payload = json.loads(outputs[0])
    payload["tables"][0]["coefficients"] = [0.0] * 7
    assert workload.check(inp, [json.dumps(payload).encode()])


def test_traced_op_reports_expected_layers_and_fails_loudly_on_a_missing_one(tmp_path):
    workload = ApproxIdentity(p=5)
    inputs = workload.generate(1, tmp_path)
    tracer = Tracer()
    _, ok, _ = _traced(tracer, inputs[0])
    assert ok
    metrics = tracer.layer_metrics(1, workload.expected_layers)
    for layer in workload.expected_layers:
        assert metrics[f"{layer}.calls"] > 0
    assert metrics["selection.calls"] == 0 and metrics["baselines.calls"] == 0
    assert metrics["parametrization.design_bytes"] == 31 * 31
    assert metrics["cli.concurrency"] == pytest.approx(1.0)
    with pytest.raises(MissingLayerError, match="selection"):
        tracer.layer_metrics(1, workload.expected_layers + ("selection",))


def test_uninstall_restores_every_binding():
    import dygauss.posterior as posterior
    import dygauss.specfun as specfun

    before = (posterior.digamma, specfun.digamma, cli.lasso_path, cli.main)
    tracer = Tracer()
    tracer.install()
    assert posterior.digamma is not before[0] and posterior.digamma is specfun.digamma
    tracer.uninstall()
    assert (posterior.digamma, specfun.digamma, cli.lasso_path, cli.main) == before


def test_pool_spans_attach_to_the_client_span_and_self_time_uses_the_union():
    import dygauss.specfun as specfun

    tracer = Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        barrier = threading.Barrier(2)

        def job(z):
            barrier.wait(timeout=10)
            return specfun.digamma(z)

        def client():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(job, (1.0, 2.0)))

        tracer._wrap(client, "cli")()
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    root = int(spans["parent"].argmin())
    assert spans["parent"][root] == -1
    kids = spans["parent"] == root
    assert kids.sum() == 2 and set(spans["thread"][kids]) != {spans["thread"][root]}
    self_s = tracer.self_times(spans)
    dur = spans["end"] - spans["start"]
    assert self_s[root] >= dur[root] - dur[kids].sum() - 1e-12
    assert self_s[root] <= dur[root]


def test_kkt_residuals_flag_a_wrong_path_point():
    import numpy as np

    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    theta_hat = np.array([1.0, -0.5])
    precision = np.linalg.inv(sigma)
    lam_max = float(np.abs(2.0 * precision @ theta_hat).max())
    good = kkt_residuals(theta_hat, sigma, np.array([lam_max]), np.zeros((1, 2)))
    bad = kkt_residuals(theta_hat, sigma, np.array([lam_max / 2]), np.zeros((1, 2)))
    assert good[0] <= 1e-12 and bad[0] > 0.1


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    values = [float(i) for i in range(1, 101)]
    assert tail(values) == (90.0, 90.0, 10)
    assert tail(values[:5]) == (5.0, 100.0, 0)
