"""Seeded simulation studies comparing the closed-form Gaussian posterior
approximation against Monte Carlo and Laplace baselines.

Per replicate: draw a probability vector from a symmetric Dirichlet prior,
draw multinomial counts, form the conjugate posterior, compute each
approximation in the requested parametrizations, and score the four metrics.
Replicates fan out across a thread pool (capped by DYGAUSS_THREADS); each
replicate owns its PCG64 stream and results merge in replicate order, so
outputs are byte-identical for a fixed config and seed regardless of
scheduling. Wall-clock timings are inherently non-reproducible and go to a
separate file that is excluded from the determinism contract.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import NewtonError, _log_gamma_block, derive_seed, laplace_approx, mc_approx, stream_rng
from .metrics import (
    MetricReport,
    coverage,
    empirical_intervals,
    frobenius_loss,
    gaussian_intervals,
    ks_statistic,
    unexplained_variation,
)
from .parametrization import DesignMatrix, TableSchema, corner_design, to_theta_star
from .posterior import DirichletParams, optimal_gaussian, transform_gaussian
from .tableio import InputError, worker_count

__all__ = [
    "SimulationConfig",
    "multinomial_sample",
    "run_compare",
    "aggregate_means",
    "CSV_HEADER",
]

CSV_HEADER = "metric,parametrization,N,mc,replicate,value"


@dataclass(frozen=True)
class SimulationConfig:
    levels: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    prior_a: tuple[float, ...] = (1.0,)
    mc_sizes: tuple[int, ...] = ()
    replicates: int = 100
    seed: int = 20240
    parametrizations: tuple[str, ...] = ("identity", "corner")
    ks_coords: int = 20
    timing_repeats: int = 5
    out_dir: str = "compare_out"

    def __post_init__(self):
        if any(v < 2 for v in self.levels) or not self.levels:
            raise InputError(f"invalid schema levels {self.levels}")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise InputError("sample sizes must be positive")
        if not self.prior_a or any(a <= 0 for a in self.prior_a):
            raise InputError("prior concentrations must be positive")
        if any(m < 1 for m in self.mc_sizes):
            raise InputError("mc sizes must be positive")
        if self.replicates < 1:
            raise InputError("replicates must be >= 1")
        if self.ks_coords < 0:
            raise InputError("ks_coords must be >= 0")
        if self.timing_repeats < 1:
            raise InputError("timing_repeats must be >= 1")
        unknown = set(self.parametrizations) - {"identity", "corner"}
        if unknown:
            raise InputError(f"unknown parametrizations {sorted(unknown)}")

    @property
    def schema(self) -> TableSchema:
        return TableSchema(self.levels)

    @classmethod
    def from_json(cls, path) -> "SimulationConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read simulation config {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise InputError(f"simulation config {path} must be a JSON object")
        if "levels" not in payload and "p" not in payload:
            raise InputError("config needs 'levels' or 'p'")

        def as_tuple(key, default, cast):
            value = payload.get(key, default)
            if not isinstance(value, (list, tuple)):
                value = [value]
            return tuple(cast(v) for v in value)

        try:
            if "levels" in payload:
                levels = tuple(int(v) for v in payload["levels"])
            else:
                levels = (2,) * int(payload["p"])
            return cls(
                levels=levels,
                sample_sizes=as_tuple("N", None, int),
                prior_a=as_tuple("a", [1.0], float),
                mc_sizes=as_tuple("mc", [], int),
                replicates=int(payload.get("replicates", 100)),
                seed=int(payload.get("seed", 20240)),
                parametrizations=as_tuple("parametrizations", ["identity", "corner"], str),
                ks_coords=int(payload.get("ks_coords", 20)),
                timing_repeats=int(payload.get("timing_repeats", 5)),
                out_dir=str(payload.get("out_dir", "compare_out")),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"invalid simulation config {path}: {exc}") from exc


def multinomial_sample(n: int, pi, rng: np.random.Generator) -> np.ndarray:
    """Multinomial counts by sequential binomial conditioning.

    `pi` is the full probability vector (all categories). Deterministic for
    a fixed generator state; consumes one binomial variate per category but
    the last.
    """
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0) or abs(float(pi.sum()) - 1.0) > 1e-8:
        raise ValueError("pi must be an interior probability vector summing to 1")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    k = pi.size
    counts = np.zeros(k, dtype=np.int64)
    remaining = int(n)
    denom = 1.0
    for j in range(k - 1):
        if remaining == 0:
            break
        p = min(max(pi[j] / denom, 0.0), 1.0)
        counts[j] = rng.binomial(remaining, p)
        remaining -= counts[j]
        denom = max(denom - pi[j], 1e-300)
    counts[k - 1] += remaining
    return counts


def _time_call(fn, repeats: int):
    """Median wall-clock seconds over `repeats` calls, plus the first result."""
    result = None
    times = []
    for i in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
        if i == 0:
            result = out
    return float(np.median(times)), result


@dataclass
class _Condition:
    prior_a: float
    n: int
    cond_seed: int
    config: SimulationConfig
    design: DesignMatrix | None


def _replicate_rows(cond: _Condition, rep: int) -> list[MetricReport]:
    cfg = cond.config
    schema = cfg.schema
    d = schema.d
    rng = stream_rng(cond.cond_seed, rep)

    # Truth: pi from the symmetric Dirichlet, theta0 in log scale so tiny
    # cells under a = 1/d cannot underflow the log ratios.
    alpha_full = np.full(d + 1, cond.prior_a)
    log_g = _log_gamma_block(rng, alpha_full, 1)[0]
    theta0 = log_g[1:] - log_g[0]
    shifted = np.exp(log_g - log_g.max())
    pi_full = shifted / shifted.sum()
    pi_full = np.maximum(pi_full, 1e-300)
    pi_full /= pi_full.sum()
    y = multinomial_sample(cond.n, pi_full, rng)
    beta = DirichletParams(alpha_full + y)

    time_on, gauss = _time_call(lambda: optimal_gaussian(beta), cfg.timing_repeats)
    try:
        time_lap, lap = _time_call(lambda: laplace_approx(beta), cfg.timing_repeats)
    except NewtonError as exc:
        raise RuntimeError(f"Laplace baseline failed at replicate {rep}: {exc}") from exc
    mc_results = {}
    for mc_idx, mc in enumerate(cfg.mc_sizes):
        seed_mc = derive_seed(cond.cond_seed, rep, 1 + mc_idx)
        time_mc, batch = _time_call(lambda: mc_approx(beta, mc, seed_mc), cfg.timing_repeats)
        mc_results[mc] = (time_mc, batch)

    ks_pool = rng.choice(d, size=min(cfg.ks_coords, d), replace=False) if cfg.ks_coords else []

    rows: list[MetricReport] = []

    def add(metric, value, parametrization, mc=0):
        rows.append(
            MetricReport(
                metric=metric,
                value=float(value),
                parametrization=parametrization,
                sample_size=cond.n,
                mc=mc,
                replicate=rep,
            )
        )

    for par in cfg.parametrizations:
        if par == "identity":
            truth = theta0
            g_par, lap_par = gauss, lap
            mc_draws = {mc: batch.draws for mc, (_, batch) in mc_results.items()}
        else:
            truth = to_theta_star(theta0, cond.design)
            g_par = transform_gaussian(gauss, cond.design, "to_theta_star")
            lap_par = transform_gaussian(lap, cond.design, "to_theta_star")
            mc_draws = {
                mc: to_theta_star(batch.draws.T, cond.design).T
                for mc, (_, batch) in mc_results.items()
            }
        sigma_ref = g_par.cov_dense()

        add("unexplained_variation_on", unexplained_variation(g_par.mean, truth), par)
        add("coverage_on", coverage(gaussian_intervals(g_par.mean, g_par.variances()), truth), par)
        add("time_on", time_on, par)

        add("unexplained_variation_laplace", unexplained_variation(lap_par.mean, truth), par)
        add(
            "coverage_laplace",
            coverage(gaussian_intervals(lap_par.mean, lap_par.variances()), truth),
            par,
        )
        add("frobenius_loss_laplace", frobenius_loss(lap_par.cov_dense(), sigma_ref), par)
        add("time_laplace", time_lap, par)

        for mc, (time_mc, _) in mc_results.items():
            draws = mc_draws[mc]
            add("unexplained_variation_mc", unexplained_variation(draws.mean(axis=0), truth), par, mc)
            add("coverage_mc", coverage(empirical_intervals(draws), truth), par, mc)
            add("frobenius_loss_mc", frobenius_loss(np.cov(draws.T), sigma_ref), par, mc)
            add("time_mc", time_mc, par, mc)

        if cfg.mc_sizes and len(ks_pool):
            mc_big = max(cfg.mc_sizes)
            draws = mc_draws[mc_big]
            sd = np.sqrt(g_par.variances())
            for j in ks_pool:
                add("ks_mc", ks_statistic(draws[:, j], g_par.mean[j], sd[j]), par, mc_big)
    return rows


def run_compare(config: SimulationConfig, out_dir=None) -> list[MetricReport]:
    """Run the full study and write per-prior metric and timing CSVs."""
    workers = worker_count(config.replicates)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    needs_corner = "corner" in config.parametrizations
    design = corner_design(config.schema) if needs_corner else None

    all_rows: list[MetricReport] = []
    for a_idx, a in enumerate(config.prior_a):
        per_prior: list[MetricReport] = []
        for n_idx, n in enumerate(config.sample_sizes):
            cond_seed = derive_seed(config.seed, a_idx, n_idx)
            cond = _Condition(a, n, cond_seed, config, design)
            if workers == 1:
                results = [_replicate_rows(cond, r) for r in range(config.replicates)]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(lambda r: _replicate_rows(cond, r), range(config.replicates)))
            for rows in results:  # merged in replicate order: deterministic
                per_prior.extend(rows)
        _write_csvs(out, a, per_prior)
        all_rows.extend(per_prior)
    return all_rows


def _format_a(a: float) -> str:
    text = repr(float(a)).replace(".", "p").replace("-", "m")
    return text


def _write_csvs(out: Path, a: float, rows: list[MetricReport]) -> None:
    tag = _format_a(a)
    metric_lines = [CSV_HEADER]
    timing_lines = [CSV_HEADER]
    for row in rows:
        line = ",".join(str(v) for v in row.as_row())
        (timing_lines if row.metric.startswith("time_") else metric_lines).append(line)
    (out / f"metrics_a{tag}.csv").write_text("\n".join(metric_lines) + "\n")
    (out / f"timings_a{tag}.csv").write_text("\n".join(timing_lines) + "\n")


def aggregate_means(rows: list[MetricReport]) -> dict:
    """Mean value per (metric, parametrization, N, mc) across replicates."""
    sums: dict[tuple, list[float]] = {}
    for row in rows:
        key = (row.metric, row.parametrization, row.sample_size, row.mc)
        sums.setdefault(key, []).append(row.value)
    return {key: float(np.mean(values)) for key, values in sums.items()}
