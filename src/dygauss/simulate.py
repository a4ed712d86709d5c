"""Seeded simulation studies comparing the closed-form Gaussian posterior
approximation against Monte Carlo and Laplace baselines.

Per replicate: draw a probability vector from a symmetric Dirichlet prior,
draw multinomial counts, form the conjugate posterior, compute each
approximation in the requested parametrizations, and score the four metrics.
The replicates of each (prior, sample size) condition fan out across one
``tableio.map_jobs`` call (a thread pool capped by DYGAUSS_THREADS, with
BLAS on one thread). Each replicate owns its PCG64 stream and results merge
in replicate order, so the metric CSVs are byte-identical for a fixed config
and seed under any DYGAUSS_THREADS, core count and OpenBLAS thread setting.
One pool per condition, not per prior: with one pool over all sample sizes,
a worker starts its next replicate while the other is mid-replicate, and on
2 cores the study's peak RSS rose by about 9% (allocator retention; the
live peak under tracemalloc did not change).
Wall-clock timings are inherently non-reproducible and go to a separate file
that is excluded from the determinism contract.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import _log_gamma_block, derive_seed, laplace_approx, mc_approx, stream_rng
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
from .tableio import MIN_PRIOR, InputError, map_jobs

__all__ = [
    "SimulationConfig",
    "multinomial_sample",
    "run_compare",
    "aggregate_means",
    "CSV_HEADER",
]

CSV_HEADER = "metric,parametrization,N,mc,replicate,value"
# Each replicate expands d x d covariances (d = cells - 1) for the Frobenius
# loss and the Laplace baseline; at 4096 cells one such matrix is 134 MB.
MAX_STUDY_CELLS = 4096
# From about a = 1e27 a replicate's true vector can be constant to the last bit (3 of 200
# four-cell truths at 1e27, all at 1e30, none up to 10^26.5), and its variation is undefined.
MAX_STUDY_PRIOR = 1e25


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
        if math.prod(self.levels) > MAX_STUDY_CELLS:
            raise InputError(f"the study holds at most {MAX_STUDY_CELLS} cells, levels {self.levels} have more")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise InputError("sample sizes must be positive")
        if not self.prior_a:
            raise InputError("config needs at least one prior concentration 'a'")
        for a in self.prior_a:
            if not MIN_PRIOR <= a <= MAX_STUDY_PRIOR:
                raise InputError(f"prior concentration a must lie in [{MIN_PRIOR:g}, {MAX_STUDY_PRIOR:g}], got {a!r}")
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
        # A repeated prior would overwrite its own CSVs, a repeated N or
        # parametrization would write its rows twice, a repeated mc draw twice.
        for key, values in (
            ("N", self.sample_sizes),
            ("a", self.prior_a),
            ("mc", self.mc_sizes),
            ("parametrizations", self.parametrizations),
        ):
            if len(set(values)) < len(values):
                raise InputError(f"config key {key!r} repeats a value: {list(values)}")

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
        known = {"p", "levels", "N", "a", "mc", "replicates", "seed", "parametrizations", "ks_coords",
                 "timing_repeats", "out_dir"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InputError(f"unknown simulation config keys {unknown}")
        if "levels" not in payload and "p" not in payload:
            raise InputError("config needs 'levels' or 'p'")
        if "levels" in payload and "p" in payload:
            raise InputError("config keys 'levels' and 'p' both give the table shape; keep one")

        def as_tuple(key, default, cast):
            value = payload.get(key, default)
            if not isinstance(value, (list, tuple)):
                value = [value]
            return tuple(cast(v) for v in value)

        try:
            if "levels" in payload:
                levels = tuple(int(v) for v in payload["levels"])
            elif int(payload["p"]) > math.log2(MAX_STUDY_CELLS):
                raise InputError(f"the study holds at most {MAX_STUDY_CELLS} cells, p = {payload['p']} has more")
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
    """Multinomial counts over the full probability vector `pi` (all
    categories); deterministic for a fixed generator state."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0) or abs(float(pi.sum()) - 1.0) > 1e-8:
        raise ValueError("pi must be an interior probability vector summing to 1")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return rng.multinomial(n, pi)


def _time_call(fn, repeats: int):
    """Median wall-clock seconds over `repeats` calls, plus the first result.
    A later call's result is dropped before the next call, so at most the
    first result and the one being built are alive."""
    times = []
    for i in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
        if i == 0:
            result = out
        out = None
    return float(np.median(times)), result


@dataclass
class _Condition:
    prior_a: float
    n: int
    cond_seed: int
    config: SimulationConfig
    design: DesignMatrix | None


def _centred_cov(draws: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """np.cov(draws.T) bit for bit, given mean = draws.mean(axis=0), with
    `draws` centred in place instead of in np.cov's copy; the caller's draws
    are spent."""
    draws -= mean
    cov = np.dot(draws.T, draws)
    cov *= np.true_divide(1, draws.shape[0] - 1)
    return cov


def _mc_summary(draws: np.ndarray, gauss, ks_pool) -> list:
    """[mean, intervals, KS statistics at ks_pool] of one (mc, d) buffer,
    read without modifying it; the KS statistics reuse the intervals' sorts."""
    sd = np.sqrt(gauss.variances())
    ks = dict.fromkeys(int(j) for j in ks_pool)

    def on_sorted(j, values):
        if j in ks:
            ks[j] = ks_statistic(values, gauss.mean[j], sd[j])

    intervals = empirical_intervals(draws, on_sorted if ks else None)
    return [draws.mean(axis=0), intervals, list(ks.values())]


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
    ks_pool = rng.choice(d, size=min(cfg.ks_coords, d), replace=False) if cfg.ks_coords else []

    # Each timed call gets its own DirichletParams, which caches psi and psi'.
    time_on, gauss = _time_call(lambda: optimal_gaussian(DirichletParams(beta.beta)), cfg.timing_repeats)
    time_lap, lap = _time_call(lambda: laplace_approx(beta), cfg.timing_repeats)
    views = {}  # parametrization -> (truth, optimal Gaussian, Laplace)
    for par in cfg.parametrizations:
        if par == "identity":
            views[par] = (theta0, gauss, lap)
        else:
            views[par] = (
                to_theta_star(theta0, cond.design),
                transform_gaussian(gauss, cond.design),
                transform_gaussian(lap, cond.design),
            )

    # One draw buffer is alive at a time, except while the corner copy is
    # built and the identity covariance taken. Each buffer keeps the layout
    # the metrics were defined on (np.cov and mean round by layout): identity
    # draws (mc, d) in C order, corner draws (d, mc) in C order viewed as
    # (mc, d). A buffer's covariance is taken last, as it centres in place.
    mc_big = max(cfg.mc_sizes, default=0)
    time_mc, mc_stats = {}, {par: {} for par in views}
    for mc_idx, mc in enumerate(cfg.mc_sizes):
        seed_mc = derive_seed(cond.cond_seed, rep, 1 + mc_idx)
        time_mc[mc], draws = _time_call(lambda: mc_approx(beta, mc, seed_mc), cfg.timing_repeats)
        ks = ks_pool if mc == mc_big else []
        if "identity" in views:
            identity = mc_stats["identity"][mc] = _mc_summary(draws, views["identity"][1], ks)
        corner = to_theta_star(draws.T, cond.design).T if "corner" in views else None
        if "identity" in views:
            identity.append(_centred_cov(draws, identity[0]))
        draws = None
        if corner is not None:
            summary = mc_stats["corner"][mc] = _mc_summary(corner, views["corner"][1], ks)
            summary.append(_centred_cov(corner, summary[0]))
            corner = None

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

    for par, (truth, g_par, lap_par) in views.items():
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

        for mc, (mean, intervals, _, cov) in mc_stats[par].items():
            add("unexplained_variation_mc", unexplained_variation(mean, truth), par, mc)
            add("coverage_mc", coverage(intervals, truth), par, mc)
            add("frobenius_loss_mc", frobenius_loss(cov, sigma_ref), par, mc)
            add("time_mc", time_mc[mc], par, mc)

        if cfg.mc_sizes and len(ks_pool):
            for value in mc_stats[par][mc_big][2]:
                add("ks_mc", value, par, mc_big)
    return rows


def run_compare(config: SimulationConfig, out_dir=None) -> list[MetricReport]:
    """Run the full study and write per-prior metric and timing CSVs."""
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
            results = map_jobs(lambda r: _replicate_rows(cond, r), range(config.replicates))
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
