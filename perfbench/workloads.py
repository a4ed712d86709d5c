"""Workloads: seeded input generation, the CLI argv of each op, and the
output oracles.

Every input is a file generated from the benchmark seed; the program sees
only those files. One op is one ``dygauss`` CLI invocation. Each workload has
a few distinct inputs and the ops cycle through them, so every output can be
compared byte for byte with the output the same input gave before.

Oracles (run on each input's reference output, after the timed phase):

- approx: mean and variances against ``scipy.special.digamma`` and
  ``polygamma(1, .)`` to 1e-10 relative error; ``exact_min_kl`` finite and in
  [0, kl_bound] whenever the bound is valid. Concentrations of 1e8 or more
  are not generated and not covered: the KL cancellation there belongs to the
  repository's own tests.
- select: the corner Gaussian is recomputed independently (subset-lattice
  design, dense solves); every chosen coefficient vector must have
  delta <= delta_max, and the confusion counts must sum to the size of the
  edge universe.
- compare: ``metrics_*.csv`` has the expected number of rows and is byte
  identical whenever the same config and seed run again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np


@dataclass
class Input:
    """One distinct op: its argv, the files whose bytes are its output, and
    what the oracle needs to know about it."""

    name: str
    argv: list[str]
    outputs: list[Path]
    meta: dict = field(default_factory=dict)


def _cells(p: int) -> np.ndarray:
    """Binary cells in canonical order (last variable fastest), one row each."""
    return np.indices((2,) * p).reshape(p, -1).T


def loglinear_probs(p: int, rng, main_sd: float, edges, strength: float) -> np.ndarray:
    """Cell probabilities of a binary log-linear model with random main
    effects and the given pairwise interactions."""
    cells = _cells(p)
    logit = cells @ rng.normal(0.0, main_sd, p)
    for u, v in edges:
        logit = logit + strength * cells[:, u] * cells[:, v]
    w = np.exp(logit - logit.max())
    return w / w.sum()


def _write_csv_table(path: Path, p: int, counts: np.ndarray) -> None:
    lines = [",".join(f"i_{v + 1}" for v in range(p)) + ",count"]
    for cell, count in zip(_cells(p), counts):
        lines.append(",".join(str(int(x)) for x in cell) + f",{int(count)}")
    path.write_text("\n".join(lines) + "\n")


def _write_json_table(path: Path, p: int, counts: np.ndarray) -> None:
    path.write_text(json.dumps({"levels": [2] * p, "counts": [int(c) for c in counts]}))


class Workload:
    name = ""
    expected_layers: tuple[str, ...] = ()

    def generate(self, seed: int, root: Path) -> list[Input]:
        raise NotImplementedError

    def check(self, inp: Input, outputs: list[bytes]) -> list[str]:
        """Oracle errors for one input's output; empty when correct."""
        raise NotImplementedError


class ApproxIdentity(Workload):
    name = "approx-identity"
    expected_layers = ("tableio", "parametrization", "specfun", "posterior", "metrics", "cli")

    dense_per_cell = 20
    sparse_zero_share = 0.8

    def __init__(self, p: int = 12):
        self.p = p

    def generate(self, seed: int, root: Path) -> list[Input]:
        rng = np.random.default_rng([seed, 1])
        p, n_cells = self.p, 2**self.p
        pairs = list(combinations(range(p), 2))
        picked = [pairs[i] for i in rng.choice(len(pairs), size=p, replace=False)]

        dense_pi = loglinear_probs(p, rng, 0.3, picked, 0.4)
        dense = rng.multinomial(self.dense_per_cell * n_cells, dense_pi)

        # Skewed model; the sample size makes about sparse_zero_share of the
        # cells empty in expectation (Poisson approximation, by bisection).
        sparse_pi = loglinear_probs(p, rng, 1.5, picked, 1.0)
        lo, hi = 1.0, 1e9
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if np.exp(-mid * sparse_pi).mean() > self.sparse_zero_share:
                lo = mid
            else:
                hi = mid
        sparse = rng.multinomial(int(lo), sparse_pi)

        inputs = []
        for tag, counts, prior in (("dense", dense, "1"), ("sparse", sparse, "1e-4")):
            table = root / f"approx_{tag}.csv"
            _write_csv_table(table, p, counts)
            out = root / f"approx_{tag}.out.json"
            argv = ["approx", "--table", str(table), "--prior", prior,
                    "--parametrization", "identity", "--out", str(out)]
            inputs.append(Input(tag, argv, [out], {"counts": counts, "prior": float(prior)}))
        return inputs

    def check(self, inp: Input, outputs: list[bytes]) -> list[str]:
        from scipy.special import digamma, polygamma

        payload = json.loads(outputs[0])
        b = inp.meta["counts"] + inp.meta["prior"]
        errors = []
        psi = digamma(b)
        mean_ref = psi[1:] - psi[0]
        scale = np.maximum(np.abs(mean_ref), np.abs(psi[1:]) + abs(psi[0]))
        mean = np.asarray(payload["mean"])
        if mean.shape != mean_ref.shape or np.any(np.abs(mean - mean_ref) > 1e-10 * scale):
            errors.append(f"{inp.name}: mean differs from digamma differences")
        cov = payload["cov"]
        diag_ref, common_ref = polygamma(1, b[1:]), float(polygamma(1, b[0]))
        diag = np.asarray(cov.get("diag", []))
        if cov.get("type") != "cs" or diag.shape != diag_ref.shape:
            errors.append(f"{inp.name}: covariance is not compound symmetric of size d")
        else:
            variances, variances_ref = diag + cov["common"], diag_ref + common_ref
            if (np.any(np.abs(diag - diag_ref) > 1e-10 * diag_ref)
                    or abs(cov["common"] - common_ref) > 1e-10 * common_ref
                    or np.any(np.abs(variances - variances_ref) > 1e-10 * variances_ref)):
                errors.append(f"{inp.name}: variances differ from trigamma")
        kl, bound = payload["exact_min_kl"], payload["kl_bound"]
        bound_ref = 0.5 * float((1.0 / b).sum()) + 1.0 / (6.0 * float(b.sum()))
        if bool(bound["valid"]) != bool(np.all(b > 0.5)):
            errors.append(f"{inp.name}: kl_bound validity flag is wrong")
        if abs(bound["value"] - bound_ref) > 1e-10 * bound_ref:
            errors.append(f"{inp.name}: kl_bound value differs")
        if not math.isfinite(kl):
            errors.append(f"{inp.name}: exact_min_kl is not finite")
        elif bound["valid"] and not (0.0 <= kl <= bound["value"]):
            errors.append(f"{inp.name}: exact_min_kl {kl} outside [0, {bound['value']}]")
        return errors


CHAIN = ((0, 1), (1, 2), (2, 3))


class SelectMarginals(Workload):
    name = "select-marginals"
    expected_layers = ("tableio", "parametrization", "specfun", "posterior", "selection", "cli")

    p, k, n, n_lambda = 4, 3, 100_000, 20

    def __init__(self, tables: int = 48):
        self.tables = tables

    def generate(self, seed: int, root: Path) -> list[Input]:
        # The planted model is fixed; the seed draws the tables from it, so
        # the lasso's work varies with sampling noise only.
        pi = loglinear_probs(self.p, np.random.default_rng(0), 0.3, CHAIN, 0.5)
        rng = np.random.default_rng([seed, 2])
        reference = root / "chain.txt"
        reference.write_text("".join(f"{u},{v}\n" for u, v in CHAIN))
        inputs = []
        for t in range(self.tables):
            counts = rng.multinomial(self.n, pi)
            table = root / f"select_{t}.json"
            _write_json_table(table, self.p, counts)
            out = root / f"select_{t}.out.json"
            argv = ["select", "--table", str(table), "--prior", "1", "--alpha", "0.1",
                    "--marginals", str(self.k), "--reference", str(reference),
                    "--n-lambda", str(self.n_lambda), "--out", str(out)]
            inputs.append(Input(f"table{t}", argv, [out], {"counts": counts}))
        return inputs

    def check(self, inp: Input, outputs: list[bytes]) -> list[str]:
        from scipy.special import polygamma, digamma
        from scipy.stats import chi2

        payload = json.loads(outputs[0])
        cube = inp.meta["counts"].reshape((2,) * self.p)
        errors = []
        subsets = list(combinations(range(self.p), self.k))
        tables = payload.get("tables", [])
        if [tuple(t["variables"]) for t in tables] != subsets:
            return [f"{inp.name}: marginal tables do not cover every {self.k}-subset"]
        d = 2**self.k - 1
        cells = np.arange(1, d + 1)
        # Corner design: cell i sums the terms of every subset u of its active bits.
        x = ((cells[:, None] & cells[None, :]) == cells[None, :]).astype(float)
        for entry in tables:
            keep = entry["variables"]
            drop = tuple(v for v in range(self.p) if v not in keep)
            b = cube.sum(axis=drop).reshape(-1) + 1.0
            psi = digamma(b)
            sigma = np.diag(polygamma(1, b[1:])) + float(polygamma(1, b[0]))
            mean = np.linalg.solve(x, psi[1:] - psi[0])
            cov = np.linalg.solve(x, np.linalg.solve(x, sigma).T)
            delta_max = float(chi2.ppf(1.0 - entry["alpha"], d - 1))
            if abs(entry["delta_max"] - delta_max) > 1e-8 * delta_max:
                errors.append(f"{inp.name} {keep}: delta_max {entry['delta_max']} != {delta_max}")
            diff = mean - np.asarray(entry["coefficients"])
            delta = float(diff @ np.linalg.solve(cov, diff))
            if delta > delta_max * (1.0 + 1e-9):
                errors.append(f"{inp.name} {keep}: chosen model lies outside the region ({delta} > {delta_max})")
            if abs(delta - entry["delta"]) > 1e-6 * max(1.0, delta_max):
                errors.append(f"{inp.name} {keep}: reported delta {entry['delta']} != {delta}")
        confusion = payload.get("confusion", {})
        universe = len(subsets) * math.comb(self.k, 2)
        if sum(confusion.get(key, 0) for key in ("tp", "fp", "tn", "fn")) != universe:
            errors.append(f"{inp.name}: confusion counts do not sum to {universe}")
        return errors


class CompareStudy(Workload):
    name = "compare-study"
    expected_layers = ("parametrization", "specfun", "posterior", "baselines", "metrics", "simulate", "cli")

    sizes, mc, replicates, ks_coords, configs = (250, 10000), (2000,), 2, 20, 2

    def __init__(self, p: int = 8):
        self.p = p

    def expected_rows(self) -> int:
        d = 2**self.p - 1
        per_par = 2 + 3 + 3 * len(self.mc) + (min(self.ks_coords, d) if self.mc else 0)
        return len(self.sizes) * self.replicates * 2 * per_par

    def generate(self, seed: int, root: Path) -> list[Input]:
        rng = np.random.default_rng([seed, 3])
        inputs = []
        for c in range(self.configs):
            config = {
                "p": self.p,
                "N": list(self.sizes),
                "a": [1.0],
                "mc": list(self.mc),
                "replicates": self.replicates,
                "seed": int(rng.integers(1, 2**31)),
                "parametrizations": ["identity", "corner"],
                "ks_coords": self.ks_coords,
                "timing_repeats": 1,
            }
            path = root / f"compare_{c}.json"
            path.write_text(json.dumps(config, indent=1))
            out_dir = root / f"compare_{c}.out"
            argv = ["compare", "--config", str(path), "--out-dir", str(out_dir)]
            inputs.append(Input(f"config{c}", argv, [out_dir / "metrics_a1p0.csv"]))
        return inputs

    def check(self, inp: Input, outputs: list[bytes]) -> list[str]:
        lines = outputs[0].decode().splitlines()
        expected = self.expected_rows()
        errors = []
        if not lines or lines[0] != "metric,parametrization,N,mc,replicate,value":
            errors.append(f"{inp.name}: metrics CSV header is wrong")
        if len(lines) - 1 != expected:
            errors.append(f"{inp.name}: {len(lines) - 1} metric rows, expected {expected}")
        for line in lines[1:]:
            if not math.isfinite(float(line.rsplit(",", 1)[-1])):
                errors.append(f"{inp.name}: non-finite metric value in {line!r}")
                break
        return errors


WORKLOADS = {w.name: w for w in (ApproxIdentity, SelectMarginals, CompareStudy)}
