#!/usr/bin/env python3
"""Model-selection walkthrough on synthetic tables.

Builds three small contingency tables (independent pair, strongly dependent
pair, and a three-variable table with one planted dependence), runs the
penalized-credible-region selection on each, and prints the kept interaction
structure.
"""

import argparse

import numpy as np

from dygauss.baselines import stream_rng
from dygauss.parametrization import ContingencyTable, TableSchema, corner_design
from dygauss.posterior import DirichletParams, optimal_gaussian, transform_gaussian
from dygauss.selection import lasso_path, pcr_select


def select(table: ContingencyTable, prior_a: float, alpha: float):
    beta = DirichletParams(prior_a + table.counts)
    design = corner_design(table.schema)
    gauss = transform_gaussian(optimal_gaussian(beta), design)
    path = lasso_path(gauss.mean, gauss.cov)
    result = pcr_select(path, alpha)
    return result, design.labels


def describe(name, counts, levels, alpha):
    table = ContingencyTable(TableSchema(levels), np.asarray(counts))
    result, labels = select(table, prior_a=1.0, alpha=alpha)
    kept = [tuple(labels[j].tolist()) for j in result.support]
    interactions = [cell for cell in kept if sum(v != 0 for v in cell) >= 2]
    print(f"\n--- {name} (alpha={alpha}) ---")
    print(f"counts: {[int(c) for c in table.counts]}")
    print(f"kept coefficients: {kept or 'none'}")
    print(f"interaction terms: {interactions or 'none'}")
    print(
        f"distance {result.delta:.3f} vs threshold {result.delta_max:.3f}"
        + (" [fallback to full model]" if result.fallback else "")
    )


def planted_three_way(seed: int, n: int = 4000):
    rng = stream_rng(seed)
    x0 = rng.integers(0, 2, n)
    x1 = np.where(rng.random(n) < 0.9, x0, 1 - x0)  # tightly coupled to x0
    x2 = rng.integers(0, 2, n)  # independent
    counts = np.zeros(8, dtype=int)
    for a, b, c in zip(x0, x1, x2):
        counts[4 * a + 2 * b + c] += 1
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    describe("independent 2x2", [25, 25, 25, 25], (2, 2), args.alpha)
    describe("dependent 2x2", [50, 5, 5, 50], (2, 2), args.alpha)
    describe(
        "2x2x2 with one planted dependence",
        planted_three_way(args.seed),
        (2, 2, 2),
        args.alpha,
    )


if __name__ == "__main__":
    main()
