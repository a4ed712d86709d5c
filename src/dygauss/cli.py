"""Command-line interface.

Subcommands:
  approx   closed-form Gaussian posterior for one table, with KL diagnostics
  compare  seeded simulation study (all metrics + timings, CSV output)
  select   penalized-credible-region model selection, optionally on every
           k-variable marginal table, with confusion counts vs a reference
           graph

Exit codes: 0 success, 1 output pipe closed early, 2 usage/input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from .baselines import NewtonError
from .metrics import CREDIBLE_LEVEL, gaussian_intervals
from .parametrization import (
    ContingencyTable,
    corner_design,
    identity_design,
    marginalize,
)
from .posterior import (
    DirichletParams,
    exact_min_kl,
    kl_bound,
    optimal_gaussian,
    transform_gaussian,
)
from .selection import (
    LassoConvergenceError,
    SelectionResult,
    edge_confusion,
    lasso_path,
    pcr_select,
)
from .simulate import SimulationConfig, run_compare
from .tableio import (
    CellLabels,
    InputError,
    load_prior,
    load_reference_graph,
    load_table,
    map_jobs,
    write_json,
)

__all__ = ["main"]


def _posterior_from(table: ContingencyTable, prior: str | np.ndarray) -> DirichletParams:
    """`prior` is a --prior spec or an already aggregated concentration vector."""
    if isinstance(prior, str):
        prior = load_prior(prior, table.schema.n_cells)
    return DirichletParams(prior + table.counts)


def _cmd_approx(args) -> int:
    table = load_table(args.table)
    beta = _posterior_from(table, args.prior)
    gauss = optimal_gaussian(beta)
    if args.parametrization == "corner":
        design = corner_design(table.schema)
        gauss = transform_gaussian(gauss, design)
    else:
        design = identity_design(table.schema)
    bound = kl_bound(beta)
    payload = gauss.to_json_dict()
    payload["labels"] = CellLabels(design.schema)
    payload["exact_min_kl"] = exact_min_kl(beta)
    payload["kl_bound"] = {"value": bound.value, "valid": bound.valid}
    payload["level"] = CREDIBLE_LEVEL
    payload["intervals"] = gaussian_intervals(gauss.mean, gauss.variances())
    _write_json(payload, args.out)
    return 0


def _write_json(payload: dict, out: str | None) -> None:
    """One line of JSON to `out`, or to stdout."""
    if out:
        with open(out, "w") as handle:
            write_json(payload, handle)
    else:
        write_json(payload, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit


def _cmd_compare(args) -> int:
    config = SimulationConfig.from_json(args.config)
    rows = run_compare(config, out_dir=args.out_dir)
    out = Path(args.out_dir if args.out_dir is not None else config.out_dir)
    print(f"wrote {len(rows)} metric rows to {out}", file=sys.stderr)
    return 0


def _select_one(table: ContingencyTable, prior, args) -> tuple[SelectionResult, np.ndarray]:
    beta = _posterior_from(table, prior)
    design = corner_design(table.schema)
    gauss = transform_gaussian(optimal_gaussian(beta), design)
    path = lasso_path(
        gauss.mean,
        gauss.cov,
        n_lambda=args.n_lambda,
        lambda_min_ratio=args.lambda_min_ratio,
    )
    result = pcr_select(path, args.alpha)
    return result, design.labels


def _edges_of(result: SelectionResult, labels, variables) -> set[tuple[int, int]]:
    """Variable pairs covered jointly by at least one selected interaction."""
    edges: set[tuple[int, int]] = set()
    for j in result.support:
        active = [variables[v] for v in np.flatnonzero(labels[j])]
        if len(active) >= 2:
            edges.update(
                (min(u, v), max(u, v)) for u, v in combinations(active, 2)
            )
    return edges


def _marginal_prior(prior_spec: str, table: ContingencyTable, keep) -> str | np.ndarray:
    """Scalar priors apply per marginal cell; vector priors aggregate by
    summing over the dropped variables (category merging adds concentrations)."""
    try:
        float(prior_spec)
        return prior_spec
    except ValueError:
        pass
    full = load_prior(prior_spec, table.schema.n_cells)
    cube = full.reshape(table.schema.levels)
    drop = tuple(v for v in range(table.schema.p) if v not in set(keep))
    return cube.sum(axis=drop).reshape(-1) if drop else full


def _cmd_select(args) -> int:
    table = load_table(args.table)
    p = table.schema.p
    payload: dict = {
        "alpha": args.alpha,
        "parametrization": "corner",
        "n_lambda": args.n_lambda,
        "lambda_min_ratio": args.lambda_min_ratio,
    }

    if args.marginals is None:
        if args.reference is not None:
            raise InputError("--reference scores the marginal selections; it needs --marginals")
        result, labels = _select_one(table, args.prior, args)
        payload.update(result.to_json_dict(labels))
        payload["labels"] = CellLabels(table.schema)
    else:
        k = args.marginals
        if k < 1 or k > p:
            raise InputError(f"--marginals must lie in [1, {p}], got {k}")
        reference = None if args.reference is None else load_reference_graph(args.reference, p)
        subsets = list(combinations(range(p), k))

        def job(keep):
            prior = _marginal_prior(args.prior, table, keep)
            return _select_one(marginalize(table, keep), prior, args)

        outputs = map_jobs(job, subsets)

        tables = []
        selected_edges, reference_edges, universes = [], [], []
        for keep, (result, labels) in zip(subsets, outputs):
            edges = _edges_of(result, labels, keep)
            entry = result.to_json_dict(labels)
            entry["variables"] = list(keep)
            entry["edges"] = sorted(list(e) for e in edges)
            tables.append(entry)
            if reference is not None:
                kept = set(keep)
                selected_edges.append(edges)
                reference_edges.append({e for e in reference if set(e) <= kept})
                universes.append({(min(u, v), max(u, v)) for u, v in combinations(keep, 2)})
        payload["marginal_size"] = k
        payload["tables"] = tables
        if reference is not None:
            payload["confusion"] = edge_confusion(
                selected_edges, reference_edges, universes
            ).to_json_dict()

    _write_json(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dygauss",
        description="Gaussian posterior approximation for multinomial log-linear models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx", help="closed-form posterior approximation for a table")
    p_approx.add_argument("--table", required=True, help="contingency table (.csv or .json)")
    p_approx.add_argument("--prior", required=True, help="scalar concentration or vector file")
    p_approx.add_argument(
        "--parametrization", choices=("identity", "corner"), default="identity"
    )
    p_approx.add_argument("--out", help="write JSON here instead of stdout")
    p_approx.set_defaults(func=_cmd_approx)

    p_compare = sub.add_parser("compare", help="run a seeded simulation study")
    p_compare.add_argument("--config", required=True, help="simulation config JSON")
    p_compare.add_argument("--out-dir", help="override the config's output directory")
    p_compare.set_defaults(func=_cmd_compare)

    p_select = sub.add_parser("select", help="penalized-credible-region model selection")
    p_select.add_argument("--table", required=True)
    p_select.add_argument("--prior", required=True)
    p_select.add_argument("--alpha", type=float, required=True, help="credibility miss level")
    p_select.add_argument("--marginals", type=int, help="run on every k-variable marginal table")
    p_select.add_argument("--reference", help="reference graph edge-list file (with --marginals)")
    p_select.add_argument("--n-lambda", type=int, default=100, dest="n_lambda")
    p_select.add_argument(
        "--lambda-min-ratio", type=float, default=1e-3, dest="lambda_min_ratio"
    )
    p_select.add_argument("--out", help="write JSON here instead of stdout")
    p_select.set_defaults(func=_cmd_select)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NewtonError, LassoConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (`| head`). Point stdout at devnull
        # so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output pipe closed before all output was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
