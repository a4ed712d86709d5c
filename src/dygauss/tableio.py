"""File formats: contingency tables (CSV and JSON), prior vectors, reference
graphs, and sample-batch persistence.

Table CSV: header ``i_1,...,i_p,count``, one row per cell with 0-based level
indices, any row order, missing cells read as 0, duplicate cells rejected.
Level counts are inferred as 1 + the largest index seen per variable (at
least 2), so a CSV cannot describe a table with no observations; use the
JSON form for that.

Table JSON: ``{"levels": [d_1, ..., d_p], "counts": [...]}`` with counts in
canonical cell order (last variable fastest).

Reference graph: text lines ``u,v`` or ``u v`` of 0-based variable indices;
blank lines and ``#`` comments ignored.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from .baselines import SampleBatch
from .parametrization import ContingencyTable, TableSchema, canonical_cell_order

__all__ = [
    "InputError",
    "load_table",
    "load_table_csv",
    "load_table_json",
    "save_table_csv",
    "save_table_json",
    "load_prior",
    "load_reference_graph",
    "worker_count",
    "save_batch",
    "load_batch",
]


class InputError(ValueError):
    """Malformed user-supplied file or argument."""


def load_table(path) -> ContingencyTable:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return load_table_json(path)
    return load_table_csv(path)


def load_table_json(path) -> ContingencyTable:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read table JSON {path}: {exc}") from exc
    if not isinstance(payload, dict) or "levels" not in payload or "counts" not in payload:
        raise InputError(f"table JSON {path} must contain 'levels' and 'counts'")
    try:
        schema = TableSchema(payload["levels"])
        return ContingencyTable(schema, np.asarray(payload["counts"]))
    except (ValueError, TypeError) as exc:
        raise InputError(f"invalid table JSON {path}: {exc}") from exc


def load_table_csv(path) -> ContingencyTable:
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise InputError(f"cannot read table CSV {path}: {exc}") from exc
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise InputError(f"table CSV {path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2 or header[-1] != "count":
        raise InputError(f"table CSV {path} needs a header 'i_1,...,i_p,count'")
    p = len(header) - 1
    seen: dict[tuple[int, ...], int] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != p + 1:
            raise InputError(f"{path}:{lineno}: expected {p + 1} columns, got {len(row)}")
        try:
            cell = tuple(int(v) for v in row[:p])
            count = int(row[p])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if any(v < 0 for v in cell) or count < 0:
            raise InputError(f"{path}:{lineno}: negative level index or count")
        if cell in seen:
            raise InputError(f"{path}:{lineno}: duplicate cell {cell}")
        seen[cell] = count
    if not seen:
        raise InputError(f"table CSV {path} has no data rows; level counts cannot be inferred")
    levels = tuple(max(2, 1 + max(cell[v] for cell in seen)) for v in range(p))
    schema = TableSchema(levels)
    counts = np.zeros(schema.n_cells, dtype=np.int64)
    strides = np.cumprod((1,) + levels[::-1][:-1])[::-1]
    for cell, count in seen.items():
        counts[int(np.dot(cell, strides))] = count
    return ContingencyTable(schema, counts)


def save_table_csv(table: ContingencyTable, path) -> None:
    cells = canonical_cell_order(table.schema)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"i_{v + 1}" for v in range(table.schema.p)] + ["count"])
        for cell, count in zip(cells, table.counts):
            writer.writerow(list(cell) + [int(count)])


def save_table_json(table: ContingencyTable, path) -> None:
    payload = {"levels": list(table.schema.levels), "counts": table.counts.tolist()}
    Path(path).write_text(json.dumps(payload))


def load_prior(spec: str, n_cells: int) -> np.ndarray:
    """Prior concentration: either a positive scalar replicated over cells,
    or a file of n_cells positive numbers in canonical order."""
    try:
        a = float(spec)
    except ValueError:
        a = None
    if a is not None:
        if not a > 0:
            raise InputError(f"prior concentration must be positive, got {a}")
        return np.full(n_cells, a)
    try:
        values = np.array([float(v) for v in Path(spec).read_text().split()])
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read prior vector from {spec}: {exc}") from exc
    if values.size != n_cells:
        raise InputError(f"prior vector needs {n_cells} entries, got {values.size}")
    if np.any(values <= 0):
        raise InputError("prior vector entries must be positive")
    return values


def load_reference_graph(path, n_vars: int) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read reference graph {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected two variable indices")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if not (0 <= u < n_vars and 0 <= v < n_vars) or u == v:
            raise InputError(f"{path}:{lineno}: edge ({u}, {v}) out of range for {n_vars} variables")
        edges.add((min(u, v), max(u, v)))
    return edges


def worker_count(jobs: int) -> int:
    """Pool size for `jobs` independent jobs: DYGAUSS_THREADS (default: the
    core count), capped at the core count and at `jobs`."""
    cores = os.cpu_count() or 1
    raw = os.environ.get("DYGAUSS_THREADS", "").strip()
    if not raw:
        return max(1, min(cores, jobs))
    if not raw.isdecimal() or int(raw) < 1:
        raise InputError(f"DYGAUSS_THREADS must be a positive integer, got {raw!r}")
    return max(1, min(int(raw), cores, jobs))


def save_batch(batch: SampleBatch, path, beta=None) -> None:
    """Persist draws plus an audit sidecar; .npy for flat binary, .csv for text."""
    path = Path(path)
    if path.suffix == ".npy":
        np.save(path, batch.draws)
    elif path.suffix == ".csv":
        np.savetxt(path, batch.draws, delimiter=",")
    else:
        raise InputError(f"unsupported batch format {path.suffix!r}; use .npy or .csv")
    sidecar = {
        "seed": batch.seed,
        "parametrization": batch.parametrization,
        "shape": list(batch.draws.shape),
    }
    if beta is not None:
        sidecar["beta"] = np.asarray(beta, dtype=float).tolist()
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))


def load_batch(path) -> SampleBatch:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    if path.suffix == ".npy":
        draws = np.load(path)
    elif path.suffix == ".csv":
        draws = np.loadtxt(path, delimiter=",", ndmin=2)
    else:
        raise InputError(f"unsupported batch format {path.suffix!r}")
    return SampleBatch(draws, int(sidecar["seed"]), sidecar["parametrization"])
