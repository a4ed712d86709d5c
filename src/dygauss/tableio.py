"""File formats: contingency tables (CSV and JSON), prior vectors and
reference graphs, plus the worker-pool size read from DYGAUSS_THREADS.

Table CSV: header ``i_1,...,i_p,count``, one row per cell with 0-based level
indices, any row order, missing cells read as 0, duplicate cells rejected.
Level counts are inferred as 1 + the largest index seen per variable (at
least 2), so a CSV cannot describe a table with no observations; use the
JSON form for that. Lines holding only commas and whitespace are skipped
anywhere. The header is split by the ``csv`` module. The body is parsed by
one ``np.loadtxt`` call into an int64 array: each field is an ASCII decimal
integer in the int64 range, with an optional sign, surrounding whitespace
and optional double quotes. The cells are placed with one
``np.ravel_multi_index``, and duplicates are found with ``np.unique``. Only
when a check fails is the text scanned line by line, to name the file line
of the first offending row. A CSV whose inferred levels give more than
``MAX_CSV_CELLS`` (2^24) cells is rejected before the count vector is
allocated: one row with a large level index would otherwise ask for the
product of every index range in memory.

Table JSON: ``{"levels": [d_1, ..., d_p], "counts": [...]}`` with counts in
canonical cell order (last variable fastest).

Reference graph: text lines ``u,v`` or ``u v`` of 0-based variable indices;
blank lines and ``#`` comments ignored.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np

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
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"invalid table JSON {path}: {exc}") from exc


# A non-empty line of only commas and whitespace, with the newline before it.
_BLANK_LINE = re.compile(r"\n(?:[^\S\n]|,)+(?=\n|\Z)")
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
_INT64 = np.iinfo(np.int64)
MAX_CSV_CELLS = 2**24  # 16x the 2^20 cells of a full p = 20 binary table


def load_table_csv(path) -> ContingencyTable:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read table CSV {path}: {exc}") from exc
    # Blank lines become empty lines, which np.loadtxt skips. With the
    # leading newline, file line n follows the n-th newline of `text`.
    text = _BLANK_LINE.sub("\n", "\n" + text)
    header, _, body = text.lstrip("\n").partition("\n")
    if not header:
        raise InputError(f"table CSV {path} is empty")
    header = [cell.strip() for cell in next(csv.reader([header]))]
    if len(header) < 2 or header[-1] != "count":
        raise InputError(f"table CSV {path} needs a header 'i_1,...,i_p,count'")
    p = len(header) - 1
    if not body.strip("\n"):
        raise InputError(f"table CSV {path} has no data rows; level counts cannot be inferred")
    try:
        values = np.loadtxt(
            io.StringIO(body), dtype=np.int64, delimiter=",", comments=None,
            quotechar='"', ndmin=2,
        )
    except ValueError as exc:
        _raise_first_bad_row(path, text, p)
        raise InputError(f"table CSV {path}: {exc}") from exc
    if values.shape[1] != p + 1:
        line = _data_line(text, 0)
        raise InputError(f"{path}:{line}: expected {p + 1} columns, got {values.shape[1]}")
    negative = (values < 0).any(axis=1)
    if negative.any():
        line = _data_line(text, int(np.argmax(negative)))
        raise InputError(f"{path}:{line}: negative level index or count")
    cells = values[:, :p]
    levels = tuple(max(2, 1 + int(top)) for top in cells.max(axis=0))
    n_cells = math.prod(levels)
    if n_cells > MAX_CSV_CELLS:
        raise InputError(
            f"table CSV {path}: inferred levels {levels} give {n_cells} cells, "
            f"more than the {MAX_CSV_CELLS} a CSV table may hold"
        )
    schema = TableSchema(levels)
    counts = np.zeros(n_cells, dtype=np.int64)
    flat = np.ravel_multi_index(cells.T, levels)
    _, first = np.unique(flat, return_index=True)
    if first.size < flat.size:
        repeat = np.ones(flat.size, dtype=bool)
        repeat[first] = False
        row = int(np.argmax(repeat))
        cell = tuple(int(v) for v in cells[row])
        raise InputError(f"{path}:{_data_line(text, row)}: duplicate cell {cell}")
    counts[flat] = values[:, p]
    return ContingencyTable(schema, counts)


def _data_lines(text: str) -> list[tuple[int, str]]:
    """(file line number, line) of each data line of the blanked `text`."""
    return [(lineno, line) for lineno, line in enumerate(text.split("\n")) if line][1:]


def _data_line(text: str, row: int) -> int:
    """File line number of data row `row` (0-based)."""
    return _data_lines(text)[row][0]


def _raise_first_bad_row(path, text: str, p: int) -> None:
    """Raise InputError naming the first data line that is not p + 1 int64
    fields; return if every line is."""
    for lineno, line in _data_lines(text):
        fields = next(csv.reader([line]))
        if len(fields) != p + 1:
            raise InputError(f"{path}:{lineno}: expected {p + 1} columns, got {len(fields)}")
        for field in fields:
            if not _INTEGER.fullmatch(field):
                raise InputError(f"{path}:{lineno}: not an integer: {field.strip()!r}")
            if not _INT64.min <= int(field) <= _INT64.max:
                raise InputError(f"{path}:{lineno}: {field.strip()} is outside the int64 range")


def save_table_csv(table: ContingencyTable, path) -> None:
    cells = canonical_cell_order(table.schema).tolist()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"i_{v + 1}" for v in range(table.schema.p)] + ["count"])
        for cell, count in zip(cells, table.counts.tolist()):
            writer.writerow(cell + [count])


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

