"""File formats: contingency tables (CSV and JSON), prior vectors,
reference graphs and the JSON that ``approx`` and ``select`` write, plus the
worker pool: its size read from DYGAUSS_THREADS and ``map_jobs``, which runs
independent jobs on it.

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

Prior: a scalar or a file of one value per cell, every value in
[``MIN_PRIOR``, ``MAX_PRIOR``] = [1e-100, 1e100]. Outside that range the
special functions under- or overflow.

Reference graph: text lines ``u,v`` or ``u v`` of 0-based variable indices;
blank lines and ``#`` comments ignored.

Output JSON: ``write_json`` writes one line with ``json.dumps``'s default
separators, the same bytes as ``json.dumps`` of the payload with every
array as its nested list. Float arrays are formatted without a list of
Python floats: when most values repeat (the identity moments of integer
counts are functions of each count alone), each distinct value, told apart
by bit pattern so that ``-0.0`` stays ``-0.0``, is formatted once and its
text reused. A ``CellLabels`` value is written from the schema's levels as
digit strings, with no per-cell list. Everything else is ``json.dumps``'s
own text, and the pieces go to the handle in order.

Worker pool: ``map_jobs`` runs BLAS on one thread while its jobs run, on the
serial path too. The pool is then the only parallelism, and a BLAS result
does not depend on how many threads OpenBLAS would otherwise split it over,
so outputs are the same for any pool size, core count and OpenBLAS setting.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .parametrization import ContingencyTable, TableSchema
from .specfun import mostly_repeated

__all__ = [
    "InputError",
    "load_table",
    "load_table_csv",
    "load_table_json",
    "load_prior",
    "load_reference_graph",
    "CellLabels",
    "write_json",
    "worker_count",
    "map_jobs",
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


MIN_PRIOR, MAX_PRIOR = 1e-100, 1e100


def load_prior(spec: str, n_cells: int) -> np.ndarray:
    """Prior concentration: either a scalar replicated over cells, or a file
    of n_cells numbers in canonical order; each in [MIN_PRIOR, MAX_PRIOR]."""
    try:
        a = float(spec)
    except ValueError:
        a = None
    if a is not None:
        if not MIN_PRIOR <= a <= MAX_PRIOR:
            raise InputError(f"--prior must lie in [{MIN_PRIOR:g}, {MAX_PRIOR:g}], got {a!r}")
        return np.full(n_cells, a)
    try:
        values = np.array([float(v) for v in Path(spec).read_text().split()])
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read --prior vector from {spec}: {exc}") from exc
    if values.size != n_cells:
        raise InputError(f"--prior vector needs {n_cells} entries, got {values.size}")
    outside = ~((values >= MIN_PRIOR) & (values <= MAX_PRIOR))
    if outside.any():
        j = int(np.argmax(outside))
        raise InputError(
            f"--prior vector entries must lie in [{MIN_PRIOR:g}, {MAX_PRIOR:g}], "
            f"entry {j} is {values[j]!r}"
        )
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


@dataclass(frozen=True)
class CellLabels:
    """A ``write_json`` value: the level indices of every cell of `schema`
    but the baseline, in canonical order, as a list of lists; the text of
    ``canonical_cell_order(schema)[1:].tolist()``."""

    schema: TableSchema


_SLOT = "\x00"  # stands in for an array in the text json.dumps writes


def write_json(payload, handle) -> None:
    """Write `payload` to the text `handle` as one line of JSON: the bytes of
    ``print(json.dumps(payload), file=handle)`` with each ndarray as its
    ``tolist()`` and each CellLabels as its list of cells.

    ``json.dumps`` writes the payload with every array replaced by a slot
    string; the array texts are written in the slots' places."""
    arrays = []

    def skeleton(value):
        if isinstance(value, dict):
            return {key: skeleton(item) for key, item in value.items()}
        if isinstance(value, list):
            return [skeleton(item) for item in value]
        if isinstance(value, (np.ndarray, CellLabels)):
            arrays.append(value)
            return _SLOT
        return value

    texts = json.dumps(skeleton(payload)).split(json.dumps(_SLOT))
    if len(texts) != len(arrays) + 1:
        raise ValueError("a payload string contains the array slot text")
    handle.write(texts[0])
    for value, text in zip(arrays, texts[1:]):
        if isinstance(value, CellLabels):
            handle.writelines(_label_pieces(value.schema.levels))
        else:
            handle.write(_float_array_json(value))
        handle.write(text)
    handle.write("\n")


def _float_array_json(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())`` for a 1-d or (n, k) array. When the
    float64 values mostly repeat (`specfun.mostly_repeated`), each column's
    distinct values are formatted once; otherwise the C encoder formats
    every value."""
    if values.dtype != np.float64 or values.ndim not in (1, 2) or not mostly_repeated(values):
        return json.dumps(values.tolist())
    if values.ndim == 1:
        return "[" + ", ".join(_column_texts(values)) + "]"
    rows = zip(*(_column_texts(column) for column in values.T))
    return "[[" + "], [".join(map(", ".join, rows)) + "]]"


def _column_texts(column: np.ndarray) -> list[str]:
    """The JSON text of each value of a float64 vector, each distinct bit
    pattern formatted once by the C encoder."""
    distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(texts, dtype=object)[inverse].tolist()


_LABEL_TAIL_CELLS = 1024  # cells per block of label text


def _label_pieces(levels: tuple[int, ...]):
    """The text of CellLabels(TableSchema(levels)) in blocks. The tail is
    the last variable and as many before it as it takes to span
    _LABEL_TAIL_CELLS cells (or all of them); each block is every tail cell
    after one prefix of head levels, written with one join. The first block
    drops the baseline cell."""
    split, tail_cells = len(levels) - 1, levels[-1]
    while split > 0 and tail_cells < _LABEL_TAIL_CELLS:
        split -= 1
        tail_cells *= levels[split]

    def cell_texts(part):
        return [", ".join(cell) for cell in product(*(map(str, range(n)) for n in part))]

    tail = cell_texts(levels[split:])
    for i, prefix in enumerate(cell_texts(levels[:split])):
        lead = prefix + ", " if prefix else ""
        cells = tail[1:] if i == 0 else tail
        yield ("[[" if i == 0 else ", [") + lead + ("], [" + lead).join(cells) + "]"
    yield "]"


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


_OPENBLAS_THREAD_CALLS = (  # (get, set) symbol pairs, newest builds first
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count calls of the OpenBLAS numpy ships with, or
    None when numpy uses another BLAS (MKL, Accelerate). Looked up on first
    use, so importing the package loads no library."""
    import ctypes
    import glob

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, ()
                set_.restype, set_.argtypes = None, (ctypes.c_int,)
                return get, set_
    return None


_pin_lock = threading.Lock()
_pin_depth = 0  # map_jobs calls in progress, over all threads
_pin_saved = 0  # the BLAS thread count before the outermost one began


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS on one thread for the body; the count before is restored when
    the last of any overlapping bodies ends, also on an exception."""
    global _pin_depth, _pin_saved
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get()
            set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_saved)


def map_jobs(fn, jobs) -> list:
    """[fn(job) for job in jobs] on a pool of worker_count(len(jobs))
    threads, in job order, with BLAS on one thread throughout."""
    jobs = list(jobs)
    workers = worker_count(len(jobs))
    with _one_blas_thread():
        if workers == 1:
            return [fn(job) for job in jobs]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
