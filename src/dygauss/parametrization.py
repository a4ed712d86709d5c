"""Contingency-table schemas, the canonical cell order, the identity and
corner parametrizations, and table marginalization.

Canonical cell order is mixed-radix ascending with the LAST variable varying
fastest, e.g. for three binary variables: 000, 001, 010, 011, 100, 101, 110,
111. This equals C-order raveling of the count array, and all serialization
uses it. The baseline cell (0, ..., 0) comes first; the remaining cells, in
the same order, index both the log-ratio coordinates and the columns of the
corner design matrix.

The corner matrix X is the Kronecker product of per-variable factors
I + (first column of ones), minus the baseline row and column; it is unit
lower triangular. A design is therefore kept as (kind, schema), and only
this module applies it: on the zero-padded cell cube, X t* is one pass per
variable axis adding level 0 to the other levels, X^{-1} t is the same pass
subtracting (per-axis differences), and X^T v adds levels 1.. into level 0,
each O(d p) with no matrix. The identity design copies.
`DesignMatrix.entries` is a dense view derived on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TableSchema",
    "ContingencyTable",
    "DesignMatrix",
    "canonical_cell_order",
    "identity_design",
    "corner_design",
    "to_theta_star",
    "from_theta_star",
    "adjoint_theta_star",
    "marginalize",
]


@dataclass(frozen=True)
class TableSchema:
    """Level counts (d_1, ..., d_p) of the cross-classified variables."""

    levels: tuple[int, ...]

    def __init__(self, levels):
        levels = tuple(int(v) for v in levels)
        if len(levels) < 1 or any(v < 2 for v in levels):
            raise ValueError(f"every variable needs at least 2 levels, got {levels}")
        object.__setattr__(self, "levels", levels)

    @property
    def p(self) -> int:
        return len(self.levels)

    @property
    def n_cells(self) -> int:
        return math.prod(self.levels)

    @property
    def d(self) -> int:
        """Number of free parameters: one fewer than the cell count."""
        return self.n_cells - 1


@dataclass(frozen=True)
class ContingencyTable:
    """Vectorized cell counts in canonical order; counts[0] is the baseline cell."""

    schema: TableSchema
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (self.schema.n_cells,):
            raise ValueError(
                f"expected {self.schema.n_cells} cell counts, got shape {counts.shape}"
            )
        if np.any(counts < 0) or not np.all(np.isfinite(counts.astype(float))):
            raise ValueError("cell counts must be nonnegative")
        if not np.all(counts == np.floor(counts)):
            raise ValueError("cell counts must be integers")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


def canonical_cell_order(schema: TableSchema) -> np.ndarray:
    """All cells in canonical order, (0, ..., 0) first: an (n_cells, p)
    read-only integer array with one row of level indices per cell."""
    cells = np.indices(schema.levels).reshape(schema.p, -1).T
    cells.flags.writeable = False
    return cells


@dataclass(frozen=True)
class DesignMatrix:
    """Non-singular 0/1 reparametrization log(p/p_0) = X t*, kept as structure.

    Rows and columns are both indexed by the non-baseline cells in canonical
    order; `labels` carries that indexing so consumers never rely on
    positional conventions. X is applied by `from_theta_star` and inverted
    by `to_theta_star`; `entries` is a dense view for inspection only.
    """

    kind: str
    schema: TableSchema

    def __post_init__(self):
        if self.kind not in ("identity", "corner"):
            raise ValueError(f"unknown design matrix kind {self.kind!r}")

    @property
    def d(self) -> int:
        return self.schema.d

    @property
    def labels(self) -> np.ndarray:
        """(d, p) read-only array: row j holds the cell of coordinate j.
        Built on each access, so it is freed with its last reference."""
        return canonical_cell_order(self.schema)[1:]

    @cached_property
    def entries(self) -> np.ndarray:
        """Read-only dense int8 X, built on first access from the Kronecker
        factors (identity factors for the identity design)."""
        full = np.ones((1, 1), dtype=np.int8)
        for n in self.schema.levels:
            factor = np.eye(n, dtype=np.int8)
            if self.kind == "corner":
                factor[:, 0] = 1
            full = np.kron(full, factor)
        entries = np.ascontiguousarray(full[1:, 1:])
        entries.flags.writeable = False
        return entries


def identity_design(schema: TableSchema) -> DesignMatrix:
    return DesignMatrix("identity", schema)


def corner_design(schema: TableSchema) -> DesignMatrix:
    """Design matrix of the corner parametrization.

    The row for cell i has a 1 in the column of cell u whenever u is i with
    some (possibly none) of its nonzero coordinates zeroed out, i.e. the
    row sums the main effects and interactions of every nonempty subset of
    i's active variables.
    """
    return DesignMatrix("corner", schema)


def _coordinates(theta, d: int) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.ndim < 1 or arr.shape[0] != d:
        raise ValueError(f"expected {d} coordinates along axis 0, got shape {arr.shape}")
    return arr


def _apply(theta, design: DesignMatrix, op) -> np.ndarray:
    """Copy for the identity design; for the corner design, one in-place
    pass per variable axis over the zero-padded cell cube, combining levels
    1.. of the axis with level 0 by `op` (np.add applies X, np.subtract
    X^{-1}), or with op None adding levels 1.. into level 0 (X^T)."""
    coords = _coordinates(theta, design.d)
    if design.kind == "identity":
        return coords.copy()
    schema = design.schema
    rest = coords.shape[1:]
    cube = np.zeros((schema.n_cells,) + rest)
    cube[1:] = coords
    view = cube.reshape(schema.levels + rest)
    for axis in range(schema.p):
        lead = (slice(None),) * axis
        lower, upper = view[lead + (slice(0, 1),)], view[lead + (slice(1, None),)]
        if op is None:
            lower += upper.sum(axis=axis, keepdims=True)
        else:
            op(upper, lower, out=upper)
    return cube[1:]


def to_theta_star(theta, design: DesignMatrix) -> np.ndarray:
    """Solve X t* = t for t*, column by column for a (d, ...) array.

    For the corner design this is the Moebius transform: per-axis
    differences against level 0, O(d p) with no matrix.
    """
    return _apply(theta, design, np.subtract)


def from_theta_star(theta_star, design: DesignMatrix) -> np.ndarray:
    """Evaluate t = X t*, column by column for a (d, ...) array."""
    return _apply(theta_star, design, np.add)


def adjoint_theta_star(v, design: DesignMatrix) -> np.ndarray:
    """Evaluate X^T v, column by column for a (d, ...) array."""
    return _apply(v, design, None)


def marginalize(table: ContingencyTable, keep) -> ContingencyTable:
    """Collapse a table onto a subset of variables, summing out the rest.

    `keep` holds 0-based variable indices; their original relative order is
    preserved in the result. The grand total is unchanged.
    """
    keep = sorted(set(int(v) for v in keep))
    p = table.schema.p
    if not keep:
        raise ValueError("keep must name at least one variable")
    if keep[0] < 0 or keep[-1] >= p:
        raise ValueError(f"variable indices must lie in [0, {p}), got {keep}")
    drop = tuple(v for v in range(p) if v not in keep)
    cube = table.counts.reshape(table.schema.levels)
    if drop:
        cube = cube.sum(axis=drop)
    new_schema = TableSchema(tuple(table.schema.levels[v] for v in keep))
    return ContingencyTable(new_schema, cube.reshape(-1))
