import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dygauss.parametrization import (
    ContingencyTable,
    DesignMatrix,
    TableSchema,
    canonical_cell_order,
    corner_design,
    adjoint_theta_star,
    from_theta_star,
    identity_design,
    marginalize,
    to_theta_star,
)

# Three binary variables: the worked reparametrization matrix with rows and
# columns indexed by the nonzero cells 001, 010, 011, 100, 101, 110, 111.
THREE_WAY_MATRIX = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 0, 0],
        [0, 1, 0, 1, 0, 1, 0],
        [1, 1, 1, 1, 1, 1, 1],
    ],
    dtype=np.int8,
)


def schemas(max_cells=256):
    return st.lists(st.integers(2, 4), min_size=1, max_size=4).filter(
        lambda ls: int(np.prod(ls)) <= max_cells
    )


def _leading_within(levels, max_cells):
    """Longest prefix of `levels` whose cell count stays within max_cells."""
    kept = []
    for n in levels:
        if int(np.prod(kept + [n])) > max_cells:
            break
        kept.append(n)
    return kept


def mixed_schemas(max_cells=512):
    return st.lists(st.integers(2, 5), min_size=1, max_size=9).map(
        lambda ls: _leading_within(ls, max_cells)
    )


class TestCanonicalCellOrder:
    def test_single_binary(self):
        assert canonical_cell_order(TableSchema((2,))).tolist() == [[0], [1]]

    def test_two_by_two(self):
        assert canonical_cell_order(TableSchema((2, 2))).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_last_variable_fastest(self):
        cells = canonical_cell_order(TableSchema((2, 2, 2)))
        assert cells.shape == (8, 3)
        assert cells[0].tolist() == [0, 0, 0]
        # nonzero cells map to coordinates 1..7 in this order
        assert cells[1].tolist() == [0, 0, 1]
        assert cells[4].tolist() == [1, 0, 0]
        assert cells[7].tolist() == [1, 1, 1]

    def test_mixed_levels(self):
        cells = canonical_cell_order(TableSchema((2, 3)))
        assert cells.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]


class TestCornerDesign:
    def test_three_way_exact(self):
        design = corner_design(TableSchema((2, 2, 2)))
        np.testing.assert_array_equal(design.entries, THREE_WAY_MATRIX)
        assert design.labels.shape == (7, 3)
        assert design.labels[0].tolist() == [0, 0, 1]
        assert design.labels[6].tolist() == [1, 1, 1]

    def test_single_variable(self):
        np.testing.assert_array_equal(corner_design(TableSchema((2,))).entries, [[1]])

    def test_two_by_two(self):
        expected = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=np.int8)
        np.testing.assert_array_equal(corner_design(TableSchema((2, 2))).entries, expected)

    def test_pure_three_way_column(self):
        design = corner_design(TableSchema((2, 2, 2)))
        theta = from_theta_star(np.eye(7)[6], design)
        np.testing.assert_allclose(theta, np.eye(7)[6])

    @settings(max_examples=60, deadline=None)
    @given(schemas())
    def test_binary_entries_and_nonsingular(self, levels):
        design = corner_design(TableSchema(tuple(levels)))
        entries = design.entries
        assert set(np.unique(entries)) <= {0, 1}
        sign, _ = np.linalg.slogdet(entries.astype(float))
        assert sign == 1.0  # unit lower triangular

    def test_large_schemas_nonsingular(self):
        for levels in [(2,) * 12, (4, 4, 4, 4, 4, 4), (8, 8, 8, 8)]:
            schema = TableSchema(levels)
            if schema.n_cells > 4096:
                continue
            design = corner_design(schema)
            assert np.all(np.diag(design.entries) == 1)
            assert np.all(np.triu(design.entries, 1) == 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown design matrix kind"):
            DesignMatrix("banded", TableSchema((2, 2)))

    def test_entries_are_read_only(self):
        entries = corner_design(TableSchema((2, 3))).entries
        assert entries.dtype == np.int8
        with pytest.raises(ValueError):
            entries[0, 0] = 0


class TestThetaStarConversion:
    def test_identity_design(self):
        design = identity_design(TableSchema((2, 2)))
        theta = np.array([0.3, -0.7, 2.0])
        np.testing.assert_allclose(to_theta_star(theta, design), theta)

    def test_roundtrip_corner_d15(self):
        rng = np.random.default_rng(5)
        design = corner_design(TableSchema((2, 2, 2, 2)))
        theta = rng.normal(size=15)
        star = to_theta_star(theta, design)
        np.testing.assert_allclose(from_theta_star(star, design), theta, atol=1e-10)
        np.testing.assert_allclose(design.entries.astype(float) @ star, theta, atol=1e-10)

    def test_roundtrip_corner_d255(self):
        rng = np.random.default_rng(6)
        design = corner_design(TableSchema((2,) * 8))
        theta = rng.normal(size=255)
        np.testing.assert_allclose(
            from_theta_star(to_theta_star(theta, design), design), theta, atol=1e-10
        )

    def test_dimension_mismatch(self):
        design = corner_design(TableSchema((2, 2)))
        with pytest.raises(ValueError):
            to_theta_star(np.zeros(5), design)
        with pytest.raises(ValueError):
            from_theta_star(np.zeros((5, 3)), design)

    @settings(max_examples=60, deadline=None)
    @given(mixed_schemas(), st.sampled_from(["identity", "corner"]), st.integers(0, 2**32 - 1))
    def test_matches_dense_operator(self, levels, kind, seed):
        design = DesignMatrix(kind, TableSchema(tuple(levels)))
        x = design.entries.astype(float)
        rng = np.random.default_rng(seed)
        for shape in [(design.d,), (design.d, 3)]:
            t = rng.normal(size=shape) * 3.0
            star = to_theta_star(t, design)
            np.testing.assert_allclose(star, np.linalg.solve(x, t), rtol=0, atol=1e-12)
            np.testing.assert_allclose(from_theta_star(t, design), x @ t, rtol=0, atol=1e-12)
            np.testing.assert_allclose(adjoint_theta_star(t, design), x.T @ t, rtol=0, atol=1e-12)

    def test_identity_transform_builds_no_matrix(self):
        """A dense 2^14 design would take 268 MB as int8; the operator needs
        only the padded coordinate vector."""
        theta = np.linspace(-1.0, 1.0, 2**14 - 1)
        tracemalloc.start()
        try:
            design = identity_design(TableSchema((2,) * 14))
            star = to_theta_star(theta, design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(star, theta)
        assert peak < 16 * 2**20


class TestMarginalize:
    def test_keep_all(self):
        table = ContingencyTable(TableSchema((2, 2)), np.array([1, 2, 3, 4]))
        out = marginalize(table, [0, 1])
        np.testing.assert_array_equal(out.counts, table.counts)

    def test_row_sums(self):
        table = ContingencyTable(TableSchema((2, 2)), np.array([1, 2, 3, 4]))
        out = marginalize(table, [0])
        np.testing.assert_array_equal(out.counts, [3, 7])
        assert out.counts.sum() == table.counts.sum()

    def test_against_bruteforce(self):
        rng = np.random.default_rng(8)
        schema = TableSchema((2, 2, 2))
        counts = rng.integers(0, 20, schema.n_cells)
        table = ContingencyTable(schema, counts)
        out = marginalize(table, [0, 2])
        cells = canonical_cell_order(schema)
        expected = np.zeros((2, 2), dtype=int)
        for cell, c in zip(cells, counts):
            expected[cell[0], cell[2]] += c
        np.testing.assert_array_equal(out.counts, expected.reshape(-1))

    def test_nested_commutes(self):
        rng = np.random.default_rng(9)
        schema = TableSchema((2, 3, 2, 2))
        table = ContingencyTable(schema, rng.integers(0, 9, schema.n_cells))
        via_two_steps = marginalize(marginalize(table, [0, 1, 3]), [0, 1])
        direct = marginalize(table, [0, 1])
        np.testing.assert_array_equal(via_two_steps.counts, direct.counts)

    def test_empty_subset_rejected(self):
        table = ContingencyTable(TableSchema((2, 2)), np.array([1, 2, 3, 4]))
        with pytest.raises(ValueError):
            marginalize(table, [])


class TestSchemaAndTable:
    def test_schema_validation(self):
        with pytest.raises(ValueError):
            TableSchema((1, 2))
        assert TableSchema((2, 3)).d == 5

    def test_table_validation(self):
        schema = TableSchema((2, 2))
        with pytest.raises(ValueError):
            ContingencyTable(schema, np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            ContingencyTable(schema, np.array([1, -2, 3, 4]))
