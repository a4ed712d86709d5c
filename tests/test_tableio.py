import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dygauss.parametrization import ContingencyTable, TableSchema
from oracles import load_table_csv_rows
from dygauss.tableio import (
    MAX_CSV_CELLS,
    InputError,
    load_prior,
    load_reference_graph,
    load_table,
    load_table_csv,
    load_table_json,
    save_table_csv,
    save_table_json,
    worker_count,
)


@pytest.fixture
def table():
    return ContingencyTable(TableSchema((2, 3)), np.array([4, 0, 1, 2, 7, 0]))


class TestCsvRoundtrip:
    def test_roundtrip(self, table, tmp_path):
        path = tmp_path / "t.csv"
        save_table_csv(table, path)
        back = load_table_csv(path)
        assert back.schema.levels == table.schema.levels
        np.testing.assert_array_equal(back.counts, table.counts)

    def test_any_row_order_and_missing_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("i_1,i_2,count\n1,1,4\n0,0,2\n")
        t = load_table_csv(path)
        assert t.schema.levels == (2, 2)
        np.testing.assert_array_equal(t.counts, [2, 0, 0, 4])

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("i_1,count\n0,1\n0,2\n")
        with pytest.raises(InputError):
            load_table_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(InputError):
            load_table_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("i_1,count\n")
        with pytest.raises(InputError):
            load_table_csv(path)

    @pytest.mark.parametrize(
        "text, levels",
        [
            ("i_1,i_2,count\n0,0,1\n1000000,1000000,5\n", r"\(1000001, 1000001\)"),
            (",".join(f"i_{v + 1}" for v in range(25)) + ",count\n" + "1," * 25 + "3\n", r"\(2, 2, .*2\)"),
        ],
        ids=["large-level-index", "many-variables"],
    )
    def test_too_many_cells_rejected_before_allocation(self, tmp_path, text, levels):
        """The inferred cell count is checked against MAX_CSV_CELLS before the
        count vector is allocated (10^12 cells would be a 7.3 TiB np.zeros)."""
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=rf"inferred levels {levels} give \d+ cells, more than the {MAX_CSV_CELLS}"):
            load_table_csv(path)


BLANKS = ["", "   ", "\t", " , ", ",,"]


@st.composite
def csv_tables(draw):
    """CSV text of a valid table: levels 2-4, at most 256 cells, rows
    shuffled, some cells missing, blank lines and spaces around fields."""
    levels = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4).filter(
        lambda ls: int(np.prod(ls)) <= 256
    ))
    p = len(levels)
    cells = np.indices(levels).reshape(p, -1).T.tolist()
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    rows = [cell for cell, k in zip(cells, keep) if k] or [cells[-1]]
    rows = draw(st.permutations(rows))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    lines = [",".join(f"i_{v + 1}" for v in range(p)) + ",count"]
    for cell in rows:
        count = draw(st.integers(0, 10**6))
        fields = [draw(pad) + str(v) + draw(pad) for v in cell + [count]]
        lines.append(",".join(fields))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(BLANKS)))
    lead = draw(st.lists(st.sampled_from(BLANKS), max_size=2))
    return "\n".join(lead + lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


class TestCsvAgainstRowReference:
    @given(text=csv_tables())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_table_as_row_reader(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        levels, counts = load_table_csv_rows(path)
        table = load_table_csv(path)
        assert table.schema.levels == levels
        np.testing.assert_array_equal(table.counts, counts)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("i_1,i_2,count\n0,0,1\n1,1,4\n\n0,0,3\n", 5),  # duplicate
            ("i_1,i_2,count\n0,0,1\n  \n1,-1,4\n", 4),  # negative index
            ("i_1,i_2,count\n0,0,1\n1,0,-4\n", 3),  # negative count
            ("i_1,i_2,count\n0,0,1\n\n1,1\n", 4),  # too few columns
            ("i_1,i_2,count\n0,0,1\n1,1,2,3\n", 3),  # too many columns
            ("i_1,i_2,count\n0,0\n1,1\n", 2),  # every row one column short
            ("i_1,i_2,count\n0,0,1\n1,1,2.5\n", 3),  # non-integer
            ("i_1,i_2,count\n0,0,1\n1,1,100000000000000000000\n", 3),  # count above int64
            ("i_1,i_2,count\n0,0,1\n\n\n1,x,3\n", 5),  # non-integer after blank lines
        ],
        ids=["duplicate", "negative-index", "negative-count", "short-row", "long-row",
             "all-rows-short", "non-integer", "int64-overflow", "line-after-blanks"],
    )
    def test_malformed_row_names_its_file_line(self, tmp_path, text, line):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=rf"t\.csv:{line}: "):
            load_table_csv(path)
        with pytest.raises((ValueError, OverflowError)):
            load_table_csv_rows(path)

    @pytest.mark.parametrize("text", ["", "\n  \n,\n", "i_1,count\n\n , \n"])
    def test_empty_rejected(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(InputError, match="empty|no data rows"):
            load_table_csv(path)


class TestJsonRoundtrip:
    def test_roundtrip(self, table, tmp_path):
        path = tmp_path / "t.json"
        save_table_json(table, path)
        back = load_table_json(path)
        assert back.schema.levels == table.schema.levels
        np.testing.assert_array_equal(back.counts, table.counts)

    def test_all_zero_counts_allowed(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"levels": [2, 2], "counts": [0, 0, 0, 0]}')
        t = load_table_json(path)
        assert t.total == 0

    def test_extension_dispatch(self, table, tmp_path):
        jpath, cpath = tmp_path / "t.json", tmp_path / "t.csv"
        save_table_json(table, jpath)
        save_table_csv(table, cpath)
        np.testing.assert_array_equal(load_table(jpath).counts, load_table(cpath).counts)

    def test_malformed(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{}")
        with pytest.raises(InputError):
            load_table_json(path)


class TestPrior:
    def test_scalar(self):
        np.testing.assert_array_equal(load_prior("1.5", 4), np.full(4, 1.5))

    def test_nonpositive_scalar(self):
        with pytest.raises(InputError):
            load_prior("0", 4)

    def test_vector_file(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("0.5 0.5\n1.0 2.0\n")
        np.testing.assert_array_equal(load_prior(str(path), 4), [0.5, 0.5, 1.0, 2.0])

    def test_vector_length_mismatch(self, tmp_path):
        path = tmp_path / "prior.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(InputError):
            load_prior(str(path), 4)


class TestReferenceGraph:
    def test_parse(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0,1\n2 3\n\n1,0\n")
        edges = load_reference_graph(path, 4)
        assert edges == {(0, 1), (2, 3)}

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0,9\n")
        with pytest.raises(InputError):
            load_reference_graph(path, 4)

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1,1\n")
        with pytest.raises(InputError):
            load_reference_graph(path, 4)


class TestWorkerCount:
    def test_unset_uses_cores_capped_by_jobs(self, monkeypatch):
        monkeypatch.delenv("DYGAUSS_THREADS", raising=False)
        assert worker_count(1000) == (os.cpu_count() or 1)
        assert worker_count(1) == 1

    def test_huge_value_capped_without_starting_threads(self, monkeypatch):
        monkeypatch.setenv("DYGAUSS_THREADS", "1000000")
        assert worker_count(5) == min(os.cpu_count() or 1, 5)

    def test_explicit_value(self, monkeypatch):
        monkeypatch.setenv("DYGAUSS_THREADS", "1")
        assert worker_count(8) == 1

    @pytest.mark.parametrize("raw", ["0", "-1", "x", "2.5"])
    def test_invalid_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("DYGAUSS_THREADS", raw)
        with pytest.raises(InputError, match="DYGAUSS_THREADS"):
            worker_count(4)
