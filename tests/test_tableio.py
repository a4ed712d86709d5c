import os

import numpy as np
import pytest

from dygauss.baselines import SampleBatch
from dygauss.parametrization import ContingencyTable, TableSchema
from dygauss.tableio import (
    InputError,
    load_batch,
    load_prior,
    load_reference_graph,
    load_table,
    load_table_csv,
    load_table_json,
    save_batch,
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


class TestBatchPersistence:
    @pytest.mark.parametrize("ext", [".npy", ".csv"])
    def test_roundtrip(self, tmp_path, ext):
        rng = np.random.default_rng(0)
        batch = SampleBatch(rng.normal(size=(20, 3)), seed=99, parametrization="corner")
        path = tmp_path / f"draws{ext}"
        save_batch(batch, path, beta=[1.0, 2.0, 3.0, 4.0])
        back = load_batch(path)
        np.testing.assert_allclose(back.draws, batch.draws, atol=1e-12)
        assert back.seed == 99
        assert back.parametrization == "corner"

    def test_unknown_extension(self, tmp_path):
        batch = SampleBatch(np.zeros((1, 1)), seed=0)
        with pytest.raises(InputError):
            save_batch(batch, tmp_path / "draws.parquet")


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
