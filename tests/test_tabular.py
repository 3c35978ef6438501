from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustem import cli, embed
from clustem.errors import InputError
from clustem.tabular import (
    NOMINAL,
    NUMERIC,
    Column,
    QiSpec,
    Table,
    group_by_qi,
    load_csv,
    write_csv,
)
from clustem.vgh import Vgh, write_hierarchy
from conftest import make_table


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_kind_inference(self, tmp_path):
        path = _write(tmp_path / "t.csv", "age,workclass\n39,State-gov\n")
        table = load_csv(path)
        assert table.row_count == 1
        assert table.column("age").kind == NUMERIC
        assert table.column("workclass").kind == NOMINAL
        assert table.column("workclass").values == ["State-gov"]

    def test_empty_body(self, tmp_path):
        table = load_csv(_write(tmp_path / "t.csv", "a,b\n"))
        assert table.row_count == 0
        assert table.column_names == ["a", "b"]

    def test_missing_marker_keeps_numeric_kind(self, tmp_path):
        # Hand-walking the inference rule over {"1", "?"}: the only non-"?"
        # cell parses, so the column stays numeric and "?" stays in place.
        table = load_csv(_write(tmp_path / "t.csv", "x\n1\n?\n"))
        assert table.column("x").kind == NUMERIC
        assert table.column("x").values == ["1", "?"]

    def test_ragged_row_reports_line(self, tmp_path):
        path = _write(tmp_path / "t.csv", "a,b\n1,2\n3\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(InputError, match="duplicate"):
            load_csv(_write(tmp_path / "t.csv", "a,a\n1,2\n"))

    def test_overrides_applied_last(self, tmp_path):
        path = _write(tmp_path / "t.csv", "x\n1\n2\n")
        assert load_csv(path, {"x": NOMINAL}).column("x").kind == NOMINAL
        with pytest.raises(InputError):
            load_csv(_write(tmp_path / "u.csv", "x\nfoo\n"), {"x": NUMERIC})

    def test_nan_and_inf_are_not_numeric(self, tmp_path):
        table = load_csv(_write(tmp_path / "t.csv", "x\n1\nnan\n"))
        assert table.column("x").kind == NOMINAL


class TestWriteCsv:
    def test_round_trip_identity(self, tmp_path):
        src = _write(tmp_path / "in.csv", "a,b\n1,x\n2,y\n")
        table = load_csv(src)
        out = tmp_path / "out.csv"
        write_csv(table, str(out))
        assert load_csv(str(out)) == table
        assert out.read_text() == (tmp_path / "in.csv").read_text()

    def test_comma_cell_is_quoted(self, tmp_path):
        table = make_table(c=("nominal", ["a,b"]))
        out = tmp_path / "out.csv"
        write_csv(table, str(out))
        assert '"a,b"' in out.read_text()
        assert load_csv(str(out)).column("c").values == ["a,b"]

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_csv(make_table(c=("nominal", ["v"])), str(tmp_path / "no" / "dir.csv"))


class TestGroupByQi:
    def test_direct_partition(self):
        table = make_table(q=("nominal", ["a", "a", "b"]))
        groups = group_by_qi(table, QiSpec(["q"]))
        assert [(g.key, g.row_indices) for g in groups] == [(("a",), [0, 1]), (("b",), [2])]

    def test_suppressed_rows_are_excluded(self):
        table = make_table(q=("nominal", ["a", "a", "b"]))
        groups = group_by_qi(table, QiSpec(["q"]), suppressed=[False, False, True])
        assert [(g.key, g.row_indices) for g in groups] == [(("a",), [0, 1])]

    def test_empty_table(self):
        table = make_table(q=("nominal", []))
        assert group_by_qi(table, QiSpec(["q"])) == []

    def test_missing_column(self, toy_table):
        with pytest.raises(InputError, match="nope"):
            group_by_qi(toy_table, QiSpec(["nope"]))

    def test_mask_length_checked(self, toy_table):
        with pytest.raises(InputError):
            group_by_qi(toy_table, QiSpec(["q"]), suppressed=[True])

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.sampled_from("abcd"), min_size=0, max_size=12),
        mask_seed=st.integers(0, 2**16),
    )
    def test_partition_property(self, values, mask_seed):
        import random

        mask = [bool(random.Random(mask_seed + i).getrandbits(1)) for i in range(len(values))]
        table = make_table(q=("nominal", list(values)))
        groups = group_by_qi(table, QiSpec(["q"]), suppressed=mask)
        seen = [i for g in groups for i in g.row_indices]
        assert sorted(seen) == [i for i in range(len(values)) if not mask[i]]
        assert len(set(seen)) == len(seen)
        assert [g.key for g in groups] == sorted(g.key for g in groups)


class TestInvariants:
    def test_table_rejects_ragged_columns(self):
        with pytest.raises(InputError):
            Table([Column("a", NOMINAL, ["x"]), Column("b", NOMINAL, ["x", "y"])])

    def test_qispec_rejects_sa_inside_qi(self):
        with pytest.raises(InputError):
            QiSpec(["a", "b"], sa="a")

    def test_qispec_requires_columns(self):
        with pytest.raises(InputError):
            QiSpec([])

    def test_numeric_column_validates_cells(self):
        with pytest.raises(InputError):
            Column("x", NUMERIC, ["1", "foo"])


def _failing_replace(src, dst):
    raise OSError("replace failed")


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_csv(make_table(c=("nominal", ["v"])), path),
            lambda path: write_hierarchy(Vgh("c", ["v"], [{"v": "v"}, {"v": "*"}]), path),
            lambda path: cli._write_json(Path(path), {"a": 1}),
            lambda path: embed._store_cache(path, "provider", {"v": np.zeros(2)}),
        ],
        ids=["csv", "hierarchy", "report", "cache"],
    )
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, write):
        monkeypatch.setattr(os, "replace", _failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            write(str(tmp_path / "out"))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.csv"
        target.write_text("old\n", encoding="utf-8")
        monkeypatch.setattr(os, "replace", _failing_replace)
        with pytest.raises(OSError):
            write_csv(make_table(c=("nominal", ["v"])), str(target))
        assert target.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []
