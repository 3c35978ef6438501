from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clustem import cli, embed
from clustem.efficacy import encode
from clustem.errors import InputError
from clustem.tabular import Column, QiSpec, Table, group_ids, load_csv, write_csv
from clustem.vgh import Vgh, write_hierarchy
from conftest import make_table


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


TEXT = st.text(st.characters(blacklist_categories=("Cs",)))


@st.composite
def _tables(draw):
    """1-3 uniquely named columns of equal length holding arbitrary text."""
    names = draw(st.lists(TEXT.filter(bool), min_size=1, max_size=3, unique=True))
    n_rows = draw(st.integers(0, 4))
    cells = st.lists(TEXT, min_size=n_rows, max_size=n_rows)
    return Table([Column(name, draw(cells)) for name in names])


class TestLoadCsv:
    def test_cells_keep_their_text(self, tmp_path):
        # Loading infers no types: number-like cells keep their exact text.
        path = _write(tmp_path / "t.csv", "age,workclass\n039,State-gov\n3.90,1e2\n")
        table = load_csv(path)
        assert table.row_count == 2
        assert table.column("age").values == ["039", "3.90"]
        assert table.column("workclass").values == ["State-gov", "1e2"]

    def test_empty_body(self, tmp_path):
        table = load_csv(_write(tmp_path / "t.csv", "a,b\n"))
        assert table.row_count == 0
        assert table.column_names == ["a", "b"]

    def test_missing_marker_keeps_numeric_kind(self, tmp_path):
        # A '?' cell stays in place and does not stop the column from being
        # encoded as a numeric feature; the missing row lands on the mean.
        table = load_csv(_write(tmp_path / "t.csv", "x,w,y\n1,a,p\n?,a,n\n3,a,p\n"))
        assert table.column("x").values == ["1", "?", "3"]
        fm, _ = encode(table, table, ["w"], ["x"], {"w": ["a"]}, "y", "p")
        assert fm.data[:, -1].tolist() == [-1.0, 0.0, 1.0]

    def test_ragged_row_reports_line(self, tmp_path):
        path = _write(tmp_path / "t.csv", "a,b\n1,2\n3\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(InputError, match="duplicate"):
            load_csv(_write(tmp_path / "t.csv", "a,a\n1,2\n"))


class TestWriteCsv:
    def test_round_trip_identity(self, tmp_path):
        src = _write(tmp_path / "in.csv", "a,b\n1,x\n2,y\n")
        table = load_csv(src)
        assert table.row_count == 2
        assert table.column("a").values == ["1", "2"]
        assert table.column("b").values == ["x", "y"]
        out = tmp_path / "out.csv"
        write_csv(table, str(out))
        assert load_csv(str(out)) == table
        assert out.read_text() == (tmp_path / "in.csv").read_text()

    def test_comma_cell_is_quoted(self, tmp_path):
        table = make_table(c=["a,b"])
        out = tmp_path / "out.csv"
        write_csv(table, str(out))
        assert '"a,b"' in out.read_text()
        assert load_csv(str(out)).column("c").values == ["a,b"]

    @settings(max_examples=300, deadline=None)
    @given(table=_tables())
    @example(table=Table([Column("a", [""]), Column("b", ["\r"])]))
    @example(table=Table([Column("a", ["\r"])]))
    @example(table=Table([Column("a\rb", ["x"])]))
    def test_any_table_round_trips(self, tmp_path_factory, table):
        out = str(tmp_path_factory.mktemp("round-trip") / "t.csv")
        write_csv(table, out)
        assert load_csv(out) == table

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_csv(make_table(c=["v"]), str(tmp_path / "no" / "dir.csv"))


class TestGroupIds:
    def test_direct_partition(self):
        table = make_table(q=["a", "a", "b"])
        ids = group_ids(table, ["q"])
        assert ids.dtype == np.int64
        assert ids.tolist() == [0, 0, 1]

    def test_all_star_rows_are_excluded(self):
        table = make_table(
            q=["a", "a", "*", "*"],
            r=["x", "x", "x", "*"],
        )
        assert group_ids(table, ["q", "r"]).tolist() == [0, 0, 1, -1]

    def test_empty_table(self):
        table = make_table(q=[])
        assert group_ids(table, ["q"]).tolist() == []

    def test_missing_column(self, toy_table):
        with pytest.raises(InputError, match="nope"):
            group_ids(toy_table, ["nope"])

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from("ab*"), st.sampled_from("xy*")), max_size=12))
    def test_partition_property(self, rows):
        table = make_table(q=[q for q, _ in rows], r=[r for _, r in rows])
        ids = group_ids(table, ["q", "r"]).tolist()
        for i, row in enumerate(rows):
            assert (ids[i] == -1) == (row == ("*", "*"))
            for j, other in enumerate(rows):
                if ids[i] >= 0 and ids[j] >= 0:
                    assert (ids[i] == ids[j]) == (row == other)
        retained = sorted({gid for gid in ids if gid >= 0})
        assert retained == list(range(len(retained)))


class TestInvariants:
    def test_numeric_column_validates_cells(self, tmp_path):
        # A loaded column used as a numeric feature rejects a non-number cell
        # with an input error naming the column, the data row and the cell.
        table = load_csv(_write(tmp_path / "t.csv", "x,w,y\n1,a,p\nfoo,a,n\n"))
        with pytest.raises(InputError, match="'x', data row 2: 'foo'"):
            encode(table, table, ["w"], ["x"], {"w": ["a"]}, "y", "p")

    def test_table_rejects_ragged_columns(self):
        with pytest.raises(InputError):
            Table([Column("a", ["x"]), Column("b", ["x", "y"])])

    def test_qispec_rejects_sa_inside_qi(self):
        with pytest.raises(InputError):
            QiSpec(["a", "b"], sa="a")

    def test_qispec_requires_columns(self):
        with pytest.raises(InputError):
            QiSpec([])


def _failing_replace(src, dst):
    raise OSError("replace failed")


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_csv(make_table(c=["v"]), path),
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
            write_csv(make_table(c=["v"]), str(target))
        assert target.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []
