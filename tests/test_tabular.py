from __future__ import annotations

import csv
import io
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles as oracles
from clustem import cli, embed
from clustem.efficacy import encode
from clustem.errors import InputError
from clustem.tabular import _BLOCK_ROWS, Column, QiSpec, Table, group_ids, load_csv, write_csv
from clustem.vgh import Vgh, write_hierarchy
from conftest import make_table


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
# Every character csv's quoting rules look at, and some that they pass over.
CSV_TEXT = st.text(
    st.sampled_from([",", '"', "\n", "\r", " ", "*", "?", "é", "日", "a"]), max_size=4
)


@st.composite
def _tables(draw, text=TEXT, min_columns=1, max_columns=3, max_rows=4):
    """Uniquely named columns of equal length (0 to ``max_rows``) holding ``text``."""
    names = draw(
        st.lists(text.filter(bool), min_size=min_columns, max_size=max_columns, unique=True)
    )
    n_rows = draw(st.integers(0, max_rows))
    cells = st.lists(text, min_size=n_rows, max_size=n_rows)
    return Table([Column(name, draw(cells)) for name in names])


def _csv_module_bytes(table):
    """The bytes csv.writer gives for ``table``: the reference for write_csv."""
    has_cr = any("\r" in cell for col in table.columns for cell in [col.name, *col.values])
    buf = io.StringIO(newline="")
    writer = csv.writer(
        buf, lineterminator="\n", quoting=csv.QUOTE_ALL if has_cr else csv.QUOTE_MINIMAL
    )
    writer.writerow(table.column_names)
    writer.writerows(zip(*(col.values for col in table.columns)))
    return buf.getvalue().encode("utf-8")


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
        fm, _ = encode(table, table, ["w"], ["x"], "y", "p")
        assert fm.data[:, -1].tolist() == [-1.0, 0.0, 1.0]

    def test_ragged_row_reports_line(self, tmp_path):
        path = _write(tmp_path / "t.csv", "a,b\n1,2\n3\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(path)

    def test_ragged_row_after_a_multi_line_cell_reports_its_physical_line(self, tmp_path):
        path = _write(tmp_path / "t.csv", 'a,b\n"x\ny",1\nz\n')
        with pytest.raises(InputError, match="line 4: expected 2 fields, got 1"):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(InputError, match="duplicate"):
            load_csv(_write(tmp_path / "t.csv", "a,a\n1,2\n"))


# Characters a quote-free file may hold, including the ones str.splitlines
# would split on and csv does not; then everything that sends a file to csv.
PLAIN_CHARS = st.sampled_from(["a", "?", " ", "é", "日", "\x1c", "\x85", "\u2028"])
ANY_CHARS = st.sampled_from(['"', ",", "\n", "\r", "\0", "a", " ", "é", "\x85"])


@st.composite
def _csv_files(draw):
    """File bytes: half of them rectangular quote-free "\n" files with distinct
    header names, the rest with quotes, CR, NUL, empty lines, ragged rows,
    duplicate or empty header names, or invalid UTF-8."""
    plain = draw(st.booleans())
    chars = PLAIN_CHARS if plain else ANY_CHARS
    cell = st.text(chars, max_size=3)
    width = draw(st.integers(1, 3))
    if plain:
        names = st.text(chars, min_size=1, max_size=2)
        header = draw(st.lists(names, min_size=width, max_size=width, unique=True))
        rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=5))
        newline = st.just("\n")
    else:
        names = st.sampled_from(["a", "b", "", "é"]) | cell
        header = draw(st.lists(names, min_size=width, max_size=width))
        rows = draw(st.lists(st.lists(cell, max_size=width + 1), max_size=5))
        newline = st.sampled_from(["\n", "\r\n", "\r", "\n\n"])
    text = ",".join(header)
    for row in rows:
        text += draw(newline) + ",".join(row)
    if draw(st.booleans()):
        text += draw(newline)
    data = text.encode("utf-8")
    if not plain and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


def _outcome(load, path):
    """The Table ``load`` reads from ``path``, or the text of its InputError."""
    try:
        return load(str(path))
    except InputError as exc:
        return f"InputError: {exc}"


class TestLoadCsvMatchesTheCsvModule:
    """``load_csv`` against a frozen copy of its csv-only version."""

    def test_any_file(self, tmp_path, paths_taken):
        path = tmp_path / "t.csv"

        @settings(max_examples=500, deadline=None, derandomize=True)
        @given(data=_csv_files())
        @example(data=b"")
        @example(data=b"a,b")
        @example(data=b"a\n\n")
        @example(data=b"a,b\n1,2\r\n3,4\n")
        @example(data=b"\xef\xbb\xbfa,b\n1,2\n")
        @example(data=b"a\n" + b"x\n" * 5000 + b"\xff\n")  # past the first 8 KiB read
        def check(data):
            path.write_bytes(data)
            assert _outcome(load_csv, path) == _outcome(oracles.reference_load_csv, path)

        check()
        assert paths_taken["split"] > 0 and paths_taken["csv"] > 0

    @pytest.mark.parametrize(
        "body, taken, readable",
        [
            ("xxxx,yyy\n", "split", True),  # the longest line is as long as the limit
            ("xxxx,yyyy\n", "csv", True),  # a line over the limit, every field within it
            ("xxxxxxxxx,y\n", "csv", False),  # a field over the limit
        ],
        ids=["line-at-limit", "line-over-limit", "field-over-limit"],
    )
    def test_field_size_limit(self, tmp_path, paths_taken, body, taken, readable):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n" + body, encoding="utf-8")
        limit = csv.field_size_limit(8)
        try:
            got = _outcome(load_csv, path)
            assert got == _outcome(oracles.reference_load_csv, path)
        finally:
            csv.field_size_limit(limit)
        assert paths_taken == Counter({taken: 1})
        assert isinstance(got, Table) == readable


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

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(table=_tables(CSV_TEXT, min_columns=0, max_columns=4, max_rows=6))
    @example(table=Table([Column("a", ["x", "", "y"])]))
    @example(table=Table([Column("a\rb", ["x", ""]), Column("c", ["y", "z"])]))
    @example(table=Table([Column("a", []), Column("b", [])]))
    def test_bytes_match_the_csv_module(self, tmp_path_factory, table):
        out = tmp_path_factory.mktemp("csv-bytes") / "t.csv"
        write_csv(table, str(out))
        assert out.read_bytes() == _csv_module_bytes(table)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("cell", ["a,b", 'say "hi"', "two\nlines", "", "cr\rhere"])
    def test_a_cell_past_the_first_block_decides_its_own_block(self, tmp_path, width, cell):
        # Every cell of the first block is plain; the one cell that needs
        # quotes (or, for "\r", quotes on every cell of the file) comes later.
        rows = 2 * _BLOCK_ROWS + 5
        columns = [[f"v{i % 7}" for i in range(rows)] for _ in range(width)]
        columns[-1][_BLOCK_ROWS + 3] = cell
        table = Table([Column(f"c{j}", col) for j, col in enumerate(columns)])
        out = tmp_path / "t.csv"
        write_csv(table, str(out))
        assert out.read_bytes() == _csv_module_bytes(table)
        assert load_csv(str(out)) == table

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

    def test_empty_qi_is_an_input_error(self, toy_table):
        with pytest.raises(InputError, match="at least one column"):
            group_ids(toy_table, [])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        rows=st.lists(
            st.tuples(st.sampled_from("ab*"), st.sampled_from("xy*"), st.sampled_from("*")),
            max_size=20,
        ),
        width=st.integers(1, 3),
    )
    def test_ids_match_the_reference_numbering(self, rows, width):
        table = Table([Column(f"q{j}", [row[j] for row in rows]) for j in range(3)])
        qi = [f"q{j}" for j in range(width)]
        assert group_ids(table, qi).tolist() == oracles.reference_group_ids(table, qi).tolist()

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
            encode(table, table, ["w"], ["x"], "y", "p")

    def test_column_codes_number_values_by_first_appearance(self):
        codes, distinct = Column("a", ["b", "a", "b", "c", "a"]).coding
        assert (codes.tolist(), distinct) == ([0, 1, 0, 2, 1], ["b", "a", "c"])

    def test_table_rejects_ragged_columns(self):
        with pytest.raises(InputError):
            Table([Column("a", ["x"]), Column("b", ["x", "y"])])

    def test_column_rejects_an_empty_name(self):
        with pytest.raises(InputError, match="^column names must be non-empty$"):
            Column("", ["x"])

    def test_table_rejects_duplicate_column_names(self):
        with pytest.raises(InputError, match="^duplicate column names$"):
            Table([Column("a", ["x"]), Column("a", ["y"])])

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
