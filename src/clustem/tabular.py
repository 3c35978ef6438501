"""Columnar dataset model, CSV ingestion/serialization, and the group ids of a
written table.

Cells are kept as strings so that a load/write cycle preserves files exactly.
The missing-value marker is the literal "?" and is treated as an ordinary
value when grouping. Tables are never mutated: every operation returns a new
Table. Every file clustem writes goes through ``atomic_write``, so none is
ever partly written under its own name, and ends its lines with "\n" on every OS.

``load_csv`` splits a file directly on "," and "\n" when it needs none of
the csv module's rules: UTF-8 text with no '"', "\r", NUL or empty line,
the header's comma count on every line, distinct non-empty column names and
no line longer than ``csv.field_size_limit()``. Every other file, and every
error, goes through ``csv.reader(strict=True)``; both give the same Table for
any file the direct split accepts.

A written CSV ends each row with "\n". A cell holding ",", '"' or "\n" is
wrapped in double quotes, with every '"' doubled; the empty cell of a
one-column row is written as '""'. When any cell or column name holds a
"\r", every cell is quoted. These are the bytes of ``csv.writer`` with
``QUOTE_MINIMAL`` (``QUOTE_ALL`` when there is a "\r") and
``lineterminator="\n"``. ``write_csv`` decides this from each column's
quoting rating (``Column.quoting``): 0 when no cell needs quotes, 1 when a
cell holds ",", '"' or "\n", 2 when one holds "\r". The direct split rates
its columns 0 and the generalizer rates its columns from their label lists;
any other column is rated once, by scanning its cells. A rating of 2, or a
"\r" in a column name, quotes every cell from the first row on. Otherwise a
column rated 0 is written as it is, and one rated 1, the header and a
table's only column take the per-cell rule, decided once per distinct cell
of each block of rows.

String columns are grouped through integer codes. ``code_column`` codes a
column once (``Column.coding`` keeps the result), numbering its distinct
values in order of first appearance. ``fold`` numbers rows: it numbers the
distinct rows of coded columns in lexicographic order, through a presence
table when the packed key's range is small and through a sort otherwise.
``distinct_rows`` numbers them by first appearance on top of ``fold``.
"""

from __future__ import annotations

import csv
import io
import os
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import InputError

MISSING = "?"
SUPPRESSED = "*"


@dataclass
class Column:
    """A named column of string cells."""

    name: str
    values: list[str]

    def __post_init__(self) -> None:
        if not self.name:
            raise InputError("column names must be non-empty")

    @cached_property
    def coding(self) -> tuple[np.ndarray, list[str]]:
        """``code_column(values)``, made once: a Column is never mutated. The
        codes are read-only, because every reader of the column shares them."""
        codes, distinct = code_column(self.values)
        codes.flags.writeable = False
        return codes, distinct

    @cached_property
    def quoting(self) -> int:
        """``rate_quoting(values)``, made once unless the maker of the column
        sets it from what it knows of the cells (the module docstring)."""
        return rate_quoting(self.values)


@dataclass
class Table:
    """An ordered collection of equally long columns."""

    columns: list[Column]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise InputError("duplicate column names")
        lengths = {len(c.values) for c in self.columns}
        if len(lengths) > 1:
            raise InputError("columns have differing lengths")

    @property
    def row_count(self) -> int:
        return len(self.columns[0].values) if self.columns else 0

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise InputError(f"unknown column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)


@dataclass
class QiSpec:
    """Which columns form the quasi-identifier, and the optional sensitive attribute."""

    qi: list[str]
    sa: str | None = None

    def __post_init__(self) -> None:
        if not self.qi:
            raise InputError("the quasi-identifier must name at least one column")
        if len(set(self.qi)) != len(self.qi):
            raise InputError("quasi-identifier columns must be distinct")
        if self.sa is not None and self.sa in self.qi:
            raise InputError("the sensitive attribute cannot be part of the quasi-identifier")

    def validate_against(self, table: Table) -> None:
        for name in self.qi:
            if not table.has_column(name):
                raise InputError(f"quasi-identifier column {name!r} not in table")
        if self.sa is not None and not table.has_column(self.sa):
            raise InputError(f"sensitive attribute {self.sa!r} not in table")


def load_csv(path: str) -> Table:
    """Read a comma-separated, double-quote quoted, UTF-8 file with a header row."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        table = _split_plain(data.decode("utf-8"))
    except UnicodeDecodeError:  # _read_csv reports it
        table = None
    if table is None:
        table = _read_csv(path, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    return table


def _split_plain(text: str) -> Table | None:
    r"""The table of a text that needs none of the csv module's rules (see
    the module docstring), split directly; None for any other text. Only "\n"
    ends a line: csv does not split on "\x1c", "\x85" or "\u2028", so
    neither does this."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or "" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    width = len(header)
    if len(set(header)) != width or "" in header:
        return None
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    cells = ",".join(lines).split(",")
    columns = [Column(name, cells[width + j :: width]) for j, name in enumerate(header)]
    for column in columns:
        column.quoting = 0  # no cell holds '"', "\r", "," or "\n"
    return Table(columns)


def _read_csv(path: str, stream: TextIO) -> Table:
    """Parse ``stream`` with ``csv.reader``; errors name ``path`` and the line."""
    try:
        reader = csv.reader(stream, strict=True)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: missing header row")
        if len(set(header)) != len(header):
            raise InputError(f"{path}: duplicate column names in header")
        if any(not name for name in header):
            raise InputError(f"{path}: empty column name in header")
        rows: list[list[str]] = []
        for row in reader:
            if len(row) != len(header):
                raise InputError(
                    f"{path}: line {reader.line_num}: expected {len(header)} fields,"
                    f" got {len(row)}"
                )
            rows.append(row)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc

    return Table([Column(name, [row[j] for row in rows]) for j, name in enumerate(header)])


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open a UTF-8 temporary file next to ``path``, with no newline
    translation, and move it onto ``path`` when the block completes; on any
    error the temporary file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Rows are joined and written this many at a time, so the text held in memory
# does not grow with the table.
_BLOCK_ROWS = 4096


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text


def rate_quoting(cells: Sequence[str]) -> int:
    """2 when a cell holds "\r", else 1 when one needs quotes, else 0."""
    joined = "".join(cells)
    return 2 if "\r" in joined else int(_needs_quotes(joined))


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def write_csv(table: Table, path: str) -> None:
    """Write ``table`` so that ``load_csv`` reads back an identical Table, by
    the quoting rules in the module docstring."""
    with atomic_write(path) as fh:
        _write_rows(fh, table)


def _write_rows(fh: TextIO, table: Table) -> None:
    """Write the header and the rows, a block at a time. The header's cells
    always take the per-cell rule."""
    ratings = [col.quoting for col in table.columns]
    quote_all = 2 in ratings or "\r" in "".join(table.column_names)
    lone = len(table.columns) == 1
    header = [([name], 1) for name in table.column_names]
    blocks = (
        [(col.values[start : start + _BLOCK_ROWS], r) for col, r in zip(table.columns, ratings)]
        for start in range(0, table.row_count, _BLOCK_ROWS)
    )
    for block in chain([header], blocks):
        cells = []
        for col, rating in block:
            if quote_all or rating or lone:
                # A one-column row of one empty cell would read back as a blank line.
                rendered = {
                    c: _quote(c) if quote_all or _needs_quotes(c) or (lone and not c) else c
                    for c in dict.fromkeys(col)
                }
                col = list(map(rendered.__getitem__, col))
            cells.append(col)
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def code_column(values: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """The int64 code of each value and the distinct values, numbered in order
    of first appearance: ``distinct[codes[i]] == values[i]``."""
    # A value seen for the first time takes the next code: one lookup per value.
    index = defaultdict(count().__next__)
    codes = np.fromiter(map(index.__getitem__, values), np.int64, count=len(values))
    return codes, list(index)


# A packed key whose range is at most this many times the row count is
# numbered through a presence table over the range, not a sort. On the
# per-check folds of a 5k-row search (about 1,300 rows each) the table is
# faster at every ratio seen; on random keys it stops winning between 8 and 16
# times at 100k rows.
DENSE_RANGE_FACTOR = 8


def fold(columns: Sequence[np.ndarray], radices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of the distinct rows of equal-length integer columns, in the
    rows' lexicographic order, and the distinct row keys in ascending order
    (id i has ``keys[i]``). Column j holds values in [0, radices[j]). A key
    is the row's mixed-radix number, first column most significant; where it
    could reach 2**62, the part packed so far is first renumbered densely,
    which keeps its order. Radices and row counts must stay below 2**31."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    bound = 1
    for column, radix in zip(columns, radices):
        if bound * radix >= 2**62:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct)
        key = key * radix + column
        bound *= radix
    if bound > DENSE_RANGE_FACTOR * len(key):
        keys, ids = np.unique(key, return_inverse=True)
        return ids, keys
    present = np.zeros(bound, dtype=bool)
    present[key] = True
    keys = np.flatnonzero(present)
    slot = np.empty(bound, dtype=np.int64)
    slot[keys] = np.arange(len(keys))
    return slot[key], keys


def distinct_rows(codings: Sequence[tuple[np.ndarray, list[str]]]) -> tuple[np.ndarray, ...]:
    """The distinct rows of coded columns (``Column.coding`` pairs): each
    row's id, numbered from 0 in order of first appearance, each id's first
    row (so these ascend) and each id's row count."""
    ids, _ = fold([codes for codes, _ in codings], [len(d) for _, d in codings])
    _, first, counts = np.unique(ids, return_index=True, return_counts=True)
    order = np.argsort(first)
    renumbered = np.empty(len(order), dtype=np.int64)
    renumbered[order] = np.arange(len(order))
    return renumbered[ids], first[order], counts[order]


def group_ids(table: Table, qi: Sequence[str]) -> np.ndarray:
    """One int64 id per row, shared by the rows with equal QI cells (ids count
    up from 0 in order of first appearance); -1 on rows whose QI cells are all
    "*", the mark of a suppressed row in a written table. "*" is also the top
    label, so a row generalized to the top of every QI gets -1 too: a written
    table cannot tell it from a suppressed row. ``qi`` must pass ``QiSpec``."""
    codings = [table.column(name).coding for name in QiSpec(list(qi)).qi]
    suppressed = np.ones(table.row_count, dtype=bool)
    for codes, distinct in codings:
        suppressed &= codes == (distinct.index(SUPPRESSED) if SUPPRESSED in distinct else -1)
    kept = np.flatnonzero(~suppressed)
    out = np.full(table.row_count, -1, dtype=np.int64)
    out[kept] = distinct_rows([(codes[kept], distinct) for codes, distinct in codings])[0]
    return out
