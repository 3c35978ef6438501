"""Columnar dataset model, CSV ingestion/serialization, and the group ids of a
written table.

Cells are kept as strings so that a load/write cycle preserves files exactly.
The missing-value marker is the literal "?" and is treated as an ordinary
value when grouping. Tables are never mutated: every operation returns a new
Table. Every file clustem writes goes through ``atomic_write``, so no output
is ever left partly written.

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
``lineterminator="\n"``.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
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
    return Table([Column(name, cells[width + j :: width]) for j, name in enumerate(header)])


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
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 temporary file next to ``path`` and move it onto ``path``
    when the block completes; on any error the temporary file is removed and
    ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
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


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def write_csv(table: Table, path: str) -> None:
    """Write ``table`` so that ``load_csv`` reads back an identical Table, by
    the quoting rules in the module docstring."""
    names = table.column_names
    columns = [c.values for c in table.columns]
    # One scan per column decides its quoting. A bare "\r" would read back as
    # a line break, so any "\r" in the table quotes every cell; a one-column
    # row of one empty cell would read back as a blank line, so it is quoted.
    lone = len(columns) == 1
    quote_all = False
    minimal = []
    for col in [names, *columns]:
        text = "".join(col)
        quote_all = quote_all or "\r" in text
        minimal.append(_needs_quotes(text) or (lone and "" in col))

    def cells(col: list[str], quote: bool) -> list[str]:
        if quote_all:
            return [_quote(c) for c in col]
        if quote:
            return [_quote(c) if _needs_quotes(c) or (lone and not c) else c for c in col]
        return col

    with atomic_write(path, newline="") as fh:
        fh.write(",".join(cells(names, minimal[0])) + "\n")
        for start in range(0, table.row_count, _BLOCK_ROWS):
            block = [
                cells(col[start : start + _BLOCK_ROWS], quote)
                for col, quote in zip(columns, minimal[1:])
            ]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def group_ids(table: Table, qi: Sequence[str]) -> np.ndarray:
    """One int64 id per row, shared by the rows with equal QI cells (ids count
    up from 0 in order of first appearance); -1 on rows whose QI cells are all
    "*", the mark of a suppressed row in a written table. "*" is also the top
    label, so a row generalized to the top of every QI gets -1 too: a written
    table cannot tell it from a suppressed row."""
    columns = [table.column(name).values for name in qi]
    suppressed = (SUPPRESSED,) * len(columns)
    ids: dict[tuple[str, ...], int] = {}
    return np.fromiter(
        (-1 if key == suppressed else ids.setdefault(key, len(ids)) for key in zip(*columns)),
        dtype=np.int64,
    )
