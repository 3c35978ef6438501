"""Columnar dataset model, CSV ingestion/serialization, and the group ids of a
written table.

Cells are kept as strings so that a load/write cycle preserves files exactly.
The missing-value marker is the literal "?" and is treated as an ordinary
value when grouping. Tables are never mutated: every operation returns a new
Table. Every file clustem writes goes through ``atomic_write``, so no output
is ever left partly written.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
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
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: missing header row")
            if len(set(header)) != len(header):
                raise InputError(f"{path}: duplicate column names in header")
            if any(not name for name in header):
                raise InputError(f"{path}: empty column name in header")
            rows: list[list[str]] = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise InputError(
                        f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc

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


def write_csv(table: Table, path: str) -> None:
    """Write ``table`` so that ``load_csv`` reads back an identical Table."""
    columns = [c.values for c in table.columns]
    # With "\n" as the line terminator the writer leaves a bare "\r" unquoted,
    # and the reader would take it for a line break: quote everything then.
    has_cr = any("\r" in "".join(col) for col in [table.column_names, *columns])
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(
            fh, lineterminator="\n", quoting=csv.QUOTE_ALL if has_cr else csv.QUOTE_MINIMAL
        )
        writer.writerow(table.column_names)
        writer.writerows(zip(*columns))


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
