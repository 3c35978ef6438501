"""Columnar dataset model, CSV ingestion/serialization, and the group ids of a
written table.

Cells are kept as strings so that a load/write cycle preserves files exactly;
a column's kind only says how its cells may be interpreted. The missing-value
marker is the literal "?" and is treated as an ordinary nominal value when
grouping. Tables are never mutated: every operation returns a new Table.
Every file clustem writes goes through ``atomic_write``, so no output is ever
left partly written.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import InputError

MISSING = "?"
SUPPRESSED = "*"

NOMINAL = "nominal"
NUMERIC = "numeric"


def _parses_numeric(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


@dataclass
class Column:
    """A named column; numeric columns may still hold the "?" missing marker."""

    name: str
    kind: str
    values: list[str]

    def __post_init__(self) -> None:
        if not self.name:
            raise InputError("column names must be non-empty")
        if self.kind not in (NOMINAL, NUMERIC):
            raise InputError(f"unknown column kind {self.kind!r}")
        if self.kind == NUMERIC:
            for cell in self.values:
                if cell != MISSING and not _parses_numeric(cell):
                    raise InputError(
                        f"column {self.name!r} is numeric but cell {cell!r} does not parse"
                    )


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


def _infer_kind(cells: Iterable[str]) -> str:
    # Conservative: one unparsable cell makes the whole column nominal.
    for cell in cells:
        if cell != MISSING and not _parses_numeric(cell):
            return NOMINAL
    return NUMERIC


def load_csv(path: str, overrides: dict[str, str] | None = None) -> Table:
    """Read a comma-separated, double-quote quoted, UTF-8 file with a header row.

    Column kinds are inferred (numeric iff every non-"?" cell parses as a finite
    real), then ``overrides`` (name -> kind) are applied last.
    """
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

    overrides = overrides or {}
    for name, kind in overrides.items():
        if name not in header:
            raise InputError(f"kind override for unknown column {name!r}")
        if kind not in (NOMINAL, NUMERIC):
            raise InputError(f"unknown column kind {kind!r}")

    columns = []
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        kind = overrides.get(name, _infer_kind(cells))
        columns.append(Column(name, kind, cells))
    return Table(columns)


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
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.column_names)
        cols = [c.values for c in table.columns]
        for i in range(table.row_count):
            writer.writerow([col[i] for col in cols])


def group_ids(table: Table, qi: Sequence[str]) -> np.ndarray:
    """One int64 id per row, shared by the rows with equal QI cells (ids count
    up from 0 in order of first appearance); -1 on rows whose QI cells are all
    "*", the mark of a suppressed row in a written table."""
    columns = [table.column(name).values for name in qi]
    suppressed = (SUPPRESSED,) * len(columns)
    ids: dict[tuple[str, ...], int] = {}
    return np.fromiter(
        (-1 if key == suppressed else ids.setdefault(key, len(ids)) for key in zip(*columns)),
        dtype=np.int64,
    )
