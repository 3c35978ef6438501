"""Value generalization hierarchies built by clustering value embeddings.

A hierarchy is a list of levels, each a partition of the leaf values into
labelled blocks: level 0 is the identity, the top level is one block "*", and
each level's partition coarsens the previous one. Hierarchy files use the
";"-separated one-row-per-leaf layout common to lattice anonymizers, so
generalized set labels use "," inside braces (";" would break the file
format). This module owns that label grammar: ``_merged_levels`` writes the
set labels of ``build_vgh``'s levels, a ``Vgh`` checks labels on construction
and ``label_leaves`` reads them. Each generated level merges exactly two
blocks of the level below, so it is built from that level by relabelling
only its merged block.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import cluster
from .errors import InputError
from .tabular import SUPPRESSED, atomic_write, code_column

# The top label is the suppression mark: a written table marks a suppressed
# row by it too, and readers of that table take both as "any value".
TOP = SUPPRESSED
KMEANS = "kmeans"
WARD = "ward"
METHODS = (KMEANS, WARD)

FIELD_SEPARATOR = ";"


@dataclass(eq=False)
class Vgh:
    """A full-domain generalization hierarchy for one nominal attribute.

    ``codes[i, j]`` (int32) is leaf j's block at level i, blocks numbered in
    order of first appearance, and ``labels[i][b]`` is block b's label.
    Construction raises ``InputError`` unless the levels have the structure
    the module docstring describes. ``kmeans_repairs`` counts empty-cluster
    repairs that occurred while the hierarchy was built; it is diagnostic
    only and ignored by comparisons.
    """

    attribute: str
    leaves: list[str]
    codes: np.ndarray
    labels: list[list[str]]
    kmeans_repairs: int = 0

    @classmethod
    def from_levels(cls, attribute: str, leaves: list[str], levels: list[dict]) -> Vgh:
        """The hierarchy whose level i maps each leaf to ``levels[i][leaf]``."""
        for i, level in enumerate(levels):
            if set(level) != set(leaves):
                raise InputError(f"hierarchy for {attribute!r}: level {i} does not map every leaf")
        return cls(attribute, leaves, *_coded([level[leaf] for leaf in leaves] for level in levels))

    @property
    def level_count(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        # Blocks are numbered canonically, so equal levels have equal codes.
        return isinstance(other, Vgh) and (self.attribute, self.leaves, self.labels) == (
            other.attribute, other.leaves, other.labels
        ) and np.array_equal(self.codes, other.codes)

    def __post_init__(self) -> None:
        name, codes = f"hierarchy for {self.attribute!r}", self.codes
        if not self.leaves:
            raise InputError(f"{name} has no leaves")
        if len(set(self.leaves)) != len(self.leaves):
            raise InputError(f"{name} has duplicate leaves")
        if any(leaf in ("", TOP) for leaf in self.leaves):
            raise InputError(f"{name} has an empty or {TOP!r} leaf")
        if not self.labels:
            raise InputError(f"{name} has no levels")
        # Numbered in order of first appearance: the first code is 0, no code is
        # more than one above every code before it (compared in the codes'
        # dtype, with no int64 copy), and a level's highest code is its last
        # label.
        highest = np.maximum.accumulate(codes, axis=-1)
        counts = [len(level) for level in self.labels]
        if codes.shape != (len(counts), len(self.leaves)) or codes.min() < 0 or (
            (codes[:, 0] > 0).any() or (highest[:, 1:] - highest[:, :-1] > 1).any()
        ) or (highest[:, -1] + 1).tolist() != counts:
            raise InputError(f"{name}: codes must be levels x leaves, numbered by first appearance")
        for i, level in enumerate(self.labels):
            if TOP in level and i < len(self.labels) - 1:
                raise InputError(f"{name}: level {i} has the suppression mark {TOP!r}")
            if len(set(level)) != len(level):
                raise InputError(f"{name}: level {i} gives two blocks one label")
        for label in set().union(*self.labels):
            if FIELD_SEPARATOR in label or "\n" in label or "\r" in label:
                raise InputError(f"label {label!r} holds the field separator or a newline")
        if self.labels[0] != self.leaves:
            raise InputError(f"{name}: level 0 must be the identity")
        if self.labels[-1] != [TOP]:
            raise InputError(f"{name}: top level must map everything to {TOP!r}")
        for i in range(len(codes) - 1):
            # A leaf's block first appears where the running highest code reaches it.
            split = codes[i + 1] != codes[i + 1][np.searchsorted(highest[i], codes[i])]
            if split.any():
                block = self.labels[i][codes[i, split.argmax()]]
                raise InputError(f"{name}: level {i + 1} splits a level-{i} block ({block!r})")


def _coded(columns) -> tuple[np.ndarray, list[list[str]]]:
    """The codes and labels of levels given as one label per leaf each."""
    coded = [code_column(column) for column in columns]
    return np.array([codes for codes, _ in coded], np.int32), [labels for _, labels in coded]


def _merged_levels(values: list[str], partitions: Sequence[Sequence[int]]) -> tuple:
    """The codes and labels of a merge sequence's levels: the identity, one
    per partition, and the top. A singleton block keeps its value as label, a
    larger one gets "{" + its members sorted lexicographically, comma-joined + "}".

    Each partition joins exactly two blocks of the one before (the first, two
    singletons) and may number its blocks afresh. Blocks are kept in order of
    their first members; the later of the two blocks whose members now share
    an id joins the earlier, and only the joined block is relabelled.
    """
    codes = np.zeros((len(partitions) + 2, len(values)), dtype=np.int32)
    codes[0] = np.arange(len(values))
    blocks = [[value] for value in values]
    firsts = list(range(len(values)))  # each block's first member
    labels = [list(values)]
    for i, ids in enumerate(partitions, 1):
        owner: dict[int, int] = {}
        moved = next(b for b, first in enumerate(firsts) if owner.setdefault(ids[first], b) != b)
        kept = owner[ids[firsts.pop(moved)]]
        blocks[kept] += blocks.pop(moved)
        labels.append(labels[-1][:moved] + labels[-1][moved + 1 :])
        labels[-1][kept] = "{" + ",".join(sorted(blocks[kept])) + "}"
        codes[i] = np.where(codes[i - 1] == moved, kept, codes[i - 1] - (codes[i - 1] > moved))
    labels.append([TOP])
    return codes, labels


def label_leaves(label: str) -> list[str]:
    """The leaves a label names, as ``_merged_levels`` writes it: the members
    of a "{a,b}" set label (empty members dropped), none for the top label
    "*" (which stands for every leaf), and otherwise the label itself."""
    if label == TOP:
        return []
    if label.startswith("{") and label.endswith("}"):
        return [member for member in label[1:-1].split(",") if member]
    return [label]


def _step_seed(seed: int, step: int) -> int:
    return int(np.random.SeedSequence([seed, step]).generate_state(1)[0])


def check_values(values: Sequence[str], attribute: str) -> None:
    """Reject values no generated hierarchy can hold: none at all, a repeated
    or empty one, "*" (the top label), or one holding ",", "{" or "}" (which
    set labels use) or ";", "\\n" or "\\r" (which the hierarchy file uses)."""
    if not values:
        raise InputError(f"attribute {attribute!r} has no values to generalize")
    if len(set(values)) != len(values):
        raise InputError(f"the values of attribute {attribute!r} must be distinct")
    for value in values:
        if value in ("", TOP):
            raise InputError(
                f"value {value!r} of attribute {attribute!r} is empty or the suppression mark"
            )
        for chars, user in ((",{}", "generalized set labels"), (";\n\r", "the hierarchy file")):
            if any(c in value for c in chars):
                raise InputError(
                    f"value {value!r} of attribute {attribute!r} contains one of "
                    f"{chars!r}, used by {user}"
                )


def build_vgh(
    values: Sequence[str],
    embeddings: Mapping[str, np.ndarray],
    method: str,
    seed: int = 0,
    attribute: str = "",
) -> Vgh:
    """Build a hierarchy for ``values`` from their embeddings.

    "ward": one level per agglomerative merge. "kmeans": re-cluster the current
    cluster centers into one fewer non-empty cluster per step, levelling after
    each step, so each step also merges exactly two clusters. Either way n
    values give n + 1 levels: a final all-"*" level is always appended (and is
    the only non-identity level for a single value). Values must pass
    ``check_values``, so that every set label names exactly one block.
    """
    values = list(values)
    check_values(values, attribute)
    if method not in METHODS:
        raise InputError(f"unknown clustering method {method!r}")
    missing = [v for v in values if v not in embeddings]
    if missing:
        raise InputError(f"missing embeddings for values: {missing[:5]!r}")

    partitions: list[list[int]] = []
    repairs = 0
    if len(values) > 1:
        points = np.stack([np.asarray(embeddings[v], dtype=float) for v in values])
        if method == WARD:
            partitions = [labels.tolist() for labels in cluster.agglomerate(points)]
        else:
            centers = points.copy()
            assign = list(range(len(values)))
            for step in range(len(values) - 1):
                fit = cluster.kmeans(centers, centers.shape[0] - 1, _step_seed(seed, step))
                repairs += fit.repairs
                assign = [int(fit.labels[a]) for a in assign]
                centers = fit.centers
                partitions.append(assign)
    return Vgh(attribute, values, *_merged_levels(values, partitions), kmeans_repairs=repairs)


def write_hierarchy(vgh: Vgh, path: str) -> None:
    """Write one ";"-separated row per leaf, levels as columns, no header.

    Rows are written one at a time: the file grows with the cube of the leaf
    count, so it is never held whole in memory."""
    with atomic_write(path) as fh:
        for row in vgh.codes.T.tolist():
            fh.write(FIELD_SEPARATOR.join([labels[c] for labels, c in zip(vgh.labels, row)]) + "\n")


def read_hierarchy(path: str, attribute: str | None = None) -> Vgh:
    """Read a hierarchy file; the attribute name defaults to the file stem.

    The file is read and its labels interned one line at a time, as it is
    written, and its levels are coded once at the end, as ``from_levels``
    codes them. Its faults are reported in one order whatever their place in
    it: not UTF-8, then an empty line, then unequal widths (listing every
    width)."""
    try:
        with open(path, encoding="utf-8") as fh:
            # Only "\n" ends a line (reading turns "\r\n" and "\r" into it): a
            # label may hold any other line boundary that str.splitlines knows.
            # A label kept by many levels is held once.
            rows = [
                list(map(sys.intern, line.removesuffix("\n").split(FIELD_SEPARATOR)))
                for line in fh
            ]
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        if isinstance(exc, UnicodeDecodeError):
            # Name the byte's position in the file, not in the chunk that the
            # line reader was decoding.
            try:
                Path(path).read_bytes().decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
        raise InputError(f"cannot read hierarchy file {path}: {exc}") from exc
    if not rows or [""] in rows:
        raise InputError(f"{path}: empty line in hierarchy file")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise InputError(f"{path}: rows have unequal column counts {sorted(widths)}")
    name = attribute if attribute is not None else Path(path).stem
    return Vgh(name, [row[0] for row in rows], *_coded(zip(*rows)))
