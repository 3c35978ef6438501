"""Value generalization hierarchies built by clustering value embeddings.

A hierarchy is a list of levels, each a total mapping from leaf value to a
generalized label: level 0 is the identity, the top level maps everything to
"*", and each level's partition coarsens the previous one. Hierarchy files
use the ";"-separated one-row-per-leaf layout common to lattice anonymizers,
so generalized set labels use "," inside braces (";" would break the file
format). This module owns that label grammar: ``_set_label`` is the one
writer of set labels, for ``get_categories`` and for ``build_vgh``'s levels,
a ``Vgh`` checks labels on construction and ``label_leaves`` reads them. Each
generated level merges exactly two blocks of the level below, so it is built
from that level by relabelling only its merged block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import cluster
from .errors import InputError
from .tabular import SUPPRESSED, atomic_write

# The top label is the suppression mark: a written table marks a suppressed
# row by it too, and readers of that table take both as "any value".
TOP = SUPPRESSED
KMEANS = "kmeans"
WARD = "ward"
METHODS = (KMEANS, WARD)

FIELD_SEPARATOR = ";"


@dataclass
class Vgh:
    """A full-domain generalization hierarchy for one nominal attribute.

    Construction raises ``InputError`` unless the levels have the structure
    the module docstring describes. ``kmeans_repairs`` counts empty-cluster
    repairs that occurred while the hierarchy was built; it is diagnostic
    only and ignored by comparisons.
    """

    attribute: str
    leaves: list[str]
    levels: list[dict[str, str]]
    kmeans_repairs: int = field(default=0, compare=False)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def __post_init__(self) -> None:
        if not self.leaves:
            raise InputError(f"hierarchy for {self.attribute!r} has no leaves")
        if len(set(self.leaves)) != len(self.leaves):
            raise InputError(f"hierarchy for {self.attribute!r} has duplicate leaves")
        if any(leaf in ("", TOP) for leaf in self.leaves):
            raise InputError(f"hierarchy for {self.attribute!r} has an empty or {TOP!r} leaf")
        if not self.levels:
            raise InputError(f"hierarchy for {self.attribute!r} has no levels")
        leaf_set = set(self.leaves)
        for i, level in enumerate(self.levels):
            if set(level) != leaf_set:
                raise InputError(
                    f"hierarchy for {self.attribute!r}: level {i} does not map every leaf"
                )
            labels = set(level.values())
            if TOP in labels and i < len(self.levels) - 1:
                raise InputError(
                    f"hierarchy for {self.attribute!r}: level {i} has the suppression mark {TOP!r}"
                )
            for label in labels:
                if FIELD_SEPARATOR in label or "\n" in label or "\r" in label:
                    raise InputError(f"label {label!r} holds the field separator or a newline")
        for leaf in self.leaves:
            if self.levels[0][leaf] != leaf:
                raise InputError(
                    f"hierarchy for {self.attribute!r}: level 0 must be the identity"
                )
            if self.levels[-1][leaf] != TOP:
                raise InputError(
                    f"hierarchy for {self.attribute!r}: top level must map everything to {TOP!r}"
                )
        for i in range(len(self.levels) - 1):
            fine, coarse = self.levels[i], self.levels[i + 1]
            seen: dict[str, str] = {}
            for leaf in self.leaves:
                label = fine[leaf]
                if label in seen:
                    if seen[label] != coarse[leaf]:
                        raise InputError(
                            f"hierarchy for {self.attribute!r}: level {i + 1} splits a "
                            f"level-{i} block ({label!r})"
                        )
                else:
                    seen[label] = coarse[leaf]


def _set_label(members: Sequence[str]) -> str:
    """The label of one block, as ``get_categories`` describes it."""
    return members[0] if len(members) == 1 else "{" + ",".join(sorted(members)) + "}"


def get_categories(values: Sequence[str], labels: Sequence[int]) -> dict[str, str]:
    """Label each value by its cluster: singletons keep their raw value, larger
    clusters get "{" + members sorted lexicographically, comma-joined + "}"."""
    if len(values) != len(labels):
        raise InputError("labels must parallel values")
    members: dict[int, list[str]] = {}
    for value, label in zip(values, labels):
        members.setdefault(int(label), []).append(value)
    out: dict[str, str] = {}
    for group in members.values():
        out.update(dict.fromkeys(group, _set_label(group)))
    return out


def _merged_levels(values: list[str], partitions: Sequence[Sequence[int]]) -> list[dict[str, str]]:
    """``get_categories(values, p)`` for each partition p of a merge sequence.

    Each partition joins exactly two blocks of the one before (the first, two
    singletons) and may number its blocks afresh. A block is named by its first
    member's index; the later of the two blocks whose members now share an id
    joins the earlier, and only the joined block is relabelled.
    """
    blocks = {i: [value] for i, value in enumerate(values)}
    level = {value: value for value in values}
    levels = []
    for ids in partitions:
        owner: dict[int, int] = {}
        moved = next(first for first in blocks if owner.setdefault(ids[first], first) != first)
        block = blocks[owner[ids[moved]]]
        block += blocks.pop(moved)
        level = level | dict.fromkeys(block, _set_label(block))
        levels.append(level)
    return levels


def label_leaves(label: str) -> list[str]:
    """The leaves a label names, as ``_set_label`` writes it: the members
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
    levels = [{v: v for v in values}, *_merged_levels(values, partitions), {v: TOP for v in values}]

    return Vgh(attribute=attribute, leaves=values, levels=levels, kmeans_repairs=repairs)


def write_hierarchy(vgh: Vgh, path: str) -> None:
    """Write one ";"-separated row per leaf, levels as columns, no header.

    Rows are written one at a time: the file grows with the cube of the leaf
    count, so it is never held whole in memory."""
    with atomic_write(path) as fh:
        for leaf in vgh.leaves:
            fh.write(FIELD_SEPARATOR.join([level[leaf] for level in vgh.levels]) + "\n")


def read_hierarchy(path: str, attribute: str | None = None) -> Vgh:
    """Read a hierarchy file; the attribute name defaults to the file stem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise InputError(f"cannot read hierarchy file {path}: {exc}") from exc
    # Only "\n" ends a line (read_text turns "\r\n" and "\r" into it): a label
    # may hold any other line boundary that str.splitlines knows.
    lines = text.removesuffix("\n").split("\n")
    if not all(lines):
        raise InputError(f"{path}: empty line in hierarchy file")
    rows = [line.split(FIELD_SEPARATOR) for line in lines]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"{path}: rows have unequal column counts {sorted(widths)}")
    levels = [{row[0]: row[j] for row in rows} for j in range(widths.pop())]
    return Vgh(
        attribute=attribute if attribute is not None else Path(path).stem,
        leaves=[row[0] for row in rows],
        levels=levels,
    )
