"""Value generalization hierarchies built by clustering value embeddings.

A hierarchy is a list of levels, each a total mapping from leaf value to a
generalized label: level 0 is the identity, the top level maps everything to
"*", and each level's partition coarsens the previous one. Hierarchy files
use the ";"-separated one-row-per-leaf layout common to lattice anonymizers,
so generalized set labels use "," inside braces (";" would break the file
format).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import cluster
from .errors import InputError
from .tabular import atomic_write

TOP = "*"
KMEANS = "kmeans"
WARD = "ward"
METHODS = (KMEANS, WARD)

FIELD_SEPARATOR = ";"


@dataclass
class Vgh:
    """A full-domain generalization hierarchy for one nominal attribute.

    ``kmeans_repairs`` counts empty-cluster repairs that occurred while the
    hierarchy was built; it is diagnostic only and ignored by comparisons.
    """

    attribute: str
    leaves: list[str]
    levels: list[dict[str, str]]
    kmeans_repairs: int = field(default=0, compare=False)

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def validate(self) -> None:
        if not self.leaves:
            raise InputError(f"hierarchy for {self.attribute!r} has no leaves")
        if len(set(self.leaves)) != len(self.leaves):
            raise InputError(f"hierarchy for {self.attribute!r} has duplicate leaves")
        if any(not leaf for leaf in self.leaves):
            raise InputError(f"hierarchy for {self.attribute!r} has an empty leaf value")
        if not self.levels:
            raise InputError(f"hierarchy for {self.attribute!r} has no levels")
        leaf_set = set(self.leaves)
        for i, level in enumerate(self.levels):
            if set(level) != leaf_set:
                raise InputError(
                    f"hierarchy for {self.attribute!r}: level {i} does not map every leaf"
                )
        for leaf in self.leaves:
            if self.levels[0][leaf] != leaf:
                raise InputError(
                    f"hierarchy for {self.attribute!r}: level 0 must be the identity"
                )
            if self.levels[-1][leaf] != TOP:
                raise InputError(
                    f"hierarchy for {self.attribute!r}: top level must map everything to '*'"
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
        label_str = group[0] if len(group) == 1 else "{" + ",".join(sorted(group)) + "}"
        for value in group:
            out[value] = label_str
    return out


def _step_seed(seed: int, step: int) -> int:
    return int(np.random.SeedSequence([seed, step]).generate_state(1)[0])


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
    the only non-identity level for a single value). Values may not contain
    ",", "{" or "}", so that every set label names exactly one block.
    """
    values = list(values)
    if not values:
        raise InputError("cannot build a hierarchy for zero values")
    if len(set(values)) != len(values):
        raise InputError("hierarchy values must be distinct")
    for value in values:
        if any(c in value for c in ",{}"):
            raise InputError(
                f"value {value!r} of attribute {attribute!r} contains ',', '{{' or '}}', "
                "which generalized set labels use"
            )
    if method not in METHODS:
        raise InputError(f"unknown clustering method {method!r}")
    missing = [v for v in values if v not in embeddings]
    if missing:
        raise InputError(f"missing embeddings for values: {missing[:5]!r}")

    levels: list[dict[str, str]] = [{v: v for v in values}]
    repairs = 0
    if len(values) > 1:
        points = np.stack([np.asarray(embeddings[v], dtype=float) for v in values])
        if method == WARD:
            levels += [get_categories(values, labels) for labels in cluster.agglomerate(points)]
        else:
            centers = points.copy()
            assign = list(range(len(values)))
            for step in range(len(values) - 1):
                fit = cluster.kmeans(centers, centers.shape[0] - 1, _step_seed(seed, step))
                repairs += fit.repairs
                assign = [int(fit.labels[a]) for a in assign]
                centers = fit.centers
                levels.append(get_categories(values, assign))
    levels.append({v: TOP for v in values})

    vgh = Vgh(attribute=attribute, leaves=values, levels=levels, kmeans_repairs=repairs)
    vgh.validate()
    return vgh


def write_hierarchy(vgh: Vgh, path: str) -> None:
    """Write one ";"-separated row per leaf, levels as columns, no header."""
    vgh.validate()
    lines = []
    for leaf in vgh.leaves:
        fields = [level[leaf] for level in vgh.levels]
        for value in fields:
            if FIELD_SEPARATOR in value or "\n" in value or "\r" in value:
                raise InputError(
                    f"hierarchy label {value!r} contains the field separator or a newline"
                )
        lines.append(FIELD_SEPARATOR.join(fields))
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_hierarchy(path: str, attribute: str | None = None) -> Vgh:
    """Read a hierarchy file; the attribute name defaults to the file stem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise InputError(f"cannot read hierarchy file {path}: {exc}") from exc
    lines = text.splitlines()
    if any(not line for line in lines) or not lines:
        raise InputError(f"{path}: empty line in hierarchy file")
    rows = [line.split(FIELD_SEPARATOR) for line in lines]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"{path}: rows have unequal column counts {sorted(widths)}")
    leaves = [r[0] for r in rows]
    if len(set(leaves)) != len(leaves):
        raise InputError(f"{path}: duplicate leaf rows")
    levels = [{row[0]: row[j] for row in rows} for j in range(widths.pop())]
    vgh = Vgh(
        attribute=attribute if attribute is not None else Path(path).stem,
        leaves=leaves,
        levels=levels,
    )
    vgh.validate()
    return vgh
