"""Privacy and utility measurements over an anonymization's retained groups.

Groups come as one id per row, -1 on suppressed rows: ``AnonymizationResult.groups``
for a search result, ``tabular.group_ids`` for a written table. They are
counted once into a (group x sensitive value) matrix, and every measurement is
read off that matrix. All measurements are taken on the retained records, and
the "global" sensitive distribution for t-closeness is computed over exactly
those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .anonymize import LatticeNode, PrivacyParams


@dataclass
class MetricReport:
    achieved_k: int
    achieved_l: int
    t_closeness: float
    perc_recs: float
    c_avg: float
    requested: PrivacyParams
    node: LatticeNode | None = None

    def to_dict(self) -> dict:
        out = {
            "achieved_k": self.achieved_k,
            "achieved_l": self.achieved_l,
            "t_closeness": self.t_closeness,
            "perc_recs": self.perc_recs,
            "c_avg": self.c_avg,
            "requested": {
                "k": self.requested.k,
                "l": self.requested.l,
                "sup_limit": self.requested.sup_limit,
            },
        }
        if self.node is not None:
            out["node"] = list(self.node)
        return out


def count_matrix(groups: np.ndarray, sa_values: Sequence[str] | None) -> np.ndarray:
    """Retained rows per (group, sensitive value): one matrix row per group id
    that holds a row, one column per sensitive value of the retained rows (a
    single column without a sensitive attribute)."""
    retained = groups >= 0
    ids = groups[retained]
    if sa_values is None:
        codes, width = np.zeros(len(ids), dtype=np.int64), 1
    else:
        values, codes = np.unique(np.asarray(sa_values)[retained], return_inverse=True)
        width = max(len(values), 1)
    rows = int(ids.max()) + 1 if len(ids) else 0
    counts = np.bincount(ids * width + codes, minlength=rows * width).reshape(rows, width)
    return counts[counts.any(axis=1)]


def perc_recs(n_rows: int, retained: int) -> float:
    """Fraction of records that survived suppression; 1.0 for an empty table."""
    if not 0 <= retained <= n_rows:
        raise ValueError(f"retained count {retained} out of range for {n_rows} rows")
    return retained / n_rows if n_rows else 1.0


def c_avg(retained_count: int, group_count: int, k: int) -> float:
    """Normalized average group size |D'| / (|groups| * k); 1.0 is optimal."""
    if retained_count == 0:
        return 0.0
    if group_count < 1:
        raise ValueError("retained records require at least one group")
    if k < 1:
        raise ValueError("k must be at least 1")
    return retained_count / (group_count * k)


def t_closeness(counts: np.ndarray) -> float:
    """Max over groups (rows of a count matrix) of the total-variation distance
    between the group's sensitive-value distribution and the distribution over
    all retained rows."""
    total = counts.sum()
    if not total:
        raise ValueError("t-closeness needs at least one retained row")
    distances = np.abs(counts / counts.sum(axis=1, keepdims=True) - counts.sum(axis=0) / total)
    return float((0.5 * distances.sum(axis=1)).max())


def achieved_privacy(counts: np.ndarray) -> tuple[int, int]:
    """(min group size, min distinct sensitive values per group) of a count
    matrix; (0, 0) when there are no groups."""
    if not len(counts):
        return 0, 0
    return int(counts.sum(axis=1).min()), int(np.count_nonzero(counts, axis=1).min())


def compute_report(
    n_rows: int,
    groups: np.ndarray,
    sa_values: Sequence[str] | None,
    params: PrivacyParams,
    node: LatticeNode | None = None,
) -> MetricReport:
    """Assemble the full report from per-row group ids; pure in its inputs.
    Without a sensitive attribute, l and t are reported as 0."""
    counts = count_matrix(groups, sa_values)
    retained = int(counts.sum())
    achieved_k, achieved_l = achieved_privacy(counts)
    with_sa = sa_values is not None
    return MetricReport(
        achieved_k=achieved_k,
        achieved_l=achieved_l if with_sa else 0,
        t_closeness=t_closeness(counts) if with_sa and retained else 0.0,
        perc_recs=perc_recs(n_rows, retained),
        c_avg=c_avg(retained, len(counts), params.k),
        requested=params,
        node=node,
    )
