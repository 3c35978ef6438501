"""Independent brute-force references for the lattice search and metrics tests.

Everything here works on plain dicts and loops, deliberately sharing no code
with the production search and metrics paths.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from clustem.anonymize import PrivacyParams
from clustem.metrics import MetricReport
from clustem.tabular import Column, QiSpec, Table
from clustem.vgh import Vgh


def random_vgh(rng: np.random.Generator, attr: str, n_values: int, max_levels: int = 4) -> Vgh:
    """A random valid hierarchy: identity, up to (max_levels - 2) merge levels, "*"."""
    leaves = [f"{attr}{i}" for i in range(n_values)]
    blocks: list[list[str]] = [[leaf] for leaf in leaves]
    levels: list[dict[str, str]] = [{leaf: leaf for leaf in leaves}]
    for _ in range(int(rng.integers(0, max_levels - 1))):
        if len(blocks) <= 1 or len(levels) >= max_levels - 1:
            break
        for _ in range(int(rng.integers(1, len(blocks)))):
            if len(blocks) == 1:
                break
            i, j = sorted(rng.choice(len(blocks), size=2, replace=False))
            blocks[i] = blocks[i] + blocks[j]
            del blocks[j]
        level = {}
        for block in blocks:
            label = block[0] if len(block) == 1 else "{" + ",".join(sorted(block)) + "}"
            for leaf in block:
                level[leaf] = label
        levels.append(level)
    levels.append({leaf: "*" for leaf in leaves})
    vgh = Vgh(attr, leaves, levels)
    vgh.validate()
    return vgh


def random_instance(rng: np.random.Generator):
    """A random (table, spec, vghs, params) search problem at oracle scale."""
    m = int(rng.integers(2, 4))
    attrs = [f"q{j}" for j in range(m)]
    vghs = {a: random_vgh(rng, a, int(rng.integers(2, 6))) for a in attrs}
    n_rows = int(rng.integers(1, 51))
    columns = [
        Column(a, [str(rng.choice(vghs[a].leaves)) for _ in range(n_rows)])
        for a in attrs
    ]
    sa_domain = ["s0", "s1", "s2"][: int(rng.integers(2, 4))]
    columns.append(Column("sa", [str(rng.choice(sa_domain)) for _ in range(n_rows)]))
    table = Table(columns)
    params = PrivacyParams(
        k=int(rng.integers(1, 6)),
        l=int(rng.choice([1, 2])),
        sup_limit=float(rng.choice([0.0, 0.2, 0.5])),
    )
    return table, QiSpec(attrs, "sa"), vghs, params


def naive_suppressed(table, spec, vghs, node, params) -> list[bool]:
    """Dict-based grouping: True for every row of a group that misses k or l."""
    n = table.row_count
    qi_cols = [table.column(a).values for a in spec.qi]
    sa_col = table.column(spec.sa).values if spec.sa else None
    groups: dict[tuple, list[int]] = {}
    for i in range(n):
        key = tuple(
            vghs[a].levels[node[j]][qi_cols[j][i]] for j, a in enumerate(spec.qi)
        )
        groups.setdefault(key, []).append(i)
    mask = [False] * n
    for rows in groups.values():
        bad = len(rows) < params.k
        if not bad and params.l > 1:
            bad = len({sa_col[i] for i in rows}) < params.l
        if bad:
            for i in rows:
                mask[i] = True
    return mask


def naive_satisfied(table, spec, vghs, node, params) -> bool:
    """Suppress bad groups whole, test the suppressed fraction."""
    n = table.row_count
    if n == 0:
        return True
    return sum(naive_suppressed(table, spec, vghs, node, params)) / n <= params.sup_limit


def naive_generalize(table, spec, vghs, node, mask) -> Table:
    """Each QI cell looked up in its hierarchy level, "*" on masked rows;
    other columns are passed through."""
    columns = []
    for column in table.columns:
        if column.name not in spec.qi:
            columns.append(column)
            continue
        level = vghs[column.name].levels[node[spec.qi.index(column.name)]]
        values = ["*" if mask[i] else level[cell] for i, cell in enumerate(column.values)]
        columns.append(Column(column.name, values))
    return Table(columns)


def exhaustive_satisfying(table, spec, vghs, params) -> list[tuple[float, tuple[int, ...]]]:
    """(loss, node) for every satisfying node, by full enumeration."""
    level_counts = [vghs[a].level_count for a in spec.qi]
    out = []
    for node in itertools.product(*[range(c) for c in level_counts]):
        if naive_satisfied(table, spec, vghs, node, params):
            total = 0.0
            for level, count in zip(node, level_counts):
                total += level / (count - 1) if count > 1 else 0.0
            out.append((total / len(node), node))
    return out


def naive_report(n_rows, groups, sa_values, params, node=None) -> MetricReport:
    """The report from dict-of-row-lists groups and Counter loops; rows with
    group id -1 are suppressed."""
    members: dict[int, list[int]] = {}
    for i, gid in enumerate(groups):
        if gid >= 0:
            members.setdefault(int(gid), []).append(i)
    classes = [members[gid] for gid in sorted(members)]
    retained = sum(len(rows) for rows in classes)
    achieved_k = min((len(rows) for rows in classes), default=0)
    achieved_l = t = 0
    if sa_values is not None and classes:
        achieved_l = min(len({sa_values[i] for i in rows}) for rows in classes)
        global_counts = Counter(sa_values[i] for rows in classes for i in rows)
        t = 0.0
        for rows in classes:
            counts = Counter(sa_values[i] for i in rows)
            dist = 0.5 * sum(
                abs(counts.get(v, 0) / len(rows) - global_counts[v] / retained)
                for v in global_counts
            )
            t = max(t, dist)
    return MetricReport(
        achieved_k=achieved_k,
        achieved_l=achieved_l,
        t_closeness=float(t),
        perc_recs=retained / n_rows if n_rows else 1.0,
        c_avg=retained / (len(classes) * params.k) if retained else 0.0,
        requested=params,
        node=node,
    )
