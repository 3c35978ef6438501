"""Correctness gate, independent of clustem: it re-reads the outputs with the
standard library and checks them against the inputs.

Each check returns a list of problems; an empty list means the operation
passed. The k-output check also returns the counts it found.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

SUPPRESSED = "*"


def sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def read_hierarchy(path: str | Path) -> list[list[str]]:
    """One list of labels per leaf: the leaf, then one label per level."""
    text = Path(path).read_text(encoding="utf-8")
    return [line.split(";") for line in text.splitlines()]


def check_hierarchy(path: str | Path, domain: set[str]) -> list[str]:
    """Level 0 lists exactly the column's values, the top level is all "*",
    and each level coarsens the one before."""
    if not Path(path).exists():
        return [f"{path}: missing"]
    rows = read_hierarchy(path)
    problems = []
    leaves = [row[0] for row in rows]
    if len(set(leaves)) != len(leaves) or set(leaves) != domain:
        problems.append(f"{path}: level 0 is not the identity over the column's values")
    widths = {len(row) for row in rows}
    if len(widths) != 1 or widths.pop() < 2:
        return problems + [f"{path}: rows have unequal or too few levels"]
    if any(row[-1] != SUPPRESSED for row in rows):
        problems.append(f"{path}: top level is not all '*'")
    for level in range(1, len(rows[0])):
        up: dict[str, str] = {}
        for row in rows:
            if up.setdefault(row[level - 1], row[level]) != row[level]:
                problems.append(f"{path}: level {level} splits a level-{level - 1} block")
                break
    return problems


def hierarchy_levels(path: str | Path) -> int:
    rows = read_hierarchy(path)
    return len(rows[0]) if rows else 0


def check_k_output(out_dir: str | Path, header: list[str], rows: list[list[str]],
                   qi: list[str], sa: str, k: int, l_value: int, sup_limit: float,
                   hierarchy_dir: str | Path) -> tuple[list[str], dict]:
    """Regroup anonymized.csv on its own: rows whose QI cells are all "*" are
    suppressed; every retained group must hold at least k rows and l distinct
    sensitive values, the suppressed share must stay within the limit, every
    retained QI cell must be its leaf's label at the reported node's level,
    and non-QI cells must be untouched."""
    out_dir = Path(out_dir)
    csv_path, report_path = out_dir / "anonymized.csv", out_dir / "report.json"
    if not csv_path.exists() or not report_path.exists():
        return [f"{out_dir}: anonymized.csv or report.json missing"], {}
    out_header, out_rows = read_csv(csv_path)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if out_header != header or len(out_rows) != len(rows):
        return [f"{csv_path}: header or row count differs from the input"], {}
    qi_idx = [header.index(attr) for attr in qi]
    sa_idx = header.index(sa)
    other_idx = [j for j in range(len(header)) if j not in qi_idx]
    node = report.get("node")
    if not isinstance(node, list) or len(node) != len(qi):
        return [f"{report_path}: no node of length {len(qi)}"], {}
    label_at = []
    for attr, level in zip(qi, node):
        path = Path(hierarchy_dir) / f"{attr}.csv"
        if not path.exists():
            return [f"{path}: missing"], {}
        label_at.append({row[0]: row[level] for row in read_hierarchy(path)})

    problems = []
    groups: dict[tuple, list] = {}
    suppressed = 0
    for original, row in zip(rows, out_rows):
        if any(row[j] != original[j] for j in other_idx):
            problems.append(f"{csv_path}: a non-QI cell changed")
            break
        cells = tuple(row[j] for j in qi_idx)
        if all(cell == SUPPRESSED for cell in cells):
            suppressed += 1
            continue
        if any(label_at[a].get(original[j]) != cells[a] for a, j in enumerate(qi_idx)):
            problems.append(f"{csv_path}: a QI cell is not its leaf's label at node {node}")
            break
        group = groups.setdefault(cells, [0, set()])
        group[0] += 1
        group[1].add(row[sa_idx])

    min_size = min((g[0] for g in groups.values()), default=0)
    min_distinct = min((len(g[1]) for g in groups.values()), default=0)
    share = suppressed / len(rows) if rows else 0.0
    if groups and min_size < k:
        problems.append(f"{csv_path}: a group of {min_size} rows is below k={k}")
    if groups and min_distinct < l_value:
        problems.append(f"{csv_path}: a group with {min_distinct} sensitive values is below l")
    if share > sup_limit:
        problems.append(f"{csv_path}: suppressed share {share:.4f} exceeds {sup_limit}")
    if report.get("suppressed_count") != suppressed:
        problems.append(f"{report_path}: suppressed_count disagrees with the table")
    retained = len(rows) - suppressed
    perc = retained / len(rows) if rows else 1.0
    if abs(float(report.get("perc_recs", -1.0)) - perc) > 1e-9:
        problems.append(f"{report_path}: perc_recs disagrees with the table")
    counts = {
        "suppressed_rows": suppressed,
        "retained_groups": len(groups),
        "min_group_size": min_size,
        "perc_recs": perc,
        "loss": report.get("loss"),
        "node": node,
        "kmeans_repairs": (report.get("meta") or {}).get("kmeans_repairs"),
    }
    return problems, counts


def check_evaluation(path: str | Path, k_counts: dict) -> tuple[list[str], dict]:
    """The evaluation report exists, its privacy numbers match the regrouped
    training table, and accuracy and F1 are proper fractions."""
    if not Path(path).exists():
        return [f"{path}: missing"], {}
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    efficacy = report.get("efficacy") or {}
    problems = []
    for name in ("accuracy", "f1"):
        value = efficacy.get(name)
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            problems.append(f"{path}: {name} is not a fraction")
    if k_counts and report.get("achieved_k") != k_counts["min_group_size"]:
        problems.append(f"{path}: achieved_k disagrees with the regrouped table")
    if k_counts and abs(float(report.get("perc_recs", -1.0)) - k_counts["perc_recs"]) > 1e-9:
        problems.append(f"{path}: perc_recs disagrees with the regrouped table")
    return problems, {"accuracy": efficacy.get("accuracy"), "f1": efficacy.get("f1")}


def without_timestamps(path: str | Path) -> dict:
    """A JSON report minus its wall-clock fields, for comparing repetitions."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    meta = report.get("meta") or {}
    for key in ("started_at", "finished_at"):
        meta.pop(key, None)
    return report
