"""The CLI end to end on small adversarial inputs, against the brute-force
references: exit codes, what is written on an error, each k's optimum, and
the reports against a regrouping of the written table."""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _oracles as oracles
from clustem.anonymize import PrivacyParams
from clustem.cli import main
from clustem.embed import preprocess
from clustem.tabular import Column, QiSpec, Table, group_ids, load_csv
from clustem.vgh import read_hierarchy
from conftest import tree

# One value in six is text over an alphabet of the characters that CSV
# quoting, hierarchy files, set labels and the suppression mark treat
# specially; the others are plain values, so that most runs get past the
# input checks.
ALPHABET = "ab *?\"' é日,{};\r"
PLAIN = ["a", "b", "B", "a b", "é", "日", "?", "a'b", 'a"b', "a*", "b?"]
VALUES = st.integers(0, 5).flatmap(
    lambda i: st.text(ALPHABET, min_size=1, max_size=3) if i == 3 else st.sampled_from(PLAIN)
)


@st.composite
def runs(draw):
    """A table, its hierarchy sources, and the flags of one anonymize run."""
    n_rows = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))  # picks each row's cells
    qi = [f"q{j}" for j in range(draw(st.integers(1, 3)))]
    columns, files = {}, {}
    for attr in qi:
        values = list(dict.fromkeys(draw(st.lists(VALUES, min_size=1, max_size=5))))
        columns[attr] = [values[i] for i in rng.integers(0, len(values), n_rows)]
        if draw(st.booleans()):  # a hierarchy file rather than a generated hierarchy
            leaves = values + [f"x{i}" for i in range(draw(st.integers(0, 2)))]
            if draw(st.integers(0, 3)) == 0:
                leaves.remove(draw(st.sampled_from(values)))  # a value that is no leaf
            files[attr] = (leaves, draw(st.integers(0, 2**32 - 1)))
    sa_values = list(dict.fromkeys(draw(st.lists(VALUES | st.just(""), min_size=2, max_size=3))))
    columns["s"] = [sa_values[i] for i in rng.integers(0, len(sa_values), n_rows)]
    ks = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True))
    # A file in the way of an output: a k directory of a sweep, or the
    # directory of the generated hierarchies.
    blockable = [f"k{k}" for k in ks if len(ks) > 1] + ["hierarchies"] * (len(files) < len(qi))
    return {
        "table": Table([Column(name, values) for name, values in columns.items()]),
        "qi": qi,
        "sa": draw(st.sampled_from(["s", "s", None])),
        "files": files,
        "ks": ks,
        "blocker": draw(st.sampled_from([None, None, None, *blockable])),
        "l": draw(st.sampled_from([1, 1, 2, 3])),
        "sup_limit": draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])),
        "method": draw(st.sampled_from(["ward", "kmeans"])),
        "vector_seed": draw(st.integers(0, 2**32 - 1)),
        "token_missing": draw(st.integers(0, 5)) == 3,  # from the word-vector file
    }


def hierarchy_text(leaves: list[str], seed: int) -> str:
    """``_oracles.random_vgh``'s shape over ``leaves``, as a hierarchy file;
    set labels are rebuilt from the leaves, which may break the format."""
    if not leaves:
        return ""
    shape = oracles.random_vgh(np.random.default_rng(seed), "h", len(leaves))
    name = dict(zip(shape.leaves, leaves))
    lines = []
    for leaf in shape.leaves:
        row = []
        for level in shape.levels:
            block = sorted(name[other] for other in shape.leaves if level[other] == level[leaf])
            label = level[leaf]
            if label != "*":
                label = block[0] if len(block) == 1 else "{" + ",".join(block) + "}"
            row.append(label)
        lines.append(";".join(row))
    return "\n".join(lines) + "\n"


def write_inputs(root: Path, run: dict) -> dict[str, str]:
    table = run["table"]
    data = root / "data.csv"
    rows = list(zip(*(column.values for column in table.columns)))
    # csv.writer leaves a lone "\r" unquoted unless it quotes every cell.
    quoting = csv.QUOTE_ALL if any("\r" in "".join(row) for row in rows) else csv.QUOTE_MINIMAL
    with open(data, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
        writer.writerow(table.column_names)
        writer.writerows(rows)
    generated = [attr for attr in run["qi"] if attr not in run["files"]]
    tokens = sorted({t for a in generated for v in table.column(a).values for t in preprocess(v)})
    if run["token_missing"]:
        tokens = tokens[1:]
    rng = np.random.default_rng(run["vector_seed"])
    vectors = root / "vectors.txt"
    lines = [f"{t} {x} {y}\n" for t in tokens for x, y in [rng.integers(-2, 3, size=2)]]
    vectors.write_text(f"{len(tokens)} 2\n" + "".join(lines), encoding="utf-8")
    hierarchies = root / "given"
    hierarchies.mkdir()
    for attr, (leaves, seed) in run["files"].items():
        (hierarchies / f"{attr}.csv").write_text(hierarchy_text(leaves, seed), encoding="utf-8")
    return {"data": str(data), "vectors": str(vectors), "hierarchies": str(hierarchies)}


def optimum(table, spec, vghs, params) -> tuple[float, tuple[int, ...], bool]:
    """The exhaustive optimum (loss, node, satisfied) in the search's order,
    or the all-top node when no node passes."""
    satisfying = oracles.exhaustive_satisfying(table, spec, vghs, params)
    if not satisfying:
        return 1.0, tuple(vghs[a].level_count - 1 for a in spec.qi), False
    loss, node = min(satisfying, key=lambda s: (s[0], sum(s[1]), s[1]))
    return loss, node, True


def regrouped(written: Table, spec: QiSpec, params: PrivacyParams):
    """The report that the written table's own grouping gives."""
    ids = group_ids(written, spec.qi)
    sa_values = written.column(spec.sa).values if spec.sa else None
    return ids, oracles.naive_report(written.row_count, ids, sa_values, params)


def evaluate(paths: dict, run_dir: Path, spec: QiSpec, params: PrivacyParams, positive: str):
    out = run_dir / "evaluation.json"
    code = main(
        [
            "evaluate",
            "--train", str(run_dir / "anonymized.csv"),
            "--test", paths["data"],
            "--qi", ",".join(spec.qi),
            "--sa", spec.sa,
            "--k", str(params.k),
            "--l", str(params.l),
            "--sup-limit", str(params.sup_limit),
            "--positive-class", positive,
            "--out", str(out),
        ]
    )
    assert code == 0
    return json.loads(out.read_text(encoding="utf-8"))


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(run=runs())
def test_anonymize_ends_in_a_documented_state(tmp_path, capsys, run):
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        root = Path(scratch)
        paths = write_inputs(root, run)
        out = root / "out"
        before = None
        if run["blocker"]:
            out.mkdir()
            (out / run["blocker"]).write_text("keep\n", encoding="utf-8")
            before = tree(out)
        args = [
            "anonymize",
            "--input", paths["data"],
            "--out", str(out),
            "--qi", ",".join(run["qi"]),
            "--k", ",".join(map(str, run["ks"])),
            "--l", str(run["l"]),
            "--sup-limit", str(run["sup_limit"]),
            "--method", run["method"],
            "--hierarchies-dir", paths["hierarchies"],
            "--vectors", paths["vectors"],
        ]
        if run["sa"]:
            args += ["--sa", run["sa"]]
        code = main(args)
        assert "Traceback" not in capsys.readouterr().err
        assert code in ((2, 3) if run["blocker"] else (0, 1, 2, 3))
        if code in (2, 3):
            assert (tree(out) if out.exists() else None) == before
            return

        table, spec = run["table"], QiSpec(run["qi"], run["sa"])
        vghs = {
            attr: read_hierarchy(
                str(Path(paths["hierarchies"] if attr in run["files"] else out / "hierarchies")
                    / f"{attr}.csv"),
                attribute=attr,
            )
            for attr in spec.qi
        }
        tops = [vghs[attr].level_count - 1 for attr in spec.qi]
        sa_classes = sorted(set(table.column("s").values))
        satisfied = []
        for k in run["ks"]:
            params = PrivacyParams(k, run["l"], run["sup_limit"])
            run_dir = out if len(run["ks"]) == 1 else out / f"k{k}"
            report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
            loss, node, passed = optimum(table, spec, vghs, params)
            assert (report["loss"], report["node"]) == (loss, list(node))
            assert report["satisfied"] == passed
            satisfied.append(passed)
            if report["node"] == tops:
                continue  # its rows read as suppressed in the written table
            written = load_csv(str(run_dir / "anonymized.csv"))
            ids, want = regrouped(written, spec, params)
            assert report["suppressed_count"] == int((ids < 0).sum())
            for field in ("achieved_k", "achieved_l", "perc_recs", "c_avg"):
                assert report[field] == getattr(want, field), field
            assert report["t_closeness"] == pytest.approx(want.t_closeness, abs=1e-12)
            if spec.sa and len(sa_classes) == 2:
                evaluated = evaluate(paths, run_dir, spec, params, sa_classes[0])
                assert evaluated["achieved_k"] == report["achieved_k"]
                assert evaluated["perc_recs"] == report["perc_recs"]
        assert code == (0 if all(satisfied) else 1)
