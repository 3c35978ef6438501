"""Workload definitions: input sizes, the CLI calls of one repetition, and the
operations whose outputs the correctness gate checks.

Each workload makes one layer of clustem do most of the work:

- sweep-5k: the paper's k sweep at desk scale; lattice search dominates, and
  it is the only workload that runs the efficacy classifier.
- bulk-100k: 100k rows where the identity node passes at every k, so the
  search makes one check per k and the time goes to per-row work (CSV load
  and write, leaf coding, apply_node, group_by_qi, the metrics).
- highcard-vgh: `vgh build` only on high-cardinality columns; Ward and
  k-means hierarchy construction dominate, and the search, per-row and
  efficacy layers stay idle.
"""

from __future__ import annotations

from pathlib import Path

QI = ["workclass", "education", "occupation", "native-country"]
SA = "salary-class"
L_VALUE = 2
SUP_LIMIT = 0.5
HIERARCHY_SEED = 42
WARD_COLUMN = "ward_terms"
KMEANS_COLUMN = "kmeans_terms"

# "full" is the measured benchmark; "smoke" runs every code path in seconds
# and is what the harness's own tests use.
SIZES = {
    "full": {
        "sweep-5k": {"train_rows": 5000, "test_rows": 1500, "ks": [2, 10, 30, 200],
                     "eval_ks": [10, 200]},
        "bulk-100k": {"train_rows": 100_000, "ks": [2, 10, 30]},
        "highcard-vgh": {"rows": 1000, "ward_values": 300, "kmeans_values": 100,
                         "tokens": 30_000, "dim": 50, "groups": 200},
    },
    "smoke": {
        "sweep-5k": {"train_rows": 400, "test_rows": 150, "ks": [2, 5], "eval_ks": [5]},
        "bulk-100k": {"train_rows": 2000, "ks": [2, 5]},
        "highcard-vgh": {"rows": 60, "ward_values": 24, "kmeans_values": 12,
                         "tokens": 2000, "dim": 50, "groups": 20},
    },
}
WORKLOADS = list(SIZES["full"])
# Set-ups per run: setup_s is their median.
SETUPS = {"full": 5, "smoke": 2}


def input_files(workload: str, input_dir: Path) -> dict[str, Path]:
    """The generated input files of a workload, by role."""
    if workload == "highcard-vgh":
        return {"table": input_dir / "terms.csv", "vectors": input_dir / "vectors.txt"}
    files = {"train": input_dir / "train.csv", "vectors": input_dir / "vectors.txt"}
    if workload == "sweep-5k":
        files["test"] = input_dir / "test.csv"
    return files


def plan(workload: str, size: str, inputs: dict[str, Path], rep_dir: Path) -> dict:
    """CLI calls of one repetition plus the operations they must produce.

    An operation is one k output, one evaluation or one hierarchy file; each
    names the call (by index) that produces it.
    """
    params = SIZES[size][workload]
    vectors = str(inputs["vectors"])
    calls: list[dict] = []
    ops: list[dict] = []
    if workload == "highcard-vgh":
        for method, column in (("ward", WARD_COLUMN), ("kmeans", KMEANS_COLUMN)):
            out_dir = rep_dir / method
            calls.append({
                "command": "vgh_build",
                "argv": ["vgh", "build", "--input", str(inputs["table"]), "--columns", column,
                         "--method", method, "--seed", str(HIERARCHY_SEED),
                         "--vectors", vectors, "--out-dir", str(out_dir)],
            })
            ops.append({"kind": "hierarchy", "call": len(calls) - 1,
                        "path": str(out_dir / f"{column}.csv"),
                        "input": str(inputs["table"]), "column": column})
        return {"calls": calls, "ops": ops}

    ks = params["ks"]
    method = "ward" if workload == "sweep-5k" else "kmeans"
    anon_dir = rep_dir / "anon"
    calls.append({
        "command": "anonymize",
        "argv": ["anonymize", "--input", str(inputs["train"]), "--out", str(anon_dir),
                 "--qi", ",".join(QI), "--sa", SA, "--k", ",".join(map(str, ks)),
                 "--l", str(L_VALUE), "--sup-limit", str(SUP_LIMIT), "--method", method,
                 "--seed", str(HIERARCHY_SEED), "--vectors", vectors],
    })
    for attr in QI:
        ops.append({"kind": "hierarchy", "call": 0,
                    "path": str(anon_dir / "hierarchies" / f"{attr}.csv"),
                    "input": str(inputs["train"]), "column": attr})
    for k in ks:
        ops.append({"kind": "k_output", "call": 0, "dir": str(anon_dir / f"k{k}"),
                    "input": str(inputs["train"]), "k": k,
                    "hierarchy_dir": str(anon_dir / "hierarchies")})
    for k in params.get("eval_ks", []):
        out = rep_dir / f"evaluation-k{k}.json"
        calls.append({
            "command": "evaluate",
            "argv": ["evaluate", "--train", str(anon_dir / f"k{k}" / "anonymized.csv"),
                     "--test", str(inputs["test"]), "--qi", ",".join(QI), "--sa", SA,
                     "--k", str(k), "--l", str(L_VALUE), "--sup-limit", str(SUP_LIMIT),
                     "--out", str(out)],
        })
        ops.append({"kind": "evaluation", "call": len(calls) - 1, "path": str(out),
                    "k_dir": str(anon_dir / f"k{k}")})
    return {"calls": calls, "ops": ops}


def setup_plan(inputs: dict[str, Path]) -> dict:
    """What one set-up reads: every input CSV, and the word-vector provider."""
    return {
        "csv": [str(p) for role, p in inputs.items() if role != "vectors"],
        "vectors": str(inputs["vectors"]),
    }
