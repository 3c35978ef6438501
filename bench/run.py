"""Benchmark of the clustem CLI on three workloads (see workloads.py).

    python3 bench/run.py --workload sweep-5k --seed 11 --seconds 15 --trace 0

Run it from the repository root. Inputs are generated from --seed (cached
under .bench-work/inputs, outside the timing). One run then:

1. times several fresh interpreters that import clustem, read the inputs with
   `load_csv` and build the word-vector provider (setup_s is their median);
2. starts one fresh interpreter per repetition, which calls
   `clustem.cli.main` for each command of the workload, until --seconds of
   repetitions have run (at least one; wall_s is their median);
3. with --trace 1, adds one traced repetition whose spans give the
   per-layer metrics;
4. checks every output with the benchmark's own code (checks.py) and that
   all repetitions wrote byte-identical CSV and hierarchy files.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
wall_s and setup_s are in reference seconds: the wall time rescaled by the
CPU speed that speed.py samples inside the child while it runs. The
full record, with digests, counters and the environment stamp, is written to
.bench-work/results/. Only one child runs at a time, and no threads are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import checks
from workloads import (L_VALUE, QI, SA, SETUPS, SUP_LIMIT, WORKLOADS, input_files, plan,
                       setup_plan)

BENCH_DIR = Path(__file__).resolve().parent
WORK = Path(".bench-work")
CHILD_TIMEOUT_S = 170
# Pinned in every child: one BLAS/OpenMP thread, fixed string hashing.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# Per-layer metric -> (how it is derived, the clustem function or layer):
# "self" sums the self time of the function's spans (a span's duration minus
# the time its child spans cover), "label" and "count" are filled in by the
# tracer's hooks on that function, and "layer" sums the self time of every
# span of one module.
PER_LAYER = {
    "anonymize.search_s": ("self", "anonymize.search"),
    "anonymize.search_s.k2": ("label", "anonymize.search"),
    "anonymize.search_s.k10": ("label", "anonymize.search"),
    "anonymize.search_s.k30": ("label", "anonymize.search"),
    "anonymize.search_s.k200": ("label", "anonymize.search"),
    "anonymize.apply_node_s": ("self", "anonymize.apply_node"),
    "anonymize.generate_vghs_s": ("self", "anonymize.generate_vghs"),
    "anonymize.lattice_nodes": ("count", "anonymize.search"),
    "anonymize.self_s": ("layer", "anonymize"),
    "tabular.load_csv_s": ("self", "tabular.load_csv"),
    "tabular.write_csv_s": ("self", "tabular.write_csv"),
    "tabular.group_by_qi_s": ("self", "tabular.group_by_qi"),
    "tabular.rows": ("count", "tabular.load_csv"),
    "tabular.self_s": ("layer", "tabular"),
    "metrics.compute_report_s": ("self", "metrics.compute_report"),
    "metrics.t_closeness_s": ("self", "metrics.t_closeness"),
    "metrics.achieved_privacy_s": ("self", "metrics.achieved_privacy"),
    "metrics.self_s": ("layer", "metrics"),
    "cluster.agglomerate_s": ("self", "cluster.agglomerate"),
    "cluster.ward_merge_s": ("self", "cluster.ward_merge"),
    "cluster.kmeans_s": ("self", "cluster.kmeans"),
    "cluster.kmeans.calls": ("count", "cluster.kmeans"),
    "cluster.kmeans.repairs": ("count", "cluster.kmeans"),
    "cluster.self_s": ("layer", "cluster"),
    "vgh.build_vgh.ward_s": ("label", "vgh.build_vgh"),
    "vgh.build_vgh.kmeans_s": ("label", "vgh.build_vgh"),
    "vgh.get_categories_s": ("self", "vgh.get_categories"),
    "vgh.write_hierarchy_s": ("self", "vgh.write_hierarchy"),
    "vgh.hierarchy_bytes": ("count", "vgh.write_hierarchy"),
    "vgh.levels": ("count", "vgh.build_vgh"),
    "vgh.self_s": ("layer", "vgh"),
    "embed.provider_init_s": ("self", "embed.create_provider"),
    "embed.embed_all_s": ("self", "embed.embed_all"),
    "embed.values_embedded": ("count", "embed.embed_all"),
    "embed.self_s": ("layer", "embed"),
    "efficacy.encode_s": ("self", "efficacy.encode"),
    "efficacy.train_classifier_s": ("self", "efficacy.train_classifier"),
    "efficacy.infer_leaves_s": ("self", "efficacy.infer_leaves"),
    "efficacy.self_s": ("layer", "efficacy"),
    "cli.self_s": ("layer", "cli"),
    "cli.anonymize_s": ("label", "cli.main"),
    "cli.evaluate_s": ("label", "cli.main"),
    "cli.vgh_build_s": ("label", "cli.main"),
}
QUALITY = ["quality.info_loss", "quality.retained_frac", "quality.accuracy", "quality.f1"]
UNITS = {"tabular.rows": "rows", "anonymize.lattice_nodes": "count",
         "cluster.kmeans.calls": "count", "cluster.kmeans.repairs": "count",
         "vgh.hierarchy_bytes": "bytes", "vgh.levels": "count",
         "embed.values_embedded": "count", **{name: "ratio" for name in QUALITY}}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _sha256_files(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), str(Path("tests").resolve())])
    env.update(CHILD_ENV)
    return env


def _stamp() -> dict:
    commit = None
    if Path(".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=30)
            commit = out.stdout.strip() or None
        except OSError:  # no git on this machine; the source digest still identifies the code
            pass
    return {
        "commit": commit,
        "source_sha256": _sha256_files(sorted(Path("src/clustem").glob("*.py"))),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "child_env": CHILD_ENV,
        "started_at": datetime.now(timezone.utc).isoformat(),
    }


def ensure_inputs(workload: str, seed: int, size: str) -> dict[str, Path]:
    input_dir = WORK / "inputs" / size / workload / f"seed{seed}"
    subprocess.run([sys.executable, str(BENCH_DIR / "gen.py"), workload, str(seed), size,
                    str(input_dir)], env=_child_env(), check=True, timeout=600,
                   stdout=sys.stderr)
    return input_files(workload, input_dir)


def time_setup(plan_path: Path) -> tuple[float, float]:
    """(reference, wall) seconds from starting a fresh interpreter until its
    set-up is done, both without the speed probes' own time. The child's
    sampled speed also rates the interpreter start-up before its sampler."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH_DIR / "child.py"), "setup", str(plan_path)],
                          stdout=subprocess.PIPE, env=_child_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    word, _, reading = line.decode().partition(" ")
    if word.strip() != "ready" or code != 0:
        raise BenchError(f"set-up child failed with exit code {code}")
    reading = json.loads(reading)
    wall = elapsed - reading["probe_s"]
    return wall * reading["ref_s"] / (reading["window_s"] - reading["probe_s"]), wall


def run_rep(rep_plan: dict, rep_dir: Path, trace: bool) -> tuple[dict | None, float]:
    """One repetition in a fresh interpreter: (child result or None, wall seconds)."""
    rep_dir.mkdir(parents=True)
    plan_path, result_path = rep_dir / "plan.json", rep_dir / "result.json"
    plan_path.write_text(json.dumps(rep_plan), encoding="utf-8")
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "run",
                               str(plan_path), str(result_path), "1" if trace else "0"],
                              env=_child_env(), stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        ok = proc.returncode == 0
    except subprocess.TimeoutExpired:
        ok = False
    elapsed = time.perf_counter() - started
    if not ok or not result_path.exists():
        return None, elapsed
    return json.loads(result_path.read_text(encoding="utf-8")), elapsed


def _fingerprint(op: dict) -> dict:
    """What must be identical across repetitions: file digests and reports
    without their timestamps."""
    if op["kind"] == "hierarchy":
        return {"sha256": checks.sha256(op["path"])}
    if op["kind"] == "evaluation":
        return {"report": checks.without_timestamps(op["path"])}
    out_dir = Path(op["dir"])
    return {"sha256": checks.sha256(out_dir / "anonymized.csv"),
            "report": checks.without_timestamps(out_dir / "report.json")}


class Gate:
    """Checks every operation of every repetition and gathers the counters."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: set[tuple[int, str]] = set()  # (repetition, operation)
        self.problems: list[str] = []
        self._reps = 0
        self.reference: dict[str, dict] = {}
        self.counts: dict[str, dict] = {}
        self._tables: dict[str, tuple[list[str], list[list[str]]]] = {}

    def _table(self, path: str):
        if path not in self._tables:
            self._tables[path] = checks.read_csv(path)
        return self._tables[path]

    def _check_first(self, op: dict) -> list[str]:
        if op["kind"] == "hierarchy":
            header, rows = self._table(op["input"])
            j = header.index(op["column"])
            problems = checks.check_hierarchy(op["path"], {row[j] for row in rows})
            if not problems:
                self.counts[op["name"]] = {"levels": checks.hierarchy_levels(op["path"]),
                                           "bytes": os.path.getsize(op["path"])}
            return problems
        if op["kind"] == "k_output":
            header, rows = self._table(op["input"])
            problems, counts = checks.check_k_output(
                op["dir"], header, rows, QI, SA, op["k"], L_VALUE, SUP_LIMIT,
                op["hierarchy_dir"])
            self.counts[op["name"]] = counts
            return problems
        problems, counts = checks.check_evaluation(op["path"], self.counts.get(op["k_name"], {}))
        self.counts[op["name"]] = counts
        return problems

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def check_rep(self, rep_plan: dict, result: dict | None, rep_dir: Path) -> None:
        self._reps += 1
        for op in rep_plan["ops"]:
            op = dict(op, name=Path(op.get("path") or op["dir"]).relative_to(rep_dir).as_posix())
            if "k_dir" in op:
                op["k_name"] = Path(op["k_dir"]).relative_to(rep_dir).as_posix()
            self.attempted += 1
            problems = self._check_op(op, result)
            if problems:
                self.failed_ops.add((self._reps, op["name"]))
                self.problems.extend(problems)

    def _check_op(self, op: dict, result: dict | None) -> list[str]:
        if result is None:
            return [f"{op['name']}: the repetition crashed or timed out"]
        code = result["calls"][op["call"]]["exit_code"]
        if code != 0:
            return [f"{op['name']}: command exited with {code}"]
        try:
            fingerprint = _fingerprint(op)
            if op["name"] in self.reference:
                same = fingerprint == self.reference[op["name"]]
                return [] if same else [f"{op['name']}: differs between repetitions"]
            self.reference[op["name"]] = fingerprint
            return self._check_first(op)
        except (OSError, ValueError, LookupError, TypeError) as exc:
            return [f"{op['name']}: malformed output: {type(exc).__name__}: {exc}"]

    def digests(self) -> dict[str, str]:
        return {name: fp["sha256"] for name, fp in sorted(self.reference.items())
                if "sha256" in fp}

    def compare_stored(self, store: Path) -> None:
        """Outputs must also match earlier runs of the same source and seed;
        the first run that passes every check records its digests."""
        digests = self.digests()
        if store.exists():
            earlier = json.loads(store.read_text(encoding="utf-8"))
            for name, digest in digests.items():
                if earlier.get(name, digest) != digest:
                    self.failed_ops.add((1, name))
                    self.problems.append(f"{name}: differs from an earlier run of this source")
        elif not self.failed_ops:
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(digests, indent=1), encoding="utf-8")

    def workload_counters(self) -> dict:
        """Deterministic counts read from the outputs."""
        levels = {Path(name).stem: c["levels"] for name, c in self.counts.items()
                  if "levels" in c}
        k_outputs = {name: c for name, c in self.counts.items() if "perc_recs" in c}
        evaluations = [c for c in self.counts.values() if "accuracy" in c]
        out = {
            "levels": levels,
            "hierarchy_bytes": sum(c["bytes"] for c in self.counts.values() if "bytes" in c),
            "per_k": k_outputs,
        }
        if k_outputs:
            out["lattice_nodes"] = math.prod(levels[attr] for attr in QI if attr in levels)
            out["kmeans_repairs"] = next(iter(k_outputs.values()))["kmeans_repairs"]
            out["quality.info_loss"] = statistics.fmean(c["loss"] for c in k_outputs.values())
            out["quality.retained_frac"] = statistics.fmean(
                c["perc_recs"] for c in k_outputs.values())
        if evaluations:
            out["quality.accuracy"] = statistics.fmean(c["accuracy"] for c in evaluations)
            out["quality.f1"] = statistics.fmean(c["f1"] for c in evaluations)
        return out


def per_layer(summary: dict, traced_wall: float, untraced_wall: float,
              counters: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values (None where the function is gone or was never
    called) and a note for each None."""
    values: dict[str, float | None] = {}
    notes = []
    sources = {"self": summary["self_s"], "label": summary["labelled_s"],
               "count": summary["counters"], "layer": summary["layer_self_s"]}
    for metric, (kind, name) in PER_LAYER.items():
        values[metric] = sources[kind].get(metric if kind in ("label", "count") else name)
        if values[metric] is None:
            if kind == "layer":
                why = f"no span of layer {name}"
            elif name in summary["wrapped"]:
                why = f"not produced by {name} on this workload"
            else:
                why = f"{name} not found in clustem (renamed or removed?)"
            notes.append(f"{metric}: null, {why}")
    for metric in QUALITY:
        values[metric] = counters.get(metric)
        if values[metric] is None:
            notes.append(f"{metric}: null, no such output on this workload")
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values, notes + summary["notes"]


def purpose(workload: str, summary: dict) -> dict:
    """The traced share that shows the workload stresses the layer it is for."""
    self_s, layers, cmd = summary["self_s"], summary["layer_self_s"], summary["labelled_s"]
    if workload == "sweep-5k":
        part = self_s.get("anonymize.search", 0.0)
        whole = cmd.get("cli.anonymize_s", 0.0) + cmd.get("cli.evaluate_s", 0.0)
        need, what = 0.75, "anonymize.search_s / (anonymize_s + evaluate_s)"
    elif workload == "bulk-100k":
        part = (layers.get("tabular", 0.0) + layers.get("metrics", 0.0)
                + self_s.get("anonymize.apply_node", 0.0))
        whole = cmd.get("cli.anonymize_s", 0.0)
        need, what = 0.40, "(tabular.* + metrics.* + anonymize.apply_node_s) / anonymize_s"
    else:
        part, whole = layers.get("cluster", 0.0), cmd.get("cli.vgh_build_s", 0.0)
        need, what = 0.50, "cluster.* / vgh_build_s"
    share = part / whole if whole else 0.0
    return {"share": what, "value": share, "at_least": need, "met": share >= need}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that exercise every path in seconds")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/clustem/__init__.py", "tests/_datagen.py") if not Path(p).exists()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        record, result = measure(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{'smoke' if args.smoke else 'full'}-{args.workload}-seed{args.seed}"
            f"-trace{args.trace}-{datetime.now(timezone.utc):%Y%m%dT%H%M%S%f}")
    spans = record.pop("spans", None)
    if spans is not None:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for problem in record["problems"][:20]:
        print(f"problem: {problem}")
    print(f"{args.workload} seed {args.seed}: {record['repetitions']} repetition(s), "
          f"record in {results_dir / (stem + '.json')}")
    print(json.dumps(result))
    return 0


def measure(args) -> tuple[dict, dict]:
    size = "smoke" if args.smoke else "full"
    stamp = _stamp()
    inputs = ensure_inputs(args.workload, args.seed, size)
    run_dir = WORK / "runs" / f"{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        setup_path = run_dir / "setup.json"
        setup_path.write_text(json.dumps(setup_plan(inputs)), encoding="utf-8")
        setups, raw_setups = zip(*(time_setup(setup_path) for _ in range(SETUPS[size])))

        gate = Gate()
        untraced: list[dict] = []
        measured = 0.0
        while not untraced or measured < args.seconds:
            rep_dir = run_dir / f"rep{len(untraced)}"
            rep_plan = plan(args.workload, size, inputs, rep_dir)
            result, elapsed = run_rep(rep_plan, rep_dir, trace=False)
            measured += elapsed
            gate.check_rep(rep_plan, result, rep_dir)
            untraced.append(result)
            shutil.rmtree(rep_dir)
        traced = None
        if args.trace:
            rep_dir = run_dir / "traced"
            rep_plan = plan(args.workload, size, inputs, rep_dir)
            traced, _ = run_rep(rep_plan, rep_dir, trace=True)
            gate.check_rep(rep_plan, traced, rep_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    gate.compare_stored(WORK / "digests" / f"{size}-{args.workload}-seed{args.seed}-"
                        f"{stamp['source_sha256'][:16]}.json")

    good = [r for r in untraced if r is not None]
    if not good or (args.trace and traced is None):
        raise BenchError("no repetition completed: " + "; ".join(gate.problems[:5]))
    walls = [sum(c["ref_seconds"] for c in r["calls"]) for r in good]
    raw_walls = [sum(c["seconds"] for c in r["calls"]) for r in good]
    commands: dict[str, list[float]] = {}
    for r in good:
        per_rep: dict[str, float] = {}
        for call in r["calls"]:
            per_rep[call["command"]] = per_rep.get(call["command"], 0.0) + call["ref_seconds"]
        for command, seconds in per_rep.items():
            commands.setdefault(command + "_s", []).append(seconds)
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in good),
    }
    counters = gate.workload_counters()
    stamp["numpy"] = good[0]["numpy"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "seconds": args.seconds,
        "stamp": stamp,
        "inputs_sha256": {role: checks.sha256(p) for role, p in inputs.items()},
        "generators_sha256": _sha256_files([Path("tests/_datagen.py"), BENCH_DIR / "gen.py"]),
        "repetitions": len(untraced),
        "samples": {"wall_s": walls, "setup_s": list(setups), "commands_s": commands,
                    "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in good],
                    "raw_wall_s": raw_walls, "raw_setup_s": list(raw_setups),
                    "probes": [r["probes"] for r in good]},
        "end_to_end": end_to_end,
        "raw_median_s": {"wall_s": statistics.median(raw_walls),
                         "setup_s": statistics.median(raw_setups)},
        "commands_median_s": {c: statistics.median(v) for c, v in commands.items()},
        "fail_rate": gate.failed / gate.attempted,
        "counters": counters,
        "digests": gate.digests(),
        "problems": gate.problems,
    }
    metrics = end_to_end
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    if traced is not None:
        summary = traced["trace"]
        traced_wall = sum(c["seconds"] for c in traced["calls"])
        values, notes = per_layer(summary, traced_wall, statistics.median(raw_walls), counters)
        if abs(summary["self_sum_s"] - traced_wall) > 0.01 * traced_wall:
            gate.problems.append(f"trace: self times sum to {summary['self_sum_s']:.4f} s, "
                                 f"traced wall is {traced_wall:.4f} s")
        record["trace"] = {**summary, "per_layer": values, "notes": notes,
                           "purpose": purpose(args.workload, summary)}
        record["spans"] = traced["spans"]
        # The result line carries numbers only; a null reads 0 there and
        # keeps its note in the record.
        metrics = {name: 0.0 if v is None else v for name, v in values.items()}
        units = {name: UNITS.get(name, "s") for name in metrics}
    result = {
        "correct": gate.failed == 0 and not gate.problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return record, result


if __name__ == "__main__":
    sys.exit(main())
