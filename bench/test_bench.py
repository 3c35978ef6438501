"""Tests of the benchmark harness itself. They use the smoke sizes, so every
workload path and the tracer run in seconds:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import checks
import run
import speed
from tracer import Tracer
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(REPO / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = _bench("--workload", "sweep-5k", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _fake_package(root: Path) -> None:
    pkg = root / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .inner import leaf\n")
    (pkg / "inner.py").write_text(textwrap.dedent("""
        import time

        def leaf(n):
            time.sleep(0.01 * n)
            return n
    """))
    (pkg / "outer.py").write_text(textwrap.dedent("""
        import time
        from .inner import leaf

        def main(argv):
            time.sleep(0.02)
            return leaf(1) + leaf(2)
    """))


def test_tracer_wraps_imported_names_and_accounts_self_time(tmp_path, monkeypatch):
    _fake_package(tmp_path)
    monkeypatch.syspath_prepend(str(tmp_path))
    import importlib

    fakepkg = importlib.import_module("fakepkg")
    tracer = Tracer()
    tracer.install(fakepkg)
    outer = importlib.import_module("fakepkg.outer")
    assert outer.main(["x"]) == 3  # `leaf` is reached through outer's own binding
    summary = tracer.summary()
    assert summary["calls"] == {"outer.main": 1, "inner.leaf": 2}
    assert summary["self_s"]["inner.leaf"] == pytest.approx(0.03, abs=0.02)
    assert summary["self_s"]["outer.main"] == pytest.approx(0.02, abs=0.02)
    assert summary["self_sum_s"] == pytest.approx(summary["root_s"], rel=1e-9)
    assert summary["total_s"]["outer.main"] == pytest.approx(summary["root_s"], rel=1e-9)


def test_missing_function_reads_null_with_a_note():
    summary = {"self_s": {"anonymize.search": 1.0}, "labelled_s": {}, "counters": {},
               "layer_self_s": {"anonymize": 1.0}, "wrapped": ["anonymize.search"],
               "notes": []}
    values, notes = run.per_layer(summary, 2.0, 1.5, {})
    assert values["anonymize.search_s"] == 1.0
    assert values["anonymize.apply_node_s"] is None
    assert values["anonymize.search_s.k200"] is None
    assert any(n.startswith("anonymize.apply_node_s: null") and "not found" in n for n in notes)
    assert any(n.startswith("anonymize.search_s.k200: null") for n in notes)
    assert values["trace.overhead_s"] == 0.5


def test_speed_sampler_rates_busy_time_in_reference_seconds():
    sampler = speed.SpeedSampler()
    sampler.start()
    started = time.perf_counter()
    while time.perf_counter() - started < 0.5:
        speed.probe()
    ref_s, probe_s = sampler.reading()
    wall = time.perf_counter() - started
    sampler.stop()
    assert sampler.probes >= 5
    assert 0 < probe_s < 0.5 * wall
    # Busy time on this machine, at its own speed relative to the reference.
    assert 0.1 * (wall - probe_s) < ref_s < 10 * (wall - probe_s)


def _write(path: Path, text: str) -> Path:
    path.write_text(textwrap.dedent(text).lstrip(), encoding="utf-8")
    return path


def test_gate_rejects_a_group_below_k(tmp_path):
    header = ["q", "s"]
    rows = [["a", "x"], ["a", "y"], ["b", "x"], ["b", "y"], ["c", "x"]]
    hier = tmp_path / "h"
    hier.mkdir()
    _write(hier / "q.csv", "a;{a,b};*\nb;{a,b};*\nc;c;*\n")
    out = tmp_path / "k2"
    out.mkdir()
    report = {"node": [1], "suppressed_count": 1, "perc_recs": 0.8, "loss": 0.5}
    (out / "report.json").write_text(json.dumps(report))

    _write(out / "anonymized.csv", "q,s\n\"{a,b}\",x\n\"{a,b}\",y\n\"{a,b}\",x\n\"{a,b}\",y\n*,x\n")
    problems, counts = checks.check_k_output(out, header, rows, ["q"], "s", 2, 2, 0.5, hier)
    assert problems == []
    assert counts["retained_groups"] == 1 and counts["suppressed_rows"] == 1

    _write(out / "anonymized.csv", "q,s\n\"{a,b}\",x\n\"{a,b}\",y\n\"{a,b}\",x\n\"{a,b}\",y\nc,x\n")
    report.update(suppressed_count=0, perc_recs=1.0)
    (out / "report.json").write_text(json.dumps(report))
    problems, _ = checks.check_k_output(out, header, rows, ["q"], "s", 2, 2, 0.5, hier)
    assert any("below k=2" in p for p in problems)


def test_gate_rejects_a_hierarchy_that_splits_a_block(tmp_path):
    good = _write(tmp_path / "good.csv", "a;{a,b};*\nb;{a,b};*\nc;c;*\n")
    assert checks.check_hierarchy(good, {"a", "b", "c"}) == []
    split = _write(tmp_path / "split.csv", "a;{a,b};{a,c};*\nb;{a,b};b;*\nc;c;{a,c};*\n")
    assert any("splits" in p for p in checks.check_hierarchy(split, {"a", "b", "c"}))
    no_top = _write(tmp_path / "top.csv", "a;{a,b}\nb;{a,b}\n")
    assert any("top level" in p for p in checks.check_hierarchy(no_top, {"a", "b"}))
