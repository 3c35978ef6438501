"""One fresh interpreter of the benchmark.

    python3 bench/child.py setup <setup.json>
    python3 bench/child.py run <plan.json> <result.json> <trace 0|1>

`setup` imports clustem, reads the inputs with `load_csv`, builds the
word-vector provider, then prints "ready" and the speed sampler's reading;
the parent times it from process start to that line. `run` drives the user
path: it calls `clustem.cli.main` once per planned command, times each call,
and writes the exit codes, times, peak RSS and (with tracing) the tracer
summary and spans to <result.json>. Untraced runs and set-ups run the speed
sampler (speed.py), so each time is also given in reference seconds.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time


def setup(plan: dict) -> None:
    from speed import SpeedSampler

    sampler = SpeedSampler()
    started = time.perf_counter()
    sampler.start()
    import clustem
    from clustem.embed import WORD_VECTOR_FILE, ProviderConfig, create_provider

    tables = [clustem.load_csv(path) for path in plan["csv"]]
    provider = create_provider(ProviderConfig(WORD_VECTOR_FILE, path=plan["vectors"]))
    del tables, provider
    ref_s, probe_s = sampler.reading()
    window_s = time.perf_counter() - started
    sampler.stop()
    print("ready " + json.dumps({"ref_s": ref_s, "probe_s": probe_s, "window_s": window_s}),
          flush=True)


def run(plan: dict, result_path: str, trace: bool) -> None:
    import numpy

    import clustem
    import clustem.cli

    tracer = sampler = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(clustem)
    else:
        from speed import SpeedSampler

        sampler = SpeedSampler()
        sampler.start()
    calls = []
    for call in plan["calls"]:
        ref_before, probe_before = sampler.reading() if sampler else (0.0, 0.0)
        started = time.perf_counter()
        code = clustem.cli.main(list(call["argv"]))
        seconds = time.perf_counter() - started
        ref_after, probe_after = sampler.reading() if sampler else (0.0, 0.0)
        # Wall seconds without the probes' own time, and reference seconds.
        calls.append({"command": call["command"], "exit_code": code,
                      "seconds": seconds - (probe_after - probe_before),
                      "ref_seconds": ref_after - ref_before if sampler else None})
    if sampler:
        sampler.stop()
    result = {
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if sampler is not None:
        result["probes"] = sampler.probes
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    if argv[0] == "setup":
        setup(plan)
    else:
        run(plan, argv[2], argv[3] == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
