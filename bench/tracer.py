"""Span tracer that wraps clustem's public functions from outside the package.

Every public function of every clustem module is replaced by a wrapper that
records a span (name, start, end, parent). The wrapper is installed in the
defining module and in every clustem module that bound the same function with
``from ... import``, so calls through ``cli.search`` or ``anonymize.build_vgh``
are seen too. Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover; the
self times of all spans add up to the root spans' durations. Per-layer
metrics are sums of self times, named ``<module>.<function>_s``. A few
functions also feed counters or labelled metrics (see ``HOOKS``); a hook that
no longer fits the code after a refactor records a note instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import pkgutil
import time
from types import ModuleType


def _search(args: dict, result, tracer: "Tracer") -> list[str]:
    vghs, qi, k = args["vghs"], args["spec"].qi, args["params"].k
    levels = [vghs[attr].level_count for attr in qi]
    tracer.peak("anonymize.lattice_nodes", math.prod(levels))
    for attr, count in zip(qi, levels):
        tracer.peak(f"anonymize.levels.{attr}", count)
    return [f"anonymize.search_s.k{k}"]


def _build_vgh(args: dict, result, tracer: "Tracer") -> list[str]:
    tracer.add("vgh.levels", result.level_count)
    return [f"vgh.build_vgh.{args['method']}_s"]


def _kmeans(args: dict, result, tracer: "Tracer") -> list[str]:
    tracer.add("cluster.kmeans.calls", 1)
    tracer.add("cluster.kmeans.repairs", result.repairs)
    return []


def _write_hierarchy(args: dict, result, tracer: "Tracer") -> list[str]:
    tracer.add("vgh.hierarchy_bytes", os.path.getsize(args["path"]))
    return []


def _load_csv(args: dict, result, tracer: "Tracer") -> list[str]:
    tracer.add("tabular.rows", result.row_count)
    return []


def _embed_all(args: dict, result, tracer: "Tracer") -> list[str]:
    tracer.add("embed.values_embedded", len(args["values"]))
    return []


# Span name -> hook(bound arguments, result, tracer) returning extra metric
# names that the span's self time is added to.
HOOKS = {
    "anonymize.search": _search,
    "vgh.build_vgh": _build_vgh,
    "cluster.kmeans": _kmeans,
    "vgh.write_hierarchy": _write_hierarchy,
    "tabular.load_csv": _load_csv,
    "embed.embed_all": _embed_all,
}

ROOT = "cli.main"


def _command(argv) -> str:
    """Metric name for a CLI call: cli.anonymize_s, cli.evaluate_s, cli.vgh_build_s."""
    words = list(argv[:2]) if argv and argv[0] == "vgh" else list(argv[:1])
    return "cli." + "_".join(words) + "_s"


class Tracer:
    def __init__(self) -> None:
        # One span per call: [name, start, end, parent index or -1, extra metric names].
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.notes: list[str] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def install(self, package: ModuleType) -> None:
        """Wrap the public functions of every module of ``package``."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                if id(obj) not in wrappers:
                    name = obj.__module__.rsplit(".", 1)[-1] + "." + obj.__name__
                    wrappers[id(obj)] = self._wrap(obj, name)
                    self.wrapped.add(name)
                setattr(module, attr, wrappers[id(obj)])

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, []]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None or name == ROOT:
                self._label(span, hook, signature, args, kwargs, result)
            return result

        return wrapper

    def _label(self, span, hook, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if hook is None:
                argv = bound.arguments["argv"]
                span[4].append(_command(argv))
            else:
                span[4].extend(hook(bound.arguments, result, self))
        except Exception as exc:  # the code changed under the hook; keep tracing
            note = f"hook for {span[0]} failed: {type(exc).__name__}: {exc}"
            if note not in self.notes:
                self.notes.append(note)

    def summary(self) -> dict:
        """Self and total times per span name, labelled metrics, counters, and
        the accounting totals (sum of self times vs root durations)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        labelled: dict[str, float] = {}
        layers: dict[str, float] = {}
        roots = 0.0
        for (name, start, end, parent, extra), child in zip(self.spans, covered):
            own = end - start - child
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
            for metric in extra:
                # Command metrics are whole calls; the others are self time.
                value = end - start if name == ROOT else own
                labelled[metric] = labelled.get(metric, 0.0) + value
            if parent < 0:
                roots += end - start
        return {
            "self_s": self_s,
            "total_s": total_s,
            "calls": calls,
            "labelled_s": labelled,
            "layer_self_s": layers,
            "counters": self.counters,
            "self_sum_s": sum(self_s.values()),
            "root_s": roots,
            "spans": len(self.spans),
            "wrapped": sorted(self.wrapped),
            "notes": self.notes,
        }
