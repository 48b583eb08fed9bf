"""Per-layer ledger: spans around the program's public entry points.

Only the traced run (``--trace 1``) installs these wrappers. Each
wrapped call records a span (name, start, end, the span that caused
it, thread); a layer's self time is its spans' duration minus the part
covered by their direct child spans on the same thread. Counts come
from the ``RunReport`` counters the program already publishes, read
through ``repro.api.collecting``.

Wrapping happens from the benchmark's own files: a module function is
replaced in its defining module and in every loaded ``repro`` module
that imported it by name; a method is replaced on its class.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: (layer span name, module, attribute) — ``Class.method`` for methods.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.run", "repro.experiments.runner", "run_experiment"),
    ("proxy.sweep", "repro.proxy.sweep", "run_slack_sweep"),
    ("des.run", "repro.des.core", "Environment.run"),
    ("apps.profile", "repro.apps.lammps.gpu_offload", "profile_lammps"),
    ("apps.profile", "repro.apps.cosmoflow.training", "profile_cosmoflow"),
    ("apps.profile", "repro.apps.inference.serving", "profile_inference"),
    ("apps.profile", "repro.apps.cpuonly", "profile_cpuonly"),
    ("parallel.cache_get", "repro.parallel.pointcache", "PointCache.get"),
    ("parallel.cache_put", "repro.parallel.pointcache", "PointCache.put"),
    ("parallel.executor", "repro.parallel.executor", "SweepExecutor.run"),
    ("model.fit", "repro.serve.surrogate", "SurrogateModel.fit"),
    ("model.evaluate", "repro.serve.surrogate", "SurrogateModel.evaluate"),
    ("cdi.generate", "repro.cdi.fleet", "generate_fleet_jobs"),
    ("cdi.run_fleet", "repro.cdi.fleet", "run_fleet"),
    ("trace.record_batch", "repro.trace.store", "ColumnarTrace.record_batch"),
)

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("startup.import_s", "s"),
    ("startup.scipy_s", "s"),
    ("startup.networkx_s", "s"),
    ("experiments.run_s", "s"),
    ("experiments.self_s", "s"),
    ("proxy.sweep_s", "s"),
    ("proxy.points_measured", "count"),
    ("proxy.ff_hits", "count"),
    ("proxy.ff_fallbacks", "count"),
    ("proxy.events_skipped", "count"),
    ("des.run_s", "s"),
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.events_per_api_call", "ratio"),
    ("gpusim.api_calls", "count"),
    ("gpusim.kernel_launches", "count"),
    ("gpusim.memcpy_count", "count"),
    ("trace.events", "count"),
    ("trace.peak_bytes", "bytes"),
    ("trace.growths", "count"),
    ("trace.record_batch_s", "s"),
    ("apps.profile_s", "s"),
    ("apps.ff_fallbacks", "count"),
    ("apps.cache_hits", "count"),
    ("apps.cache_misses", "count"),
    ("parallel.cache_get_s", "s"),
    ("parallel.cache_put_s", "s"),
    ("parallel.cache_hits", "count"),
    ("parallel.cache_misses", "count"),
    ("parallel.executor_wall_s", "s"),
    ("model.fit_s", "s"),
    ("model.evaluate_s", "s"),
    ("model.evaluate_calls", "count"),
    ("cdi.generate_s", "s"),
    ("cdi.run_fleet_s", "s"),
    ("cdi.self_s", "s"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.cold_misses", "count"),
    ("serve.cold_wall_s", "s"),
    ("serve.queue_high_water", "count"),
    ("serve.generator_late_ms", "ms"),
    ("ledger.overhead_frac", "ratio"),
)

#: Counters read from the RunReport: ledger metric <- (section, name).
REPORT_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("proxy.points_measured", "executor", "measured"),
    ("proxy.ff_hits", "proxy.fastforward", "hits"),
    ("proxy.ff_fallbacks", "proxy.fastforward", "fallbacks"),
    ("proxy.events_skipped", "proxy.fastforward", "events_skipped"),
    ("des.events", "des", "events_dispatched"),
    ("gpusim.api_calls", "gpu", "api_calls"),
    ("gpusim.kernel_launches", "gpu", "kernel_launches"),
    ("gpusim.memcpy_count", "gpu", "memcpy_count"),
    ("trace.events", "trace.store", "events"),
    ("trace.peak_bytes", "trace.store", "peak_bytes"),
    ("trace.growths", "trace.store", "growths"),
    ("apps.ff_fallbacks", "appff", "fallbacks"),
    ("apps.cache_hits", "profilecache", "hits"),
    ("apps.cache_misses", "profilecache", "misses"),
    ("parallel.cache_hits", "cache", "hits"),
    ("parallel.cache_misses", "cache", "misses"),
    ("serve.batches", "serve", "batches"),
    ("serve.requests", "serve", "requests"),
    ("serve.cold_misses", "serve", "cold_misses"),
    ("serve.cold_wall_s", "serve", "cold_wall_s"),
    ("serve.queue_high_water", "serve", "queue_high_water"),
)


class Ledger:
    """In-memory span recorder, safe across the loop and executor threads."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, thread id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per outermost call of ``name``."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)  # recursion: outermost only
            with self._lock:
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, -1, 0))
            frame = [name, index, 0.0]  # name, span index, child seconds
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                with self._lock:
                    self.spans[index] = (
                        name, start, end, parent, threading.get_ident()
                    )
                    self.total_s[name] += dur
                    self.self_s[name] += dur - frame[2]
                    self.calls[name] += 1

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> "Ledger":
        """Wrap every entry point of :data:`ENTRY_POINTS`."""
        wrapped: Dict[Any, Any] = {}
        for name, module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new: Any = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                setattr(cls, meth, new)
                self._undo.append(
                    lambda c=cls, m=meth, r=raw: setattr(c, m, r)
                )
                continue
            orig = getattr(module, attr)
            new = self.wrap(name, orig)
            wrapped[orig] = new
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if not mod_name.startswith("repro"):
                    continue
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, new)
                    self._undo.append(
                        lambda m=mod, a=attr, o=orig: setattr(m, a, o)
                    )
        # The app registry captured the profilers when it was built.
        from repro.apps.registry import registered_apps

        for app in registered_apps():
            if app.profiler in wrapped:
                object.__setattr__(app, "profiler", wrapped[app.profiler])
                self._undo.append(
                    lambda a=app, o=app.profiler: object.__setattr__(
                        a, "profiler", o
                    )
                )
        return self

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._undo:
            self._undo.pop()()

    def to_doc(self) -> Dict[str, Any]:
        """Totals, self times, call counts and the raw spans."""
        return {
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "spans": self.spans,
        }


def report_counters(metrics: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """The :data:`REPORT_COUNTERS` out of a ``RunReport.metrics`` doc."""
    return {
        key: float(metrics.get(section, {}).get(name, 0.0))
        for key, section, name in REPORT_COUNTERS
    }


def merge(docs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the span totals and counters of several traced processes."""
    merged: Dict[str, Any] = {
        "total_s": defaultdict(float),
        "self_s": defaultdict(float),
        "calls": defaultdict(int),
        "counters": defaultdict(float),
    }
    for doc in docs:
        for key in merged:
            for name, value in doc[key].items():
                merged[key][name] += value
    return merged


def import_seconds(importtime_stderr: str, package: str) -> float:
    """Cumulative ``-X importtime`` seconds of ``package``'s outermost imports.

    The report lists each import after the imports it caused, indented
    two spaces per level; walking it backwards meets every parent
    before its children, so an entry counts only when no enclosing
    entry already belongs to ``package``.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        body = name[1:] if name.startswith(" ") else name
        depth = len(body) - len(body.lstrip(" "))
        try:
            rows.append((depth, int(cumulative), body.strip()))
        except ValueError:
            continue  # the header row
    total_us = 0
    stack: List[Tuple[int, bool]] = []
    for depth, cumulative_us, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == package or name.startswith(package + ".")
        if mine and not inside:
            total_us += cumulative_us
        stack.append((depth, inside or mine))
    return total_us / 1e6


def layer_metrics(
    merged: Dict[str, Any],
    *,
    import_s: float,
    scipy_s: float,
    networkx_s: float,
    overhead_frac: float,
    generator_late_ms: float = 0.0,
) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` (0 where a layer was bypassed)."""
    total, own, calls = merged["total_s"], merged["self_s"], merged["calls"]
    c = merged["counters"]
    des_s = total.get("des.run", 0.0)
    batches = c.get("serve.batches", 0.0)
    values = {
        "startup.import_s": import_s,
        "startup.scipy_s": scipy_s,
        "startup.networkx_s": networkx_s,
        "experiments.run_s": total.get("experiments.run", 0.0),
        "experiments.self_s": own.get("experiments.run", 0.0),
        "proxy.sweep_s": total.get("proxy.sweep", 0.0),
        "des.run_s": des_s,
        "des.events_per_s": c["des.events"] / des_s if des_s > 0 else 0.0,
        "des.events_per_api_call": (
            c["des.events"] / c["gpusim.api_calls"]
            if c.get("gpusim.api_calls") else 0.0
        ),
        "trace.record_batch_s": total.get("trace.record_batch", 0.0),
        "apps.profile_s": total.get("apps.profile", 0.0),
        "parallel.cache_get_s": total.get("parallel.cache_get", 0.0),
        "parallel.cache_put_s": total.get("parallel.cache_put", 0.0),
        "parallel.executor_wall_s": total.get("parallel.executor", 0.0),
        "model.fit_s": total.get("model.fit", 0.0),
        "model.evaluate_s": total.get("model.evaluate", 0.0),
        "model.evaluate_calls": float(calls.get("model.evaluate", 0)),
        "cdi.generate_s": total.get("cdi.generate", 0.0),
        "cdi.run_fleet_s": total.get("cdi.run_fleet", 0.0),
        "cdi.self_s": own.get("cdi.run_fleet", 0.0),
        "serve.mean_batch": (
            c["serve.requests"] / batches if batches else 0.0
        ),
        "serve.generator_late_ms": generator_late_ms,
        "ledger.overhead_frac": overhead_frac,
    }
    for key, _, _ in REPORT_COUNTERS:
        values.setdefault(key, c.get(key, 0.0))
    return {name: float(values[name]) for name, _ in LAYER_METRICS}

