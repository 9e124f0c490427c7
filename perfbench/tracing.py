"""Spans and counters recorded from the benchmark's side of each layer.

The program under test carries no tracing of its own that this benchmark
relies on. Instead :class:`Tracer` replaces, for the duration of a traced
run, each public function a layer exposes *at the name its caller looks it
up by* (``repro.core.optimizer.build_chains``, ``repro.core.strategies.
probe``, ``repro.matrix.blocked.map_blocks``, ...) with a wrapper that
records a span or bumps a counter and then calls the original.
:meth:`Tracer.uninstall` puts every original back.

A span is ``[name, start, end, parent, op]``. Spans nest per thread (the
server's pool threads trace concurrently), a root span opens a new op id
unless the caller set one, and all spans stay in memory until
:meth:`Tracer.dump` writes them out once. A layer's self time is its
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import threading
import time

#: Kernel methods of ``repro.runtime.physical.Kernels``, grouped into the
#: metric names the benchmark reports. ``structural``, ``persist`` and
#: ``fused_ewise`` are left out because no workload reaches them: no
#: script calls rowsums/colsums/diag, the executor never persists, and the
#: fusion cost gate declines every element-wise region the scripts build
#: (``runtime.fusion.fused_ratio`` reports that).
KERNEL_GROUPS = {
    "load": ("load",),
    "matmul": ("matmul",),
    "mmchain": ("mmchain",),
    "transpose": ("transpose",),
    "ewise": ("add", "subtract", "multiply", "divide", "negate"),
    "aggregate": ("aggregate_sum", "aggregate_norm", "aggregate_trace"),
    "map_cells": ("map_cells",),
}

#: Plain spans: (module, attribute or Class.method, span name).
SPAN_SITES = (
    ("repro.core.optimizer", "check_program", "lang.typecheck"),
    ("repro.core.optimizer", "plan_fingerprint",
     "core.plancache.fingerprint"),
    ("repro.core.cost.model", "CostModel.sketch_of", "core.sparsity.sketch"),
    ("repro.core.optimizer", "choose_options", "core.strategies.choose"),
    ("repro.core.optimizer", "rewrite_program", "core.rewrite"),
    ("repro.core.cost.evaluate", "ProgramCostEvaluator.evaluate",
     "core.cost.evaluate"),
    ("repro.core.enumerate", "enumerate_fusion_regions",
     "core.enumerate.fusion"),
    ("repro.runtime.executor", "Executor.run", "runtime.executor"),
    ("repro.matrix.blocked", "BlockedMatrix.to_numpy",
     "matrix.blocked.to_numpy"),
    ("repro.data", "load_dataset", "data.load_dataset"),
    ("repro.server.service", "load_dataset", "data.load_dataset"),
) + tuple(("repro.runtime.physical", f"Kernels.{method}",
           f"runtime.physical.{group}")
          for group, methods in KERNEL_GROUPS.items() for method in methods)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._float_parts: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ops = itertools.count(1_000_000)
        self._restore: list[tuple[object, str, object]] = []
        #: Op id given to root spans opened on the calling thread; ``None``
        #: draws a fresh id per root span (the server's pool threads).
        self.op_id: int | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter. Float amounts (bytes) are kept apart and summed
        exactly at export, so the total does not depend on the order in
        which the server's threads added them."""
        with self._lock:
            if isinstance(amount, float):
                self._float_parts.setdefault(name, []).append(amount)
            else:
                self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; returns its result."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if parent is not None:
            op = parent[4]
        else:
            op = self.op_id if self.op_id is not None else next(self._ops)
        record = [name, time.perf_counter(), None, parent, op]
        stack.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, module: str, target: str, name: str, after=None,
              spanned: bool = True) -> None:
        owner = importlib.import_module(module)
        attr = target
        if "." in target:
            class_name, attr = target.split(".")
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if spanned:
                result = tracer.span(name, func, *args, **kwargs)
            else:
                result = func(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        self._patch(owner, attr,
                    classmethod(wrapper) if is_classmethod else wrapper)

    def install(self) -> "Tracer":
        """Wrap every traced site; idempotent per tracer."""
        if self._restore:
            return self
        for module, target, name in SPAN_SITES:
            self._wrap(module, target, name)
        self._wrap("repro.core.optimizer", "build_chains",
                   "core.chains.build", after=self._after_chains)
        self._wrap("repro.core.optimizer", "blockwise_search", "core.search",
                   after=self._after_search)
        self._wrap("repro.core.strategies", "probe", "core.probe",
                   after=self._after_probe)
        self._wrap("repro.runtime.fusion", "plan_fused_ewise",
                   "runtime.fusion.plan", after=self._after_fusion_plan)
        self._wrap("repro.engines.base", "Engine.compile", "engines.compile",
                   after=self._after_compile)
        self._wrap("repro.engines.base", "Engine.cached_plan",
                   "engines.cached_plan", after=self._after_cached_plan,
                   spanned=False)
        self._wrap("repro.engines.base", "Engine.execute", "engines.execute",
                   after=self._after_execute)
        self._wrap("repro.core.plancache", "InputSketchMemo.lookup",
                   "core.sparsity.sketch_memo", after=self._after_memo_lookup,
                   spanned=False)
        self._wrap("repro.runtime.executor", "Executor.evaluate",
                   "runtime.executor.evaluate",
                   after=self._counter_of("runtime.executor.evaluate.calls"),
                   spanned=False)
        self._wrap("repro.matrix.blocked", "map_blocks",
                   "matrix.blockpool.map_blocks", after=self._after_map_blocks,
                   spanned=False)
        for method in ("from_numpy", "from_scipy"):
            self._wrap("repro.matrix.blocked", f"BlockedMatrix.{method}",
                       f"matrix.blocked.{method}",
                       after=self._counter_of(
                           f"matrix.blocked.{method}.calls"),
                       spanned=False)
        return self

    def uninstall(self) -> None:
        """Put every original function back, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Counters read from what each layer returns
    # ------------------------------------------------------------------
    def _counter_of(self, name: str):
        return lambda result: self.count(name)

    def _after_chains(self, chains) -> None:
        self.count("core.chains.build.calls")
        self.count("core.chains.coordinates", chains.total_coordinates)

    def _after_search(self, result) -> None:
        self.count("core.search.windows", result.windows_visited)
        self.count("core.search.options_found", len(result.options))

    def _after_probe(self, result) -> None:
        self.count("core.probe.entries_explored", result.entries_explored)

    def _after_fusion_plan(self, plan) -> None:
        self.count("runtime.fusion.plans")
        if plan is not None and plan.fuses:
            self.count("runtime.fusion.fused")

    def _after_compile(self, compiled) -> None:
        outcome = compiled.notes.get("plan_cache", "off")
        self.count(f"core.plancache.{outcome}")
        if outcome in ("miss", "off"):
            self.count("core.optimizer.options_applied",
                       len(compiled.applied_options))
            memo = compiled.notes.get("cost_memo") or {}
            self.count("core.cost.memo_hits", memo.get("price_hits", 0))
            self.count("core.cost.memo_misses", memo.get("price_misses", 0))

    def _after_cached_plan(self, compiled) -> None:
        if compiled is not None:
            self.count("core.plancache.hit")

    def _after_execute(self, result) -> None:
        summary = result.metrics.summary()
        for key, value in summary.items():
            if key.startswith("bytes_"):
                self.count(f"cluster.{key}", value)

    def _after_memo_lookup(self, sketch) -> None:
        self.count("core.sparsity.sketch_memo."
                   + ("hits" if sketch is not None else "misses"))

    def _after_map_blocks(self, result) -> None:
        self.count("matrix.blockpool.map_blocks.calls")
        self.count("matrix.blockpool.tiles", len(result))

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Spans (parents as indices) and counters, JSON-ready."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        spans = [[name, start, end,
                  index.get(id(parent)) if parent is not None else None, op]
                 for name, start, end, parent, op in self.spans]
        counters = dict(self.counters)
        for name, parts in self._float_parts.items():
            counters[name] = math.fsum(parts)
        return {"spans": spans, "counters": counters}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle)


def self_times(spans: list[list]) -> dict[str, list[float]]:
    """Per span name, every span's self time in seconds.

    Self time is the span's duration minus the durations of its direct
    children; children of one span run on its thread, so they never
    overlap each other.
    """
    child_total = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_total[parent] += end - start
    result: dict[str, list[float]] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        result.setdefault(name, []).append(end - start - child_total[i])
    return result


def merge(exports: list[dict]) -> dict:
    """Concatenate several :meth:`Tracer.export` results (parents re-based)."""
    spans: list[list] = []
    counters: dict[str, float] = {}
    for export in exports:
        base = len(spans)
        for name, start, end, parent, op in export["spans"]:
            spans.append([name, start, end,
                          None if parent is None else parent + base, op])
        for key, value in export["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run, by benchmark name."""
    selfs = self_times(trace["spans"])
    counters = trace["counters"]
    metrics: dict[str, float] = {}
    for name, values in selfs.items():
        metrics[f"{name}.self_ms"] = statistics.median(values) * 1e3
    for group in KERNEL_GROUPS:
        metrics[f"runtime.physical.{group}.calls"] = sum(
            1 for _ in selfs.get(f"runtime.physical.{group}", ()))
    hits = counters.get("core.plancache.hit", 0)
    misses = counters.get("core.plancache.miss", 0)
    coalesced = counters.get("core.plancache.coalesced", 0)
    metrics["core.plancache.hit_ratio"] = _ratio(hits,
                                                 hits + misses + coalesced)
    metrics["core.plancache.misses"] = misses
    metrics["core.plancache.coalesced"] = coalesced
    memo_hits = counters.get("core.sparsity.sketch_memo.hits", 0)
    metrics["core.sparsity.sketch_memo.hit_ratio"] = _ratio(
        memo_hits, memo_hits + counters.get("core.sparsity.sketch_memo.misses",
                                            0))
    cost_hits = counters.get("core.cost.memo_hits", 0)
    metrics["core.cost.memo_hit_ratio"] = _ratio(
        cost_hits, cost_hits + counters.get("core.cost.memo_misses", 0))
    metrics["runtime.fusion.fused_ratio"] = _ratio(
        counters.get("runtime.fusion.fused", 0),
        counters.get("runtime.fusion.plans", 0))
    for key in ("core.chains.build.calls", "core.chains.coordinates",
                "core.search.windows", "core.search.options_found",
                "core.probe.entries_explored",
                "core.optimizer.options_applied",
                "runtime.executor.evaluate.calls",
                "matrix.blockpool.map_blocks.calls", "matrix.blockpool.tiles",
                "matrix.blocked.from_scipy.calls",
                "matrix.blocked.from_numpy.calls"):
        metrics[key] = counters.get(key, 0)
    for key, value in counters.items():
        if key.startswith("cluster.bytes_"):
            metrics[key] = value
    return metrics
