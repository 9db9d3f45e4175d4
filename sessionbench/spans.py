"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps the public entry points of each layer (and a few
well-known internal ones) from the benchmark's side. It does this by
swapping module and class attributes while a traced session runs, so the
program itself carries no benchmark code.  Each span is
``[name, start, end, parent, call]``. ``parent`` indexes the enclosing
span (-1 for none). ``call`` numbers the session request that caused it.
Spans stay in memory and are written out when the run ends.

A layer's self time is its spans' duration minus the time its direct
child spans cover.  Spans nest strictly on the one client thread, so the
children's durations can simply be summed.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: (module, attribute path, span name): entry points recorded as spans.
SPAN_POINTS = [
    ("repro.relational.sql.engine", "parse_sql", "sql.parse"),
    ("repro.relational.sql.engine", "SQLEngine.query", "sql.query"),
    ("repro.relational.sql.executor", "SQLExecutor.execute", "sql.execute"),
    ("repro.relational.sql.executor", "compile_plan", "sql.compile"),
    ("repro.relational.sql.executor", "compile_join_plan", "sql.compile"),
    ("repro.relational.sql.executor", "compile_multi_join_plan", "sql.compile"),
    ("repro.relational.sql.executor", "factorise_plan", "sql.compile"),
    ("repro.detection.cfd_detect", "SQLCFDDetector.detect", "detection.sql_detect"),
    ("repro.detection.cfd_detect", "CFDDetector.detect_one", "detection.direct"),
    ("repro.detection.cind_detect", "CINDDetector.detect", "detection.cind"),
    ("repro.repair.batch_repair", "BatchRepair.repair", "repair.batch"),
    ("repro.discovery.cfd_discovery", "CFDDiscovery.discover_constant_cfds",
     "discovery.constant"),
    ("repro.discovery.cfd_discovery", "CFDDiscovery.discover_variable_cfds",
     "discovery.variable"),
    ("repro.discovery.cfd_discovery", "CFDDiscovery._fd_holds", "discovery.fds"),
    ("repro.engine.executor", "MultiprocessingPool.run", "engine.run"),
    ("repro.engine.executor", "MultiprocessingPool.run_stream", "engine.run"),
    ("repro.engine.executor", "SerialPool.run", "engine.run"),
    ("repro.semandaq.session", "parse_cfd", "constraints.parse"),
    ("repro.semandaq.session", "parse_cfds", "constraints.parse"),
    ("repro.semandaq.session", "parse_cind", "constraints.parse"),
    ("repro.semandaq.session", "is_satisfiable", "constraints.reasoning"),
    ("repro.semandaq.session", "pairwise_conflicts", "constraints.reasoning"),
    ("repro.cqa.answer", "certain_answers_rewriting", "cqa.rewrite"),
]

#: (module, attribute path, counter name, timed): hot entry points that are
#: counted (and optionally timed) instead of spanned, to keep overhead low.
COUNT_POINTS = [
    ("repro.repair.cost", "CostModel.code_distance", "repair.distance_calls", False),
    ("repro.repair.cost", "CostModel.distance", "repair.distance", True),
]


#: the names :func:`layer_values` produces, in report order.
LAYER_NAMES = (
    "relational.load_s", "relational.write_s", "cache.order.reuse_ratio",
    "cache.bridge.reuse_ratio", "cache.index.reuse_ratio",
    "sql.parse_ms", "sql.compile_ms", "sql.execute_ms", "sql.row_share",
    "sql.plan.code", "sql.plan.join", "sql.plan.multiway", "sql.plan.factorised",
    "sql.plan.row",
    "detection.sql_detect_s", "detection.queries_per_detect", "detection.direct_s",
    "detection.cind_s",
    "repair.batch_s", "repair.passes", "repair.changes", "repair.distance_calls",
    "repair.distance_s", "cache.distance.hit_ratio",
    "discovery.fds_s", "discovery.constant_s", "discovery.variable_s",
    "discovery.partition.scan", "discovery.partition.product",
    "discovery.partition.cache_hit", "discovery.yield",
    "engine.run_s", "engine.worker_s", "engine.efficiency", "engine.tasks",
    "engine.broadcast.build", "engine.broadcast.reuse", "engine.broadcast.retokenize",
    "engine.pool.start", "engine.pool.reuse", "engine.pool.rebuild",
    "engine.task.retry", "engine.task.timeout", "engine.fallback.tasks",
    "constraints.parse_s", "constraints.reasoning_s", "cqa.rewrite_s",
)


class Tracer:
    """In-memory span recorder with attribute-swapping instrumentation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.count_seconds: dict[str, float] = defaultdict(float)
        #: entry points that could not be found (reported, never fatal).
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._calls = 0
        self._call = -1
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, request: bool = False) -> Iterator[None]:
        """Record a span; ``request=True`` starts a new session call."""
        if request:
            self._call = self._calls
            self._calls += 1
        index = len(self.spans)
        record = [name, perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self._call]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def _spanned(self, name: str, function: Callable) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return function(*args, **kwargs)
        return traced

    def _counted(self, name: str, function: Callable, timed: bool) -> Callable:
        counts, seconds = self.counts, self.count_seconds
        if not timed:
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return function(*args, **kwargs)
            return counted

        def counted_timed(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
        return counted_timed

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Swap every entry point for its recording wrapper."""
        for module, path, name in SPAN_POINTS:
            self._patch(module, path, lambda f, n=name: self._spanned(n, f))
        for module, path, name, timed in COUNT_POINTS:
            self._patch(module, path, lambda f, n=name, t=timed: self._counted(n, f, t))

    def uninstall(self) -> None:
        """Restore the original entry points (in reverse order)."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _patch(self, module: str, path: str, make: Callable) -> None:
        owner: Any = importlib.import_module(module)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        original = getattr(owner, attribute, None) if owner is not None else None
        if not callable(original):
            if f"{module}.{path}" not in self.missing:
                self.missing.append(f"{module}.{path}")
            return
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    # -- analysis -------------------------------------------------------------

    def mark(self) -> tuple[int, Counter, dict[str, float]]:
        """A position to measure one session from (see :func:`layer_values`)."""
        return len(self.spans), Counter(self.counts), dict(self.count_seconds)


def self_times(spans: list[list], first: int = 0) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    children: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            children[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index in range(first, len(spans)):
        name, start, end, _, _ = spans[index]
        entry = out.setdefault(name, {"n": 0, "total": 0.0, "self": 0.0})
        entry["n"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - children[index]
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer: Tracer, mark: tuple, snapshot: dict[str, Any], workers: int,
                 discovered: int) -> dict[str, float]:
    """Per-layer figures of one traced session (set-up included).

    *snapshot* is that session's ``repro.obs`` snapshot; *discovered* is
    how many CFDs discovery returned.
    """
    first, counts_before, seconds_before = mark
    counters, histograms = snapshot["counters"], snapshot["histograms"]
    spans = self_times(tracer.spans, first)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self", 0.0)

    def n(name: str) -> int:
        return int(spans.get(name, {}).get("n", 0))

    def c(name: str) -> int:
        return int(counters.get(name, 0))

    queries_in_detect = sum(
        1 for name, _, _, parent, _ in tracer.spans[first:]
        if name == "sql.query" and parent >= 0
        and tracer.spans[parent][0] == "detection.sql_detect")
    task_hists = {k: v for k, v in histograms.items()
                  if k.startswith("engine.task.") and k.endswith(".seconds")}
    worker_s = sum(h["total"] for h in task_hists.values())
    run_total = spans.get("engine.run", {}).get("total", 0.0)
    plans = {kind: c(f"sql.plan.{kind}")
             for kind in ("code", "join", "multiway", "factorised", "row")}
    calls = tracer.counts - counts_before
    distance_s = tracer.count_seconds.get("repair.distance", 0.0) - \
        seconds_before.get("repair.distance", 0.0)
    values = {
        "relational.load_s": self_s("relational.load"),
        "relational.write_s": self_s("relational.write"),
        "cache.order.reuse_ratio": _ratio(c("cache.order.reuse"),
                                          c("cache.order.reuse") + c("cache.order.build")),
        "cache.bridge.reuse_ratio": _ratio(
            c("cache.bridge.valid"),
            c("cache.bridge.valid") + c("cache.bridge.rebuilt") + c("cache.bridge.build")),
        "cache.index.reuse_ratio": _ratio(c("cache.index.reuse"),
                                          c("cache.index.reuse") + c("cache.index.rebuild")),
        "sql.parse_ms": 1000 * _ratio(self_s("sql.parse"), n("sql.parse")),
        "sql.compile_ms": 1000 * _ratio(self_s("sql.compile"), n("sql.execute")),
        "sql.execute_ms": 1000 * _ratio(self_s("sql.execute"), n("sql.execute")),
        "sql.row_share": _ratio(plans["row"], sum(plans.values())),
        "detection.sql_detect_s": self_s("detection.sql_detect"),
        "detection.queries_per_detect": _ratio(queries_in_detect,
                                               n("detection.sql_detect")),
        "detection.direct_s": self_s("detection.direct"),
        "detection.cind_s": self_s("detection.cind"),
        "repair.batch_s": self_s("repair.batch"),
        "repair.passes": c("repair.passes"),
        "repair.changes": c("repair.changes"),
        "repair.distance_calls": calls.get("repair.distance_calls", 0),
        "repair.distance_s": distance_s,
        "cache.distance.hit_ratio": _ratio(c("cache.distance.hit"),
                                           c("cache.distance.hit") + c("cache.distance.miss")),
        "discovery.fds_s": self_s("discovery.fds"),
        "discovery.constant_s": self_s("discovery.constant"),
        "discovery.variable_s": self_s("discovery.variable"),
        "discovery.partition.scan": c("discovery.partition.scan"),
        "discovery.partition.product": c("discovery.partition.product"),
        "discovery.partition.cache_hit": c("discovery.partition.cache_hit"),
        "discovery.yield": _ratio(discovered,
                                  snapshot["gauges"].get("discovery.candidate_fds", 0)),
        "engine.run_s": self_s("engine.run"),
        "engine.worker_s": worker_s,
        "engine.efficiency": _ratio(worker_s, workers * run_total),
        "engine.tasks": int(sum(h["count"] for h in task_hists.values())),
        "constraints.parse_s": self_s("constraints.parse"),
        "constraints.reasoning_s": self_s("constraints.reasoning"),
        "cqa.rewrite_s": self_s("cqa.rewrite"),
    }
    for kind, count in plans.items():
        values[f"sql.plan.{kind}"] = count
    for name in ("engine.broadcast.build", "engine.broadcast.reuse",
                 "engine.broadcast.retokenize", "engine.pool.start", "engine.pool.reuse",
                 "engine.pool.rebuild", "engine.task.retry", "engine.task.timeout",
                 "engine.fallback.tasks"):
        values[name] = c(name)
    return values


def median_values(sessions: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced sessions."""
    return {name: statistics.median(s[name] for s in sessions) for name in sessions[0]}
