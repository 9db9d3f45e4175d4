"""Shared fixtures and helpers for the benchmark harness.

Every experiment E1–E18 has one ``bench_eNN_*.py`` module in this directory.
Benchmarks are kept laptop-sized (thousands of tuples, not millions): the
goal is to reproduce the *shape* of the published series — who wins, how
cost scales, where crossovers fall — not absolute wall-clock numbers.

Run with::

    pytest benchmarks/ --benchmark-only -s

(`-s` shows the printed series tables in addition to pytest-benchmark's
timing table.)
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# allow running the benchmarks without installing the package
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import obs  # noqa: E402  (needs the src path above)


def _cache_hit_rates(counters: dict[str, int]) -> dict[str, float]:
    """hit / (hit + miss) per cache that recorded at least one event."""
    rates: dict[str, float] = {}
    for name, hits in counters.items():
        if not name.endswith(".hit"):
            continue
        misses = counters.get(name[: -len(".hit")] + ".miss", 0)
        if hits + misses:
            rates[name[: -len(".hit")]] = hits / (hits + misses)
    return rates


@pytest.fixture(autouse=True)
def metrics_in_extra_info(request):
    """Attach an obs metrics snapshot to each benchmark's ``extra_info``.

    Collection is switched on for the duration of the benchmark and the
    registry is reset around it, so the snapshot covers exactly one
    benchmark: cache hit rates, engine chunk/run counts, and plan-choice
    counters land in the ``--benchmark-json`` output.
    """
    saved_enabled, saved_trace = obs.enabled, obs.trace_enabled
    obs.enable()
    obs.reset()
    yield
    snapshot = obs.metrics()
    obs.enabled, obs.trace_enabled = saved_enabled, saved_trace
    obs.reset()
    benchmark = request.node.funcargs.get("benchmark")
    if benchmark is None:
        return
    counters = snapshot["counters"]
    benchmark.extra_info["obs"] = {
        "cache_hit_rates": _cache_hit_rates(counters),
        "engine": {name: value for name, value in counters.items()
                   if name.startswith("engine.")},
        "sql_plans": {name: value for name, value in counters.items()
                      if name.startswith("sql.plan.")},
        "chunks": {name: summary for name, summary
                   in snapshot["histograms"].items()
                   if name.endswith(".chunks")},
    }


def print_series(title: str, header: list[str], rows: list[list]) -> None:
    """Print a small fixed-width table (the series a paper figure would plot)."""
    rendered = [[_format(cell) for cell in row] for row in rows]
    widths = [max(len(header[i]), *(len(row[i]) for row in rendered)) if rendered else len(header[i])
              for i in range(len(header))]
    print()
    print(f"== {title} ==")
    print("  " + " | ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in rendered:
        print("  " + " | ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    print()


def _format(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)
