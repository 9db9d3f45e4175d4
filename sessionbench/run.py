"""Session-level benchmark of the Semandaq reproduction.

Usage, from the root of a checkout::

    python3 sessionbench/run.py --workload clean_session --seed 42 \\
        --seconds 30 --trace 0

One process runs one workload.  It makes the inputs from ``--seed``
(untimed).  It then repeats [set up a fresh session, run the scripted
session] until ``--seconds`` of wall time have passed, and at least
:data:`MIN_SESSIONS` times.  Between the requests of the untraced
sessions it makes an extra set-up every :data:`SETUP_EVERY_S` seconds;
the median of these is ``setup_s``.  Spreading them over the whole run
lets them see the same machine the sessions see: on a shared 2-vCPU
virtual machine the speed of the CPU drifted by a fifth from one second
to the next, so set-ups made back to back all caught the same second.
Every answer goes through an oracle in ``oracles.py`` after the clock has
stopped.

``--trace 0`` reports the end-to-end metrics, all measured with tracing
off.  ``--trace 1`` alternates untraced and traced sessions. The untraced
ones give the per-operation latencies. The traced ones give the per-layer
metrics, and the difference between the two gives ``obs.overhead_frac``.
The metric names and units come from ``BENCHMARK.json`` at the root of
the checkout.  The last line of standard output is one JSON object.  A
full result file (seed, sizes, engine, machine, digest, samples) and, for
traced runs, the spans go to ``.sessionbench_out/`` at the root of the
checkout.  The exit code is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".sessionbench_out"

#: wall seconds between two set-up samples (their median is ``setup_s``).
SETUP_EVERY_S = 1.0
#: sessions a run makes even when ``--seconds`` has already passed.
MIN_SESSIONS = 2

#: session request kinds reported as per-operation latencies.
OPERATIONS = ("detect", "repair", "discover", "query", "cqa", "write")


def listed_metrics(trace: int) -> dict[str, str]:
    """Name → unit of the metrics ``BENCHMARK.json`` lists for this mode."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("clean_session", "profile_parallel", "sql_analytics"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-tests use tiny sizes)")
    return parser.parse_args(argv)


def children_cpu() -> float:
    """CPU seconds of every reaped child process (the engine's pool workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def worker_rss_mb() -> float:
    """Peak RSS of the largest reaped child, pages shared with this process included."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def set_up(workload: Any, client: Any, memory: Any = None) -> tuple[Any, float | None]:
    """One timed, checked set-up; returns (state, CPU seconds of this process).

    The state and the time are ``None`` when the set-up raised.
    """
    gc.collect()
    fixture = workload.fixture()
    if memory is not None:
        memory.start_session()
    answered = len(client.steps)
    state = client.call("setup", workload.setup,
                        lambda state: workload.check_setup(state, fixture))
    return state, (client.steps[-1][2] if len(client.steps) > answered else None)


class SetupSampler:
    """Set-ups made between session requests, at most one per :data:`SETUP_EVERY_S`.

    The engine binds a worker pool to a broadcast state that a request
    builds, so no set-up starts a pool today.  Should one ever do so, the
    sample cannot shut it down without killing the session's pools; the
    sample is then flagged in the result file (``setup_started_workers``).
    """

    def __init__(self, workload: Any) -> None:
        import workloads

        self.workload = workload
        self.client = workloads.Client()
        self.samples: list[float] = []
        self.started_workers = False
        self._last = float("-inf")  # the first request is always followed by one

    def __call__(self) -> None:
        if perf_counter() - self._last < SETUP_EVERY_S:
            return
        children = {p.pid for p in multiprocessing.active_children()}
        state, cpu = set_up(self.workload, self.client)
        if cpu is not None:
            self.samples.append(cpu)
        del state
        gc.collect()
        if {p.pid for p in multiprocessing.active_children()} - children:
            self.started_workers = True
        self._last = perf_counter()


def run(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; returns (result line, full result record)."""
    import workloads
    from repro import obs
    from repro.engine.executor import shutdown_pools

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    tracer = spans.Tracer() if args.trace else None
    memory = workloads.ProgramMemory()
    client = workloads.Client(memory=memory)
    traced_client = workloads.Client(tracer)
    sampler = SetupSampler(workload)
    if not args.trace:
        client.between = sampler
    sessions: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
    layers: list[dict[str, float]] = []

    start = perf_counter()
    index = 0
    while index < MIN_SESSIONS or perf_counter() - start < args.seconds:
        traced = bool(args.trace) and index % 2 == 1
        index += 1
        active = traced_client if traced else client
        if traced:
            obs.reset()
            obs.enable()
            tracer.install()
            workload.tracer = tracer
        mark = tracer.mark() if traced else None
        shutdown_pools()
        state, _ = set_up(workload, active, None if traced else memory)
        if state is not None:
            first, workers_cpu, failed_before = len(active.steps), children_cpu(), active.failed
            workload.session(state, active)
            shutdown_pools()  # reaps the workers, so their CPU time is counted
            sessions[traced].append({"steps": step_times(active.steps[first:]),
                                     "workers_cpu": children_cpu() - workers_cpu,
                                     "digest": active.take_digest(),
                                     "failed": active.failed - failed_before})
        if traced:
            snapshot = obs.metrics()
            tracer.uninstall()
            workload.tracer = None
            obs.disable()
            obs.reset()
            if state is not None:
                layers.append(spans.layer_values(tracer, mark, snapshot, workload.workers,
                                                 workload.discovered_count))
        shutdown_pools()
        state = None
    elapsed = perf_counter() - start

    attempted = client.attempted + traced_client.attempted + sampler.client.attempted
    failed = client.failed + traced_client.failed + sampler.client.failed
    problems = client.problems + traced_client.problems + sampler.client.problems
    setups = sampler.samples
    digests = sorted({s["digest"] for s in sessions[False] + sessions[True]
                      if not s["failed"]})
    if len(digests) > 1:
        # the same inputs and script must give the same answers every time
        failed += 1
        problems.append(f"answers differ between sessions: digests {digests}")
    if tracer is not None and tracer.missing:
        # a per-layer metric would read 0 for good without measuring anything
        failed += 1
        problems.append(f"trace: entry points not found: {tracer.missing}")
    if not args.trace:
        values = {
            "setup_s": _median(setups),
            "session_cpu_s": session_cpu(sessions[False]),
            "peak_rss_mb": memory.peak_kib / 1024,
        }
    else:
        values = per_op_values(client.samples)
        values["session.wall_s"] = session_wall(sessions[False])
        values["obs.overhead_frac"] = (
            session_cpu(sessions[True]) / session_cpu(sessions[False]) - 1
            if sessions[True] and sessions[False] else 0.0)
        values.update(spans.median_values(layers) if layers
                      else {name: 0.0 for name in spans.LAYER_NAMES})
        values["engine.worker_rss_mb"] = worker_rss_mb()
    units = listed_metrics(args.trace)
    unmeasured = sorted(set(units) - set(values))
    if unmeasured:
        raise SystemExit(f"sessionbench: BENCHMARK.json lists unmeasured metrics {unmeasured}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {
        "workload": workload.name, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "elapsed_s": elapsed,
        "scale": args.scale, "sizes": workload.sizes,
        "engine": workload.engine, "workers": workload.workers,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "machine": platform.machine(), "cpu_count": os.cpu_count(),
        "digest": digests[0] if digests else None,
        "sessions": {"untraced": len(sessions[False]), "traced": len(sessions[True])},
        "setups": len(setups),
        "setup_cpu_s": setups,
        "setup_started_workers": sampler.started_workers,
        "benchmark_rss_mb": memory.baseline_kib / 1024,
        "session_wall_sums_s": [sum(w for w, _ in s["steps"].values())
                                for s in sessions[False]],
        "session_cpu_sums_s": [sum(c for _, c in s["steps"].values()) + s["workers_cpu"]
                               for s in sessions[False]],
        "setup_wall_s": _median(client.samples.get("setup", [])),
        "discovered": workload.discovered_count,
        "operations": {f"{kind}_ms": {"median": 1000 * _median(v), "n": len(v)}
                       for kind, v in sorted(client.samples.items())},
        "fail_frac": failed / attempted if attempted else 0.0,
        "problems": problems[:20],
        "unpatched": tracer.missing if tracer else [],
        "result": line,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        (OUT / f"{workload.name}-seed{args.seed}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "call"], "spans": tracer.spans}))
    return line, record


def step_times(steps: list[tuple[str, float, float]]) -> dict[str, tuple[float, float]]:
    """One session's (wall, CPU) per step; ``detect#3`` is its third ``detect``."""
    seen: Counter = Counter()
    times = {}
    for label, wall, cpu in steps:
        seen[label] += 1
        times[f"{label}#{seen[label]}"] = (wall, cpu)
    return times


def _step_sum(sessions: list[dict[str, Any]], which: int) -> float:
    """Sum over the script's steps of each step's median across sessions.

    Taking the median per step before summing means a burst of machine
    noise moves one sample of a few steps, not a whole session's total.
    """
    steps = sorted({label for session in sessions for label in session["steps"]})
    return sum(_median([s["steps"][label][which] for s in sessions
                        if label in s["steps"]]) for label in steps)


def session_wall(sessions: list[dict[str, Any]]) -> float:
    """Wall-clock seconds of one scripted session."""
    return _step_sum(sessions, 0)


def session_cpu(sessions: list[dict[str, Any]]) -> float:
    """CPU seconds of one scripted session: this process plus the pool workers."""
    return _step_sum(sessions, 1) + _median([s["workers_cpu"] for s in sessions])


def per_op_values(samples: dict[str, list[float]]) -> dict[str, float]:
    """Median latency and sample count per operation kind and SQL template."""
    values: dict[str, float] = {}
    for op in OPERATIONS:
        values[f"op.{op}_ms"] = 1000 * _median(samples.get(op, []))
        values[f"op.{op}_n"] = len(samples.get(op, []))
    queries = samples.get("query", [])
    values["op.queries_per_s"] = len(queries) / sum(queries) if queries else 0.0
    for template in inputs.TEMPLATES:
        values[f"sql.tpl.{template}_ms"] = 1000 * _median(samples.get(f"tpl.{template}", []))
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"sessionbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    line, record = run(args)
    print(f"workload {record['workload']}: seed {record['seed']}, sizes {record['sizes']}, "
          f"engine {record['engine']} x{record['workers']}, "
          f"{record['sessions']} sessions, {record['setups']} set-ups, "
          f"digest {record['digest']}, benchmark's own RSS "
          f"{record['benchmark_rss_mb']:.1f} MB")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"fail_frac: {record['fail_frac']:.4f} ({line['failed']} of "
          f"{line['attempted']} operations)")
    for name, op in record["operations"].items():
        print(f"{name}: {op['median']:.6g} ms (median of {op['n']})")
    for name, metric in line["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
