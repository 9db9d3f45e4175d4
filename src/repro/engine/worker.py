"""Per-chunk detection workers.

Everything in this module is *plain data in, plain data out*: a worker
receives a task ``(handler name, payload)`` and reads the broadcast
*state* (code arrays, pre-encoded constant code sets, per-code string
caches) that the parent shipped when the pool was (re)started.  Workers
never see :class:`~repro.relational.relation.Relation`,
:class:`~repro.constraints.cfd.CFD` or violation objects — they return
tids, partial groups keyed by code tuples, and per-group verdicts, and
the parent assembles the actual :class:`CFDViolation`/:class:`CINDViolation`
objects.  That keeps the payloads small and picklable under both the
``fork`` and ``spawn`` start methods.

Correctness contract: every handler replicates its sequential twin
*operation by operation* (including rebuilding each tid group as a
``set`` with the same insertion history the sequential
:class:`~repro.relational.index.HashIndex` would have) so that the merged
output is byte-identical to the sequential columnar path.

Supervision contract: the pool dispatch target is
:func:`dispatch_supervised`, which wraps every task in a structured
envelope — ``("ok", seconds, result)`` on success, ``("err", seconds,
TaskFailure)`` when the handler raised — so an in-worker exception
travels back as plain picklable data instead of poisoning the pool.  The
same dispatch path hosts the seeded fault-injection hook (``REPRO_FAULTS``
or :func:`install_faults`) used by the chaos tests: injected faults only
ever fire here, never in :func:`run_local` / :func:`run_local_timed`,
which is what makes the executor's in-process fallback a safe harbour.
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_left
from itertools import product
from time import perf_counter
from typing import Any

from repro.relational.columns import NULL_CODE, take

#: broadcast state of the current pool generation (set by the initializer).
_STATE: dict[str, Any] | None = None


def initialize(state: dict[str, Any]) -> None:
    """Pool initializer: install the broadcast state in this process.

    Also runs in workers the pool spawns to replace crashed ones, so a
    repopulated worker holds the current broadcast generation — and a
    fresh per-pid fault stream — without any parent-side bookkeeping.
    """
    global _STATE
    _STATE = state
    if _FAULTS_SOURCE != "manual":
        install_env_faults()
    elif _FAULTS is not None:
        _FAULTS.reset()


# -- supervision envelope ----------------------------------------------------


class TaskFailure:
    """Picklable record of one task attempt that failed inside a worker.

    Carried back through the ``("err", seconds, failure)`` envelope (or
    synthesised parent-side for crashes and timeouts, where no worker is
    left to report).  ``kind`` is one of ``"error"`` (the handler
    raised), ``"crash"`` (the worker process died) or ``"timeout"``.
    """

    def __init__(self, task: str, kind: str, message: str) -> None:
        self.task = task
        self.kind = kind
        self.message = message

    def __repr__(self) -> str:
        return f"TaskFailure({self.task!r}, {self.kind!r}, {self.message!r})"


def payload_summary(task: tuple[str, Any]) -> str:
    """Compact, code-free description of a task for error messages.

    Container payload parts collapse to ``type[len]`` so a failure over a
    4096-tid chunk never drags the chunk itself into an exception chain.
    """
    name, payload = task
    parts = payload if isinstance(payload, tuple) else (payload,)
    rendered = []
    for part in parts:
        if isinstance(part, str):
            rendered.append(part)
        elif isinstance(part, (list, tuple, set, frozenset, dict)):
            rendered.append(f"{type(part).__name__}[{len(part)}]")
        else:
            rendered.append(type(part).__name__)
    return f"{name}({', '.join(rendered)})"


def dispatch_supervised(task: tuple[str, Any]) -> tuple[str, float, Any]:
    """Supervised pool dispatch target: never lets an exception escape.

    Returns ``("ok", worker seconds, result)`` or ``("err", worker
    seconds, TaskFailure)``.  ``KeyboardInterrupt``/``SystemExit`` still
    propagate (pool teardown must win over supervision), and injected
    ``crash``/``hang`` faults act *before* the envelope — by design, they
    simulate failures the envelope cannot catch.
    """
    name, payload = task
    fault = _FAULTS.draw(name) if _FAULTS is not None else None
    start = perf_counter()
    try:
        if fault is not None:
            _apply_fault(fault, name)
        result = _HANDLERS[name](_STATE, payload)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        return ("err", perf_counter() - start,
                TaskFailure(name, "error", f"{type(exc).__name__}: {exc}"))
    return ("ok", perf_counter() - start, result)


# -- fault injection ---------------------------------------------------------

#: how long an injected hang sleeps; the supervising parent's per-task
#: timeout (and the pool rebuild that follows) is what actually ends it.
HANG_SECONDS = 3600.0

#: exit code of injected crashes (looks like an abrupt kill to the pool).
CRASH_EXIT_CODE = 113


class InjectedFault(RuntimeError):
    """The transient exception raised by an injected ``raise`` fault."""


class FaultInjector:
    """Seeded random fault plan: at most one fault kind per dispatch.

    Each worker process draws from its own ``random.Random`` stream
    derived from ``(seed, pid)``, so a fixed seed gives a reproducible
    fault schedule per worker while fork-inherited copies still diverge.
    """

    def __init__(self, rates: dict[str, float], seed: int = 0) -> None:
        self.rates = dict(rates)
        self.seed = seed
        self._random: random.Random | None = None

    def reset(self) -> None:
        """Drop the stream so the next draw reseeds from the current pid."""
        self._random = None

    def draw(self, task_name: str) -> str | None:
        stream = self._random
        if stream is None:
            stream = self._random = random.Random(f"{self.seed}:{os.getpid()}")
        for kind in ("crash", "hang", "raise"):
            rate = self.rates.get(kind, 0.0)
            if rate and stream.random() < rate:
                return kind
        return None


class ScriptedFaults:
    """Programmatic injector for tests: a per-process script of fault kinds.

    Each dispatch consumes the next entry (``None`` = run cleanly); an
    exhausted script injects nothing.  Install before the pool forks so
    every worker inherits its own copy of the script.
    """

    def __init__(self, kinds: list[str | None]) -> None:
        self._kinds = list(kinds)

    def reset(self) -> None:
        return None

    def draw(self, task_name: str) -> str | None:
        if self._kinds:
            return self._kinds.pop(0)
        return None


_FAULTS: Any = None
_FAULTS_SOURCE: str | None = None


def install_faults(injector: Any) -> None:
    """Install a programmatic fault injector (survives pool re-forks)."""
    global _FAULTS, _FAULTS_SOURCE
    _FAULTS = injector
    _FAULTS_SOURCE = "manual"


def clear_faults() -> None:
    """Remove any installed fault injector (programmatic or env-derived)."""
    global _FAULTS, _FAULTS_SOURCE
    _FAULTS = None
    _FAULTS_SOURCE = None


def install_env_faults() -> None:
    """(Re)build the injector from ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``."""
    global _FAULTS, _FAULTS_SOURCE
    from repro import config

    rates = config.faults_default()
    if rates:
        _FAULTS = FaultInjector(rates, seed=config.faults_seed_default())
        _FAULTS_SOURCE = "env"
    else:
        _FAULTS = None
        _FAULTS_SOURCE = None


def _apply_fault(kind: str, task_name: str) -> None:
    if kind == "crash":
        # simulate an OOM kill: no cleanup, no exception, no envelope
        os._exit(CRASH_EXIT_CODE)
    if kind == "hang":
        time.sleep(HANG_SECONDS)
        return
    raise InjectedFault(f"injected fault in task {task_name!r}")


def dispatch(task: tuple[str, Any]) -> Any:
    """Run one task against the installed state (pool ``map`` target)."""
    name, payload = task
    return _HANDLERS[name](_STATE, payload)


def run_local(state: dict[str, Any], tasks: list[tuple[str, Any]]) -> list[Any]:
    """Run tasks in-process (the serial backend and small-input fallback)."""
    return [_HANDLERS[name](state, payload) for name, payload in tasks]


def dispatch_timed(task: tuple[str, Any]) -> tuple[float, Any]:
    """Like :func:`dispatch`, returning ``(worker seconds, result)``.

    The elapsed time is measured inside the worker process, so the parent
    can separate genuine compute time from pickling/IPC overhead when it
    folds the timings into the metrics registry.  Timings never feed back
    into results — merged output stays byte-identical to the untimed path.
    """
    name, payload = task
    start = perf_counter()
    result = _HANDLERS[name](_STATE, payload)
    return perf_counter() - start, result


def run_local_timed(state: dict[str, Any],
                    tasks: list[tuple[str, Any]]) -> list[tuple[float, Any]]:
    """Run tasks in-process, timing each: ``[(seconds, result), ...]``."""
    timed = []
    for name, payload in tasks:
        start = perf_counter()
        result = _HANDLERS[name](state, payload)
        timed.append((perf_counter() - start, result))
    return timed


# -- CFD scan phase ---------------------------------------------------------


def _cfd_scan(state: dict[str, Any], payload: tuple[str, list[int]]) -> dict[str, Any]:
    """Scan one chunk: single-tuple violations + partial LHS groups.

    Returns ``singles`` as ``(pattern index, tid)`` pairs in tid-major
    order (the batch detector's emission order; the per-CFD detector
    re-partitions them by pattern) and ``groups`` as ``code key -> tids``
    with tids in chunk scan order.
    """
    spec_id, tids = payload
    spec = state[spec_id]
    patterns = spec["patterns"]
    single_pidxs = spec["single_pidxs"]

    singles: list[tuple[int, int]] = []
    if single_pidxs:
        tests = [(pidx, patterns[pidx]["lhs_tests"], patterns[pidx]["rhs_tests"])
                 for pidx in single_pidxs]
        for tid in tids:
            for pidx, lhs_tests, rhs_tests in tests:
                for codes, allowed in lhs_tests:
                    if codes[tid] not in allowed:
                        break
                else:
                    for codes, allowed in rhs_tests:
                        if codes[tid] not in allowed:
                            singles.append((pidx, tid))
                            break
    groups: dict[tuple[int, ...], list[int]] = {}
    if spec["group_pidxs"]:
        key_arrays = spec["key_arrays"]
        if len(key_arrays) == 1:
            # chunk view: one C-speed gather, then a scalar-keyed loop
            for tid, code in zip(tids, take(key_arrays[0], tids)):
                key = (code,)
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = [tid]
                else:
                    bucket.append(tid)
        else:
            views = [take(codes, tids) for codes in key_arrays]
            for i, tid in enumerate(tids):
                key = tuple(view[i] for view in views)
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = [tid]
                else:
                    bucket.append(tid)
    return {"singles": singles, "groups": groups}


# -- CFD group-check phase --------------------------------------------------


def _rhs_key(arrays: list[list[int]], tid: int) -> Any:
    if len(arrays) == 1:
        return arrays[0][tid]
    return tuple(codes[tid] for codes in arrays)


def is_null_code(code: int) -> bool:
    return code == NULL_CODE


def rhs_disagree(keys: Any, is_null: Any = is_null_code) -> bool:
    """Whether wildcard-RHS keys hold two different non-NULL values.

    The CFD group test of the queries Semandaq generates —
    ``COUNT(DISTINCT A) > 1`` on some wildcard-RHS attribute ``A`` — so a
    NULL disagrees with nothing.  *keys* are bare values (one attribute)
    or equal-length tuples; *is_null* tells NULL apart (codes by default).
    """
    seen: dict[int, Any] = {}
    for key in keys:
        for position, value in enumerate(key if isinstance(key, tuple) else (key,)):
            if not is_null(value) and seen.setdefault(position, value) != value:
                return True
    return False


def rhs_bucket_pairs(by_rhs: dict[Any, list[int]],
                     is_null: Any = is_null_code) -> list[tuple[list[int], list[int]]]:
    """The pairs of RHS buckets (insertion order) whose keys disagree."""
    buckets = list(by_rhs.items())
    return [(bucket, other)
            for index, (key, bucket) in enumerate(buckets)
            for other_key, other in buckets[index + 1:]
            if rhs_disagree((key, other_key), is_null)]


def _cfd_groups(state: dict[str, Any],
                payload: tuple[str, list[list[int]]]) -> list[dict[int, tuple]]:
    """Check merged groups against every variable-RHS pattern.

    Each group arrives as its full (cross-chunk) tid list in ascending
    order; a group violates when its matching tuples disagree in the
    sense of :func:`rhs_disagree`.  The verdict per pattern is either a
    group-violation tid tuple or, under ``enumerate_pairs``, the pairs of
    disagreeing RHS buckets the parent expands into tid pairs.
    """
    spec_id, groups = payload
    spec = state[spec_id]
    patterns = spec["patterns"]
    group_pidxs = spec["group_pidxs"]
    replicate_set = spec["kind"] == "cfd"
    enumerate_pairs = spec["enumerate_pairs"]

    results: list[dict[int, tuple]] = []
    for tids in groups:
        if replicate_set:
            # Rebuild the bucket exactly as HashIndex.rebuild would (ascending
            # insertion), so iteration order matches the sequential detector's.
            members: Any = set()
            for tid in tids:
                members.add(tid)
        else:
            members = tids  # the batch path iterates the sorted bucket
        verdicts: dict[int, tuple] = {}
        for pidx in group_pidxs:
            pattern = patterns[pidx]
            lhs_tests = pattern["lhs_tests"]
            if lhs_tests:
                matching = []
                for tid in members:
                    for codes, allowed in lhs_tests:
                        if codes[tid] not in allowed:
                            break
                    else:
                        matching.append(tid)
                if len(matching) < 2:
                    continue
            else:
                matching = list(members)
            arrays = pattern["variable_arrays"]
            if enumerate_pairs or replicate_set:
                by_rhs: dict[Any, list[int]] = {}
                for tid in matching:
                    key = _rhs_key(arrays, tid)
                    bucket = by_rhs.get(key)
                    if bucket is None:
                        by_rhs[key] = [tid]
                    else:
                        bucket.append(tid)
                if not rhs_disagree(by_rhs):
                    continue
                if enumerate_pairs:
                    verdicts[pidx] = ("p", rhs_bucket_pairs(by_rhs))
                else:
                    verdicts[pidx] = ("g", tuple(sorted(matching)))
            elif rhs_disagree({_rhs_key(arrays, tid) for tid in matching}):
                verdicts[pidx] = ("g", tuple(matching))
        results.append(verdicts)
    return results


# -- discovery partition phase ----------------------------------------------


def _partition_scan(state: dict[str, Any],
                    payload: tuple[str, tuple[int, ...], list[int]]) -> dict[Any, list[int]]:
    """Group one chunk's tids by their code key over the given positions.

    The partial groups (bare code keys for one position, code tuples
    otherwise; tids in chunk scan order) are stitched by the parent's
    :class:`~repro.engine.merge.GroupMerger` into exactly the
    first-occurrence-ordered groups a sequential
    :meth:`~repro.relational.columns.ColumnStore.partition_groups` scan
    produces.
    """
    spec_id, positions, tids = payload
    arrays = state[spec_id]["arrays"]
    groups: dict[Any, list[int]] = {}
    if len(positions) == 1:
        for tid, code in zip(tids, take(arrays[positions[0]], tids)):
            bucket = groups.get(code)
            if bucket is None:
                groups[code] = [tid]
            else:
                bucket.append(tid)
    else:
        views = [take(arrays[p], tids) for p in positions]
        for i, tid in enumerate(tids):
            key = tuple(view[i] for view in views)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [tid]
            else:
                bucket.append(tid)
    return groups


# -- SQL scan phase ----------------------------------------------------------

#: aggregate kind -> integer op code driving the scan loop (shared with
#: the parent-side finalizers, so partial-state shapes cannot drift).
AGGREGATE_OPS = {"count_star": 0, "count": 1, "count_distinct": 2,
                 "sum": 3, "avg": 3, "min": 4, "max": 5}


def initial_aggregate_state(kind: str) -> Any:
    """The partial-aggregate state before any tuple is folded in."""
    op = AGGREGATE_OPS[kind]
    if op <= 1:          # count_star | count
        return 0
    if op == 2:          # count_distinct
        return set()
    if op == 3:          # sum | avg
        return []
    return None          # min | max


def filter_tids(arrays: list[list[int]], filters: list[tuple[int, Any]],
               tids: list[int]) -> list[int]:
    """The tids of one chunk passing every ``(position, allowed codes)`` filter."""
    for position, allowed in filters:
        codes = arrays[position]
        tids = [tid for tid in tids if codes[tid] in allowed]
    return tids


def _sql_scan(state: dict[str, Any],
              payload: tuple[str, dict[str, Any], list[int]]) -> Any:
    """Filter one chunk by code-set membership, optionally group + aggregate.

    The query rides in the payload (the broadcast state holds only the
    relation's code arrays): ``filters`` are ``(position, allowed codes)``
    pairs, ``group`` is ``None`` for a plain scan (the result is the
    surviving tids, chunk order) or a tuple of positions (possibly empty —
    one global group), and ``aggs`` are the aggregate specs of
    :func:`repro.relational.sql.columnar.query_payload`.

    Grouped results map each code key to ``[first tid, state, ...]`` with
    one partial-aggregate state per spec:

    * ``count_star`` / ``count`` — an int (``count`` skips NULL codes);
    * ``count_distinct`` — the set of non-NULL codes seen;
    * ``sum`` / ``avg`` — the non-NULL codes in chunk scan order (the
      parent folds them in tuple order, so float accumulation is
      byte-identical to the sequential path for every chunk size);
    * ``min`` / ``max`` — the best ``(dictionary-order rank, code)``, ties
      keeping the first occurrence (the ranks array rides in the spec).

    :class:`~repro.engine.sql.AggregateMerger` combines these across
    chunks in chunk order.
    """
    spec_id, query, tids = payload
    arrays = state[spec_id]["arrays"]
    survivors = filter_tids(arrays, query["filters"], tids)
    group = query["group"]
    if group is None:
        return list(survivors)

    # op codes keep the per-tuple loop on integer dispatch
    steps: list[tuple[int, Any, Any]] = []
    for spec in query["aggs"]:
        kind = spec[0]
        op = AGGREGATE_OPS[kind]
        if kind == "count_star":
            steps.append((op, None, None))
        elif op >= 4:  # min | max carry their ranks array
            steps.append((op, arrays[spec[1]], spec[2]))
        else:
            steps.append((op, arrays[spec[1]], None))
    key_arrays = [arrays[position] for position in group]
    single = len(key_arrays) == 1
    groups: dict[Any, list] = {}
    for tid in survivors:
        if single:
            key = key_arrays[0][tid]
        elif key_arrays:
            key = tuple(codes[tid] for codes in key_arrays)
        else:
            key = ()
        entry = groups.get(key)
        if entry is None:
            entry = [tid] + [initial_aggregate_state(spec[0])
                             for spec in query["aggs"]]
            groups[key] = entry
        for index, (op, codes, ranks) in enumerate(steps, start=1):
            if op == 0:
                entry[index] += 1
                continue
            code = codes[tid]
            if code == NULL_CODE:
                continue
            if op == 1:
                entry[index] += 1
            elif op == 2:
                entry[index].add(code)
            elif op == 3:
                entry[index].append(code)
            else:
                rank = ranks[code]
                best = entry[index]
                if best is None or (rank < best[0] if op == 4 else rank > best[0]):
                    entry[index] = (rank, code)
    return groups


# -- SQL join-probe phase -----------------------------------------------------


def _join_probe(state: dict[str, Any],
                payload: tuple[str, dict[str, Any], list[int]]) -> Any:
    """Probe one chunk of a hash join's probe side against bridged buckets.

    The broadcast state holds both relations' code arrays (``sides``,
    index 0 = left); the query payload carries everything else: the probe
    side, its push-down ``filters``, the join ``keys`` as ``(probe
    position, bridge translation)`` pairs, the build side's code-keyed
    ``buckets`` (NULL-free, tids ascending), and — for grouped probes —
    ``group`` keys and ``aggs`` specs tagged with their side.

    A probe code translates through the bridge into the build dictionary;
    NULL (0) and :data:`~repro.relational.columns.NO_PARTNER` (-1) can
    never equal a bucket key (buckets key codes >= 1), so misses need no
    special-casing.  Results by shape:

    * plain, ``probe_side == 0`` — joined ``(left tid, right tid)`` pairs
      in left-major order (probe scan order, bucket order within);
    * plain, ``probe_side == 1`` — ``build (left) tid -> [probe (right)
      tids]`` partial matches; the parent re-emits them in left scan
      order, restoring exactly the left-major pair order;
    * grouped (always ``probe_side == 0``, so SUM/AVG fold order and
      group first-occurrence order stay left-major) — ``sql_scan``-style
      partial groups whose representative is the first ``(left tid,
      right tid)`` pair, merged by
      :class:`~repro.engine.sql.AggregateMerger`.
    """
    spec_id, query, tids = payload
    sides = state[spec_id]["sides"]
    probe_side = query["probe_side"]
    arrays = sides[probe_side]
    keys = [(arrays[position], translation)
            for position, translation in query["keys"]]
    buckets = query["buckets"]
    single = len(keys) == 1
    survivors = filter_tids(arrays, query["filters"], tids)

    def bucket_of(tid: int) -> list[int] | None:
        if single:
            codes, translation = keys[0]
            return buckets.get(translation[codes[tid]])
        return buckets.get(tuple([translation[codes[tid]]
                                  for codes, translation in keys]))

    group = query["group"]
    if group is None:
        if probe_side == 0:
            pairs: list[tuple[int, int]] = []
            for tid in survivors:
                bucket = bucket_of(tid)
                if bucket:
                    for build_tid in bucket:
                        pairs.append((tid, build_tid))
            return pairs
        matches: dict[int, list[int]] = {}
        for tid in survivors:
            bucket = bucket_of(tid)
            if bucket:
                for build_tid in bucket:
                    seen = matches.get(build_tid)
                    if seen is None:
                        matches[build_tid] = [tid]
                    else:
                        seen.append(tid)
        return matches

    # grouped: same op-code dispatch as _sql_scan, codes picked from the
    # (left tid, right tid) pair by each spec's side
    steps: list[tuple[int, int, Any, Any]] = []
    for spec in query["aggs"]:
        kind = spec[0]
        op = AGGREGATE_OPS[kind]
        if kind == "count_star":
            steps.append((op, 0, None, None))
        elif op >= 4:  # min | max carry their ranks array
            steps.append((op, spec[1], sides[spec[1]][spec[2]], spec[3]))
        else:
            steps.append((op, spec[1], sides[spec[1]][spec[2]], None))
    key_columns = [(side, sides[side][position]) for side, position in group]
    single_key = len(key_columns) == 1
    groups: dict[Any, list] = {}
    for tid in survivors:
        bucket = bucket_of(tid)
        if not bucket:
            continue
        for build_tid in bucket:
            pair = (tid, build_tid)
            if single_key:
                side, codes = key_columns[0]
                key = codes[pair[side]]
            elif key_columns:
                key = tuple(codes[pair[side]] for side, codes in key_columns)
            else:
                key = ()
            entry = groups.get(key)
            if entry is None:
                entry = [pair] + [initial_aggregate_state(spec[0])
                                  for spec in query["aggs"]]
                groups[key] = entry
            for index, (op, side, codes, ranks) in enumerate(steps, start=1):
                if op == 0:
                    entry[index] += 1
                    continue
                code = codes[pair[side]]
                if code == NULL_CODE:
                    continue
                if op == 1:
                    entry[index] += 1
                elif op == 2:
                    entry[index].add(code)
                elif op == 3:
                    entry[index].append(code)
                else:
                    rank = ranks[code]
                    best = entry[index]
                    if best is None or (rank < best[0] if op == 4 else rank > best[0]):
                        entry[index] = (rank, code)
    return groups


# -- SQL multiway-join phase --------------------------------------------------


def _gallop(values: list[int], target: int, lo: int, hi: int) -> int:
    """First index in ``values[lo:hi]`` (ascending) holding ``>= target``.

    Exponential probe then bisect — the standard leapfrog seek, sub-linear
    when the next match is near and ``O(log n)`` when it is far.
    """
    if lo >= hi or values[lo] >= target:
        return lo
    step = 1
    while lo + step < hi and values[lo + step] < target:
        step <<= 1
    return bisect_left(values, target, lo + (step >> 1) + 1, min(lo + step, hi))


def gallop_intersect(lists: list[list[int]]) -> list[int]:
    """Sorted intersection of ascending integer lists (leapfrog style).

    Starts from the shortest list and seeks into each other list with
    galloping search, so the cost tracks the smallest participant — the
    intersection step of the multiway join, shared by the parent (first
    variable, over whole relations) and the workers (deeper levels, over
    already-bound trie nodes).
    """
    if not lists:
        return []
    ordered = sorted(lists, key=len)
    result = ordered[0]
    for other in ordered[1:]:
        if not result:
            break
        kept: list[int] = []
        lo, hi = 0, len(other)
        for value in result:
            lo = _gallop(other, value, lo, hi)
            if lo >= hi:
                break
            if other[lo] == value:
                kept.append(value)
                lo += 1
        result = kept
    return result


def multiway_descend(levels: list[list[int]], tries: list[tuple],
                     candidates: list[int], counts: list[int],
                     visit: Any) -> None:
    """Walk the per-table join tries once, binding one variable per level.

    ``levels`` lists, per join variable in the chosen order, the tables
    joining on it; ``tries`` holds each table's trie
    (:func:`~repro.relational.sql.columnar.multiway_trie`: inner nodes are
    ``(ascending codes, code -> child)``).  Level 0 binds the chunk's
    *candidates*; every deeper level leapfrog-intersects the codes of its
    tables' current nodes (:func:`gallop_intersect`), and each common code
    moves those tables one node down while the others keep theirs — so a
    table is never regrouped per candidate.  At the last level
    ``visit(nodes, codes)`` receives every table's node and the last
    variable's common codes: its tables still hold ``code -> leaf`` maps,
    every other table already sits on its leaf.  ``counts[level]`` adds
    the codes bound at each level (EXPLAIN's per-level candidates).

    The enumerating probe and the factorised fold share this walk, so
    both see exactly the same bindings.
    """
    last = len(levels) - 1

    def walk(level: int, nodes: list, codes: list[int]) -> None:
        counts[level] += len(codes)
        if level == last:
            visit(nodes, codes)
            return
        tables = levels[level]
        following = levels[level + 1]
        for code in codes:
            bound = list(nodes)
            for table in tables:
                bound[table] = nodes[table][1][code]
            deeper = gallop_intersect([bound[table][0] for table in following])
            if deeper:
                walk(level + 1, bound, deeper)

    walk(0, list(tries), candidates)


def _multiway_probe(state: dict[str, Any],
                    payload: tuple[str, dict[str, Any], list[int]]) -> Any:
    """Enumerate the join tuples of one chunk of first-variable candidates.

    The query payload carries ``levels`` (the tables joining on each
    variable, chosen order) and one trie per table whose leaves are
    ascending tid lists; :func:`multiway_descend` binds the variables, and
    each fully bound assignment emits the cartesian product of the
    per-table leaves in FROM order.  The tuples are sorted before
    returning, so the parent's merge of all chunks is exactly the
    ascending ``(tid_1, .., tid_N)`` enumeration the row path produces.

    Returns ``(sorted tid tuples, per-level candidate counts)`` — the
    counts feed the obs histogram and EXPLAIN's per-level report.
    """
    _, query, candidates = payload
    levels = query["levels"]
    inner = levels[-1]
    counts = [0] * len(levels)
    results: list[tuple[int, ...]] = []

    def emit(nodes: list, codes: list[int]) -> None:
        for code in codes:
            leaves = list(nodes)
            for table in inner:
                leaves[table] = nodes[table][1][code]
            results.extend(product(*leaves))

    multiway_descend(levels, query["tries"], candidates, counts, emit)
    results.sort()
    return results, counts


def _multiway_fold(state: dict[str, Any],
                   payload: tuple[str, dict[str, Any], list[tuple[int, ...]]]) -> Any:
    """Group + aggregate one contiguous slice of sorted multiway join tuples.

    The slices arrive in global tuple order (the parent chunks the sorted
    enumeration of :func:`_multiway_probe`), so chunk-order merging by
    :class:`~repro.engine.sql.AggregateMerger` reproduces the row path's
    group first-occurrence order and float fold order exactly.  Same
    op-code dispatch as :func:`_join_probe`'s grouped branch, with each
    spec's ``side`` indexing into the N broadcast tables instead of two.
    """
    spec_id, query, combos = payload
    tables = state[spec_id]["tables"]
    steps: list[tuple[int, int, Any, Any]] = []
    for spec in query["aggs"]:
        kind = spec[0]
        op = AGGREGATE_OPS[kind]
        if kind == "count_star":
            steps.append((op, 0, None, None))
        elif op >= 4:  # min | max carry their ranks array
            steps.append((op, spec[1], tables[spec[1]][spec[2]], spec[3]))
        else:
            steps.append((op, spec[1], tables[spec[1]][spec[2]], None))
    key_columns = [(side, tables[side][position])
                   for side, position in query["group"]]
    single_key = len(key_columns) == 1
    groups: dict[Any, list] = {}
    for combo in combos:
        if single_key:
            side, codes = key_columns[0]
            key = codes[combo[side]]
        elif key_columns:
            key = tuple(codes[combo[side]] for side, codes in key_columns)
        else:
            key = ()
        entry = groups.get(key)
        if entry is None:
            entry = [combo] + [initial_aggregate_state(spec[0])
                               for spec in query["aggs"]]
            groups[key] = entry
        for index, (op, side, codes, ranks) in enumerate(steps, start=1):
            if op == 0:
                entry[index] += 1
                continue
            code = codes[combo[side]]
            if code == NULL_CODE:
                continue
            if op == 1:
                entry[index] += 1
            elif op == 2:
                entry[index].add(code)
            elif op == 3:
                entry[index].append(code)
            else:
                rank = ranks[code]
                best = entry[index]
                if best is None or (rank < best[0] if op == 4 else rank > best[0]):
                    entry[index] = (rank, code)
    return groups


# -- SQL factorised (semiring) aggregate phase --------------------------------
#
# Every factorised fold works on *parts*: ``[key, rep, size, partial per
# spec...]`` lists.  A part stands for ``size`` tuples of one table (or,
# once the innermost variable is eliminated, of several tables) sharing
# the group-key codes ``key``; ``rep`` is its first tuple's tid(s) and
# each spec on the part's tables carries one pre-folded partial.  Parts
# are folded once (:func:`fold_part`) and then only combined
# (:func:`_cross`), never re-scanned per join binding.


def initial_factorised_state(spec: tuple) -> Any:
    """The factorised partial state before any part is combined in.

    * ``count_star`` / ``count`` — an exact integer;
    * ``count_distinct`` and DISTINCT ``sum`` / ``avg`` — a code set
      (multiplicity-free, so the tuple product never matters);
    * non-DISTINCT ``sum`` / ``avg`` — an exact ``[total, count]`` pair;
    * ``min`` / ``max`` — the best ``(rank, code)`` or ``None``.
    """
    kind = spec[0]
    if kind in ("count_star", "count"):
        return 0
    if kind == "count_distinct":
        return set()
    if kind in ("sum", "avg"):
        return set() if spec[3] else [0, 0]
    return None  # min | max


def _fold_mode(spec: tuple) -> int:
    """0 COUNT, 1 code set, 2 exact ``[total, count]``, 3 MIN, 4 MAX."""
    kind = spec[0]
    if kind == "count":
        return 0
    if kind == "count_distinct" or (kind in ("sum", "avg") and spec[3]):
        return 1
    if kind in ("sum", "avg"):
        return 2
    return 3 if kind == "min" else 4


def fold_steps(aggs: list[tuple], side: int,
               arrays: list[list[int]]) -> list[tuple[int, int, Any, Any]]:
    """The :func:`fold_part` steps ``(slot, mode, codes, aux)`` of *side*'s specs.

    ``aux`` is the decoded value list for exact sums and the dense
    dictionary ranks for MIN/MAX (see
    :func:`~repro.relational.sql.columnar.factorised_aggregates`).
    """
    steps = []
    for slot, spec in enumerate(aggs, start=3):
        if spec[0] == "count_star" or spec[1] != side:
            continue
        mode = _fold_mode(spec)
        aux = spec[4] if mode == 2 else spec[3] if mode >= 3 else None
        steps.append((slot, mode, arrays[spec[2]], aux))
    return steps


def fold_part(key: tuple, tids: list[int], steps: list[tuple[int, int, Any, Any]],
              width: int) -> list:
    """Fold ascending *tids* of one table into a part, once per spec.

    COUNT counts non-NULL codes, code sets drop NULL, SUM/AVG keep an
    exact ``[total, count]``, MIN/MAX the best ``(rank, code)`` (the first
    occurrence on a tie, like the enumerated fold); specs of other tables
    stay ``None``.  The representative is the part's minimum tid.
    """
    part = [key, (tids[0],), len(tids)] + [None] * width
    for slot, mode, codes, aux in steps:
        present = [code for code in map(codes.__getitem__, tids)
                   if code != NULL_CODE]
        if mode == 0:
            part[slot] = len(present)
        elif mode == 1:
            part[slot] = set(present)
        elif mode == 2:
            part[slot] = [sum(map(aux.__getitem__, present)), len(present)]
        elif present:
            best = (min if mode == 3 else max)(present, key=aux.__getitem__)
            part[slot] = (aux[best], best)
    return part


def _cross_shape(aggs: list[tuple], key_slots: list[tuple[int, int]],
                 cover: list[list[int]], widths: list[int]) -> tuple:
    """How :func:`_cross` combines sides covering the tables in *cover*.

    ``cover[s]`` lists the tables side ``s``'s parts stand for (ascending);
    a part's key concatenates those tables' group-key codes (``widths``
    per table) and its representative their tids.  *key_slots* name the
    target key as ``(table, offset into that table's codes)``.  Returns
    ``(combine (part slot, mode, side) per spec, target key slots,
    representative slots)`` with slots as ``(side, offset)``; the
    representative slots list the covered tables in ascending (FROM)
    order.  Specs of tables no side covers are left out.
    """
    where: dict[int, tuple[int, int, int]] = {}
    for side, tables in enumerate(cover):
        offset = 0
        for rep_offset, table in enumerate(tables):
            where[table] = (side, offset, rep_offset)
            offset += widths[table]
    combines = [(slot, 0, 0) if spec[0] == "count_star"
                else (slot, _fold_mode(spec) + 1, where[spec[1]][0])
                for slot, spec in enumerate(aggs, start=3)
                if spec[0] == "count_star" or spec[1] in where]
    keys = [(where[table][0], where[table][1] + offset)
            for table, offset in key_slots]
    reps = [(where[table][0], where[table][2]) for table in sorted(where)]
    return combines, keys, reps


def _cross(sides: list[list[list]], shape: tuple, into: dict[tuple, list],
           aggs: list[tuple]) -> tuple[int, int]:
    """Combine every choice of one part per side into the parts of *into*.

    Semiring multiplication: the choice stands for the product of its
    part sizes, so COUNT(*) adds that product, a side's COUNT and exact
    sums scale by the co-sides' multiplicity (exact integers), code sets
    union and MIN/MAX keep the strictly better rank.  Target parts keep
    the lexicographically smallest representative — with every
    representative a per-side minimum, exactly the first tuple of the
    enumerated product.  Returns ``(combines, tuples)``: choices combined
    and enumerated tuples they stand for.
    """
    combines, key_slots, rep_slots = shape
    performed = 0
    tuples = 0
    for choice in product(*sides):
        multiplier = 1
        for part in choice:
            multiplier *= part[2]
        performed += 1
        tuples += multiplier
        key = tuple([choice[side][0][offset] for side, offset in key_slots])
        rep = tuple([choice[side][1][offset] for side, offset in rep_slots])
        entry = into.get(key)
        if entry is None:
            entry = into[key] = [key, rep, 0] + [initial_factorised_state(spec)
                                                 for spec in aggs]
        elif rep < entry[1]:
            entry[1] = rep
        entry[2] += multiplier
        for slot, mode, side in combines:
            if mode == 0:        # COUNT(*): the whole product
                entry[slot] += multiplier
                continue
            part = choice[side]
            stat = part[slot]
            if mode == 1:        # COUNT: scale by the co-sides' multiplicity
                entry[slot] += stat * (multiplier // part[2])
            elif mode == 2:      # code set: union
                entry[slot] |= stat
            elif mode == 3:      # [total, count] × the co-sides' multiplicity
                scale = multiplier // part[2]
                pair_state = entry[slot]
                pair_state[0] += stat[0] * scale
                pair_state[1] += stat[1] * scale
            elif stat is not None:  # 4 min | 5 max
                best = entry[slot]
                if best is None or (stat[0] < best[0] if mode == 4
                                    else stat[0] > best[0]):
                    entry[slot] = stat
    return performed, tuples


def _key_layout(group: list[tuple[int, int]],
                tables: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Group-key codes per table and each key slot as ``(table, offset)``."""
    widths = [0] * tables
    slots = []
    for table, _ in group:
        slots.append((table, widths[table]))
        widths[table] += 1
    return widths, slots


def _groups_of(entries: dict[tuple, list], single: bool) -> dict[Any, list]:
    """``sql_scan``-shaped groups (bare code for one key) from target parts."""
    return {key[0] if single else key: [entry[1]] + entry[3:]
            for key, entry in entries.items()}


def _factorised_fold(state: dict[str, Any],
                     payload: tuple[str, dict[str, Any], list]) -> Any:
    """Fold one chunk of a grouped join without enumerating its tuples.

    Dispatches on the query's ``kind``: ``"join"`` folds probe classes
    against pre-folded hash-bucket blocks (:func:`_factorised_join_fold`),
    ``"multi"`` walks the pre-folded tries
    (:func:`_factorised_multi_fold`).  Both return ``(groups, combines,
    tuples, extra)``: ``sql_scan``-shaped partial groups (the
    representative is the enumerated path's first tuple), the semiring
    combines performed, the enumerated tuples they replaced, and the
    number of probe classes (join) or the per-level candidate counts
    (multiway).
    """
    spec_id, query, items = payload
    if query["kind"] == "join":
        return _factorised_join_fold(state[spec_id]["sides"][0], query, items)
    return _factorised_multi_fold(query, items)


def _factorised_join_fold(arrays: list[list[int]], query: dict[str, Any],
                          tids: list[int]) -> Any:
    """Fold one probe chunk of a two-table join, once per join key per side.

    The build side arrives pre-folded: each hash bucket holds *blocks*,
    one part per build-side group-key projection
    (:func:`repro.relational.sql.columnar.build_factorised_buckets`).
    One pass puts the surviving probe tids into *classes* by (bridged join
    key, probe-side group-key codes) — same filters, translation and
    NULL / NO_PARTNER misses as :func:`_join_probe` — and folds each
    class into one part; each class then combines each block of its
    bucket once (:func:`_cross`): COUNT(*) adds block size × class size,
    probe-side partials scale by the block size, build-side ones by the
    class size.

    Classes are visited in first-tid order and represent as (class first
    tid, block first tid), so group first-occurrence order and
    representatives are the enumerated probe's: a group's first pair
    ``(t, b)`` has ``t`` first in its class, because every class member
    meets the same blocks under the same probe-side key codes.
    """
    survivors = filter_tids(arrays, query["filters"], tids)
    keys = [(arrays[position], translation)
            for position, translation in query["keys"]]
    buckets = query["buckets"]
    aggs = query["aggs"]
    group = query["group"]
    probe_keys = [arrays[position] for side, position in group if side == 0]

    if len(keys) == 1:
        codes, translation = keys[0]
        join_keys = [translation[codes[tid]] for tid in survivors]
    else:
        join_keys = [tuple([translation[codes[tid]] for codes, translation in keys])
                     for tid in survivors]
    # a class is keyed by its join key alone when no group key is probe-side
    class_keys = join_keys if not probe_keys else [
        (join_key, *[codes[tid] for codes in probe_keys])
        for tid, join_key in zip(survivors, join_keys)]
    classes: dict[Any, Any] = {}
    for tid, join_key, class_key in zip(survivors, join_keys, class_keys):
        members = classes.get(class_key)
        if members:
            members.append(tid)
        elif members is None:  # False marks a class whose join key misses
            classes[class_key] = [tid] if join_key in buckets else False

    widths, slots = _key_layout(group, 2)
    shape = _cross_shape(aggs, slots, [[0], [1]], widths)
    steps = fold_steps(aggs, 0, arrays)
    entries: dict[tuple, list] = {}
    combines = tuples = matched = 0
    for class_key, members in classes.items():
        if members:
            matched += 1
            join_key, part_key = (class_key[0], class_key[1:]) if probe_keys \
                else (class_key, ())
            part = fold_part(part_key, members, steps, len(aggs))
            done, count = _cross([[part], buckets[join_key]], shape,
                                 entries, aggs)
            combines += done
            tuples += count
    return _groups_of(entries, len(group) == 1), combines, tuples, matched


def _factorised_multi_fold(query: dict[str, Any], candidates: list[int]) -> Any:
    """Walk one chunk of first-variable candidates over pre-folded tries.

    The descent is :func:`_multiway_probe`'s (:func:`multiway_descend`);
    only the leaves differ: each table's trie leaf is already folded into
    parts by that table's group-key codes, once per query.  The last
    variable is eliminated InsideOut-style: per binding of the others,
    its tables' leaves are crossed per common code and summed into
    *virtual* parts keyed by their joint group-key codes, and only those
    cross the leaves every other table holds at that depth — e.g.
    orders ⋈ zips folds per region before meeting that region's parts.
    The representative of a group is the lexicographic minimum of its
    per-table first tids, exactly the sorted enumeration's first tuple;
    the parent min-merges chunks and re-sorts groups by it.
    """
    levels = query["levels"]
    aggs = query["aggs"]
    group = query["group"]
    widths, slots = _key_layout(group, len(query["tries"]))
    inner = levels[-1]
    outer = [table for table in range(len(widths)) if table not in inner]
    inner_shape = _cross_shape(
        aggs, [(table, offset) for table in inner
               for offset in range(widths[table])],
        [[table] for table in inner], widths)
    outer_shape = _cross_shape(aggs, slots,
                               [[table] for table in outer] + [inner], widths)
    counts = [0] * len(levels)
    entries: dict[tuple, list] = {}
    work = [0, 0]  # combines, enumerated tuples replaced

    def fold(nodes: list, codes: list[int]) -> None:
        virtual: dict[tuple, list] = {}
        for code in codes:
            done, _ = _cross([nodes[table][1][code] for table in inner],
                             inner_shape, virtual, aggs)
            work[0] += done
        done, count = _cross([nodes[table] for table in outer]
                             + [list(virtual.values())],
                             outer_shape, entries, aggs)
        work[0] += done
        work[1] += count

    multiway_descend(levels, query["tries"], candidates, counts, fold)
    return _groups_of(entries, len(group) == 1), work[0], work[1], counts


# -- discovery subset-refinement phase ---------------------------------------


def _subset_check(state: dict[str, Any],
                  payload: tuple[str, tuple[int, ...], int, list[list[int]]]) -> list[bool]:
    """Whether ``LHS → RHS`` holds on each conditioning subset of tids.

    Replicates ``CFDDiscovery._holds_on_subset`` operation by operation:
    within one subset, every LHS code key must map to a single RHS code.
    """
    spec_id, lhs_positions, rhs_position, groups = payload
    arrays = state[spec_id]["arrays"]
    lhs_arrays = [arrays[position] for position in lhs_positions]
    rhs_codes = arrays[rhs_position]
    single = len(lhs_arrays) == 1
    results: list[bool] = []
    for tids in groups:
        seen: dict[Any, int] = {}
        holds = True
        if single:
            codes = lhs_arrays[0]
            for tid in tids:
                rhs_code = rhs_codes[tid]
                if seen.setdefault(codes[tid], rhs_code) != rhs_code:
                    holds = False
                    break
        else:
            for tid in tids:
                key = tuple(codes[tid] for codes in lhs_arrays)
                rhs_code = rhs_codes[tid]
                if seen.setdefault(key, rhs_code) != rhs_code:
                    holds = False
                    break
        results.append(holds)
    return results


# -- CIND phases ------------------------------------------------------------


def _cind_rhs(state: dict[str, Any], payload: tuple[str, list[int]]) -> set[tuple[int, ...]]:
    """Collect the qualifying RHS correspondence keys (canonical code tuples)."""
    spec_id, tids = payload
    spec = state[spec_id]
    tests = spec["tests"]
    key_arrays = spec["key_arrays"]
    key_bridges = spec["key_bridges"]
    keys: set[tuple[int, ...]] = set()
    for tid in tids:
        for codes, allowed in tests:
            if codes[tid] not in allowed:
                break
        else:
            key_codes = [codes[tid] for codes in key_arrays]
            if NULL_CODE not in key_codes:
                keys.add(tuple(bridge[code]
                               for bridge, code in zip(key_bridges, key_codes)))
    return keys


def _cind_lhs(state: dict[str, Any],
              payload: tuple[str, list[int], frozenset]) -> list[int]:
    """Anti-join one LHS chunk against the canonical RHS key set.

    The spec's bridges translate LHS codes into canonical RHS codes;
    untranslatable codes come through as ``NO_PARTNER``, which can never
    appear in the key set, so the plain membership test covers them.
    """
    spec_id, tids, right_keys = payload
    spec = state[spec_id]
    tests = spec["tests"]
    key_arrays = spec["key_arrays"]
    key_bridges = spec["key_bridges"]
    violating: list[int] = []
    for tid in tids:
        for codes, allowed in tests:
            if codes[tid] not in allowed:
                break
        else:
            key_codes = [codes[tid] for codes in key_arrays]
            if NULL_CODE in key_codes:
                violating.append(tid)
                continue
            key = tuple(bridge[code]
                        for bridge, code in zip(key_bridges, key_codes))
            if key not in right_keys:
                violating.append(tid)
    return violating


_HANDLERS = {
    "cfd_scan": _cfd_scan,
    "cfd_groups": _cfd_groups,
    "cind_rhs": _cind_rhs,
    "cind_lhs": _cind_lhs,
    "factorised_fold": _factorised_fold,
    "join_probe": _join_probe,
    "multiway_fold": _multiway_fold,
    "multiway_probe": _multiway_probe,
    "partition_scan": _partition_scan,
    "sql_scan": _sql_scan,
    "subset_check": _subset_check,
}
