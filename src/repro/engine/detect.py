"""Chunked detection plans: fan chunks out, merge groups, emit violations.

This is the parent-side half of the engine.  A plan compiles constraints
against a relation's column store once (the compiled arrays and matcher
sets are maintained in place by the store, so plans survive mutations),
broadcasts the code-level state to an
:class:`~repro.engine.executor.ExecutorPool`, and runs detection in two
phases:

1. **scan** — every chunk is scanned once per constraint: single-tuple
   violations fall out directly, group candidates come back as *partial
   groups* keyed by LHS code tuples;
2. **group check** — partial groups are stitched by
   :class:`~repro.engine.merge.GroupMerger` and the surviving groups
   (≥ 2 tuples, non-NULL key) are fanned back out for per-pattern
   verdicts.

Violations are materialised in the parent, in exactly the order the
sequential detectors emit them — the chunk-parity tests assert the
reports are byte-identical for every chunk size and worker count.

On the parallel backend every fan-out here runs supervised (see
:mod:`repro.engine.executor`): per-task timeouts, retries and the
in-process fallback guarantee these results even when worker
processes raise, hang or die mid-run.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import obs
from repro.constraints.cfd import CFD
from repro.constraints.cind import CIND
from repro.constraints.violations import CFDViolation, CINDViolation
from repro.detection.columnar import CompiledPattern, constant_code_set
from repro.engine.broadcast import RelationBroadcastEngine
from repro.engine.chunker import Chunker
from repro.engine.executor import ExecutorPool, StateHandle
from repro.engine.merge import GroupMerger, split_batches

#: kinds of CFD emission order: "cfd" replicates CFDDetector.detect_one
#: (pattern-major singles, index-set group semantics), "batch" replicates
#: BatchCFDDetector._detect_merged (tid-major singles, sorted groups).
CFD_KINDS = ("cfd", "batch")


def _cfd_spec(relation, cfd: CFD, compiled: Sequence[CompiledPattern],
              kind: str, enumerate_pairs: bool) -> dict[str, Any]:
    store = relation.columns
    positions = relation.schema.positions(list(cfd.lhs))
    return {
        "kind": kind,
        "key_arrays": store.code_arrays(positions),
        "patterns": [
            {
                "lhs_tests": list(cp.lhs_tests),
                "rhs_tests": list(cp.rhs_tests),
                "variable_arrays": list(cp.variable_arrays),
            }
            for cp in compiled
        ],
        "single_pidxs": [i for i, cp in enumerate(compiled) if cp.rhs_tests],
        "group_pidxs": [i for i, cp in enumerate(compiled) if cp.variable_rhs],
        "enumerate_pairs": enumerate_pairs,
    }


class ChunkedCFDEngine(RelationBroadcastEngine):
    """A chunked execution plan over one relation for a fixed list of CFDs."""

    def __init__(self, relation, items: Sequence[tuple[CFD, Sequence[CompiledPattern]]],
                 pool: ExecutorPool, kind: str = "cfd",
                 enumerate_pairs: bool = False) -> None:
        if kind not in CFD_KINDS:
            raise ValueError(f"unknown CFD plan kind {kind!r}")
        super().__init__(relation, pool)
        self._items = list(items)
        self._kind = kind
        self._enumerate_pairs = enumerate_pairs

    # -- state broadcast ---------------------------------------------------

    def _build_state(self) -> dict[str, Any]:
        """One spec per plan item (live arrays and matcher sets)."""
        return {
            str(i): _cfd_spec(self._relation, cfd, compiled,
                              self._kind, self._enumerate_pairs)
            for i, (cfd, compiled) in enumerate(self._items)
        }

    # -- execution ---------------------------------------------------------

    def detect(self, indices: Sequence[int] | None = None) -> list[list[CFDViolation]]:
        """Violations per plan item (optionally a subset), sequential order."""
        if indices is None:
            indices = range(len(self._items))
        indices = list(indices)
        rows = len(self._relation)
        chunks = Chunker(self._relation, **self._pool.chunk_plan(rows)).chunks()
        if not chunks:
            return [[] for _ in indices]
        if obs.enabled:
            obs.inc("engine.detect.runs")
            obs.observe("engine.detect.chunks", len(chunks))
        handle = self._ensure_handle()

        # phase 1: scan every chunk once per selected constraint.  Results
        # stream back in task order, so merging overlaps the still-running
        # workers.
        scan_tasks = [("cfd_scan", (str(i), chunk.tids))
                      for i in indices for chunk in chunks]
        scan_results = self._pool.run_stream(handle, scan_tasks, rows)

        mergers: list[GroupMerger] = []
        singles_per_item: list[list[tuple[int, int]]] = []
        for _ in indices:
            singles: list[tuple[int, int]] = []
            merger = GroupMerger()
            for _ in chunks:
                result = next(scan_results)
                singles.extend(result["singles"])
                merger.add_chunk(result["groups"])
            singles_per_item.append(singles)
            mergers.append(merger)

        # phase 2: per-pattern verdicts for the groups that survive merging.
        group_tasks: list[tuple[str, Any]] = []
        spans: list[tuple[int, int]] = []
        for offset, i in enumerate(indices):
            groups = mergers[offset].checkable_groups() \
                if self._handle.state[str(i)]["group_pidxs"] else []
            batches = split_batches(groups, len(chunks))
            spans.append((len(group_tasks), len(batches)))
            group_tasks.extend(("cfd_groups", (str(i), batch)) for batch in batches)
        group_results = self._pool.run(handle, group_tasks, rows)

        violations: list[list[CFDViolation]] = []
        for offset, i in enumerate(indices):
            start, count = spans[offset]
            verdicts = [v for batch in group_results[start:start + count] for v in batch]
            cfd, compiled = self._items[i]
            violations.append(self._emit(cfd, compiled, singles_per_item[offset], verdicts))
        return violations

    # -- violation materialisation ----------------------------------------

    def _emit(self, cfd: CFD, compiled: Sequence[CompiledPattern],
              singles: list[tuple[int, int]],
              verdicts: list[dict[int, tuple]]) -> list[CFDViolation]:
        if self._kind == "batch":
            return self._emit_batch(cfd, compiled, singles, verdicts)
        return self._emit_cfd(cfd, compiled, singles, verdicts)

    def _emit_cfd(self, cfd: CFD, compiled: Sequence[CompiledPattern],
                  singles: list[tuple[int, int]],
                  verdicts: list[dict[int, tuple]]) -> list[CFDViolation]:
        """CFDDetector order: per pattern, singles then group violations."""
        singles_by_pidx: dict[int, list[int]] = {}
        for pidx, tid in singles:
            singles_by_pidx.setdefault(pidx, []).append(tid)
        violations: list[CFDViolation] = []
        for pidx, cp in enumerate(compiled):
            for tid in singles_by_pidx.get(pidx, ()):
                violations.append(CFDViolation(cfd, cp.pattern, (tid,)))
            if not cp.variable_rhs:
                continue
            for group_verdicts in verdicts:
                verdict = group_verdicts.get(pidx)
                if verdict is None:
                    continue
                tag, data = verdict
                if tag == "g":
                    violations.append(CFDViolation(cfd, cp.pattern, data))
                else:  # enumerate_pairs: expand disagreeing bucket pairs
                    for bucket, other in data:
                        for tid_a in bucket:
                            for tid_b in other:
                                violations.append(
                                    CFDViolation(cfd, cp.pattern, (tid_a, tid_b)))
        return violations

    def _emit_batch(self, cfd: CFD, compiled: Sequence[CompiledPattern],
                    singles: list[tuple[int, int]],
                    verdicts: list[dict[int, tuple]]) -> list[CFDViolation]:
        """BatchCFDDetector order: all singles (tid-major), then per-group."""
        violations = [CFDViolation(cfd, compiled[pidx].pattern, (tid,))
                      for pidx, tid in singles]
        for group_verdicts in verdicts:
            for pidx in sorted(group_verdicts):
                violations.append(
                    CFDViolation(cfd, compiled[pidx].pattern, group_verdicts[pidx][1]))
        return violations


class ChunkedCINDEngine:
    """A chunked anti-join plan for a fixed list of CINDs over a database."""

    def __init__(self, database, cinds: Sequence[CIND], pool: ExecutorPool) -> None:
        self._database = database
        self._cinds = list(cinds)
        self._pool = pool
        self._handle: StateHandle | None = None
        self._versions: tuple[int, ...] = ()

    def _relations(self, cind: CIND):
        return (self._database.relation(cind.lhs_relation),
                self._database.relation(cind.rhs_relation))

    @staticmethod
    def _side_spec(relation, pattern, attributes, partners=None) -> dict[str, Any]:
        """Code-level spec for one side of the anti-join.

        Every key column ships a string-mode bridge translation: the RHS
        side bridges each column to *itself* (canonicalising codes that
        spell the same string), the LHS side passes *partners* — the RHS
        correspondence columns — so its codes translate straight into the
        same canonical RHS code space.  Workers then anti-join on integer
        tuples; no string ever crosses a process boundary.
        """
        store = relation.columns
        columns = [store.column(a) for a in attributes]
        targets = partners if partners is not None else columns
        return {
            "tests": [(store.column(attribute).codes,
                       constant_code_set(store.column(attribute), constant))
                      for attribute, constant in pattern.constants().items()],
            "key_arrays": [column.codes for column in columns],
            "key_bridges": [column.bridge_to(target, mode="string").translation
                            for column, target in zip(columns, targets)],
        }

    def _ensure_handle(self) -> StateHandle:
        versions = tuple(version
                         for cind in self._cinds
                         for relation in self._relations(cind)
                         for version in (relation.version,))
        if self._handle is None or versions != self._versions:
            if obs.enabled:
                obs.inc("engine.broadcast.build" if self._handle is None
                        else "engine.broadcast.retokenize")
            state: dict[str, Any] = {}
            for i, cind in enumerate(self._cinds):
                left, right = self._relations(cind)
                partners = [right.columns.column(a) for a in cind.rhs_attributes]
                state[f"{i}:l"] = self._side_spec(
                    left, cind.lhs_pattern, cind.lhs_attributes, partners=partners)
                state[f"{i}:r"] = self._side_spec(
                    right, cind.rhs_pattern, cind.rhs_attributes)
            supersedes = self._handle.token if self._handle is not None else None
            self._handle = StateHandle(state, supersedes=supersedes)
            self._versions = versions
        elif obs.enabled:
            obs.inc("engine.broadcast.reuse")
        return self._handle

    def detect(self, indices: Sequence[int] | None = None) -> list[list[CINDViolation]]:
        """Violations per CIND (optionally a subset), in sequential order."""
        if indices is None:
            indices = range(len(self._cinds))
        indices = list(indices)
        handle = self._ensure_handle()

        # phase 1: qualifying RHS keys per CIND (canonical code tuples,
        # merged by union).
        rhs_rows = sum(len(self._relations(self._cinds[i])[1]) for i in indices)
        rhs_tasks: list[tuple[str, Any]] = []
        rhs_spans: list[tuple[int, int]] = []
        for i in indices:
            _, right = self._relations(self._cinds[i])
            chunks = Chunker(right, **self._pool.chunk_plan(len(right))).chunks()
            rhs_spans.append((len(rhs_tasks), len(chunks)))
            rhs_tasks.extend(("cind_rhs", (f"{i}:r", chunk.tids)) for chunk in chunks)
        if obs.enabled:
            obs.inc("engine.cind.runs")
            obs.observe("engine.cind.chunks", len(rhs_tasks))
        rhs_results = self._pool.run(handle, rhs_tasks, rhs_rows)

        right_keys: list[frozenset[tuple[int, ...]]] = []
        for offset, i in enumerate(indices):
            start, count = rhs_spans[offset]
            merged: set[tuple[int, ...]] = set()
            for partial in rhs_results[start:start + count]:
                merged |= partial
            right_keys.append(frozenset(merged))

        # phase 2: anti-join every LHS chunk against the merged key set.
        # The key set rides in each task payload rather than the broadcast
        # state: shipping it per chunk costs W pickles of the set, but
        # re-broadcasting would re-tokenise (and re-fork) the pool on every
        # detect() — the wrong trade for steady-state detection, where RHS
        # key sets are usually far smaller than the relation itself.
        lhs_rows = sum(len(self._relations(self._cinds[i])[0]) for i in indices)
        lhs_tasks: list[tuple[str, Any]] = []
        lhs_spans: list[tuple[int, int]] = []
        for offset, i in enumerate(indices):
            left, _ = self._relations(self._cinds[i])
            chunks = Chunker(left, **self._pool.chunk_plan(len(left))).chunks()
            lhs_spans.append((len(lhs_tasks), len(chunks)))
            lhs_tasks.extend(("cind_lhs", (f"{i}:l", chunk.tids, right_keys[offset]))
                             for chunk in chunks)
        lhs_results = self._pool.run(handle, lhs_tasks, lhs_rows)

        violations: list[list[CINDViolation]] = []
        for offset, i in enumerate(indices):
            start, count = lhs_spans[offset]
            cind = self._cinds[i]
            violations.append([
                CINDViolation(cind, tid)
                for tids in lhs_results[start:start + count]
                for tid in tids
            ])
        return violations
