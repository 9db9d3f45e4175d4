"""Command-line front end for Semandaq.

Usage::

    python -m repro.semandaq.cli DATA.csv [CONSTRAINTS.txt] [--repair OUT.csv]
        [--discover] [--min-support N] [--max-lhs-size N] [--sql QUERY]
        [--explain] [--stats OUT.json]
        [--engine {sequential,serial,parallel}] [--workers N]
        [--task-timeout SECONDS] [--task-retries N]

``DATA.csv`` is loaded as a relation named after the file; ``CONSTRAINTS.txt``
contains one CFD per line in the textual syntax of
:mod:`repro.constraints.parse` (blank lines and ``#`` comments allowed).
The tool prints the violation report; with ``--repair`` it also computes a
repair and writes the repaired relation to ``OUT.csv``.  With
``--discover`` the constraints file may be omitted: CFDs are discovered
from the data itself (CFDMiner-style profiling), printed, and registered
alongside any file-provided constraints before detection runs.  With
``--sql`` the constraints file may also be omitted: the query runs
against the loaded relation through the session's SQL engine and the
result table is printed (detection/repair still run when constraints are
given or discovered).
``--engine`` / ``--workers`` route detection, discovery partitions,
every repair pass's inner detection loop, and ``--sql``'s code-native
scans through the chunked execution engine (:mod:`repro.engine`);
reports, discovered CFDs, repairs and query results are identical, only
execution changes.  The ``REPRO_ENGINE`` / ``REPRO_WORKERS`` environment
variables provide the same defaults process-wide.
``--task-timeout`` / ``--task-retries`` tune the parallel engine's
supervision: how long one dispatched task may run before the worker is
declared hung and the pool rebuilt, and how often a failed task is
retried before degrading to in-process execution (environment defaults:
``REPRO_TASK_TIMEOUT`` / ``REPRO_TASK_RETRIES``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import obs
from repro.engine.executor import ENGINES
from repro.errors import ReproError
from repro.relational.csvio import read_csv, relation_to_csv
from repro.semandaq.session import SemandaqSession


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semandaq",
        description="Detect and repair CFD violations in a CSV file.")
    parser.add_argument("data", help="CSV file containing the relation to clean")
    parser.add_argument("constraints", nargs="?", default=None,
                        help="text file with one CFD per line "
                             "(optional with --discover)")
    parser.add_argument("--repair", metavar="OUT",
                        help="compute a repair and write the repaired relation to OUT")
    parser.add_argument("--relation-name", default=None,
                        help="relation name used in the CFDs (default: the CSV file stem)")
    parser.add_argument("--discover", action="store_true",
                        help="discover CFDs from the data (profiling), print them, "
                             "and register them for detection/repair")
    parser.add_argument("--min-support", type=int, default=3, metavar="N",
                        help="minimum support for discovered CFDs (default: 3)")
    parser.add_argument("--max-lhs-size", type=int, default=2, metavar="N",
                        help="maximum LHS size for discovered CFDs (default: 2)")
    parser.add_argument("--sql", metavar="QUERY", default=None,
                        help="run a SQL query against the loaded relation and "
                             "print the result (honours --engine/--workers; "
                             "makes the constraints file optional)")
    parser.add_argument("--explain", action="store_true",
                        help="with --sql: also print the query plan report "
                             "(code-native scan / hash join / row path, why "
                             "the faster paths were rejected, push-down "
                             "pruning per conjunct, join shape)")
    parser.add_argument("--stats", metavar="OUT", default=None,
                        help="enable instrumentation (as REPRO_OBS=1 would) and "
                             "write the metrics snapshot as JSON to OUT after "
                             "the run ('-' prints to stdout)")
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="execution engine for detection, discovery and repair: "
                             "'sequential' (one pass, the default), "
                             "'serial' (chunked, in-process) or 'parallel' "
                             "(chunked, multiprocessing); results are identical")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for the parallel engine "
                             "(default: the CPU count; implies --engine parallel "
                             "when N > 1)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task supervision timeout of the parallel "
                             "engine; a task running longer is declared hung, "
                             "the worker pool is rebuilt and the task retried "
                             "(0 disables; default: REPRO_TASK_TIMEOUT or 300)")
    parser.add_argument("--task-retries", type=int, default=None, metavar="N",
                        help="how many times a failed or timed-out task is "
                             "re-dispatched before running in-process "
                             "(default: REPRO_TASK_RETRIES or 2)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Library errors (bad constraints, SQL that does not parse or cannot
    run, ...) print one ``error:`` line to stderr and exit with 1.
    """
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return _run(parser, arguments)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(parser: argparse.ArgumentParser, arguments: argparse.Namespace) -> int:
    if arguments.constraints is None and not arguments.discover:
        if arguments.sql is None:
            parser.error("a constraints file is required unless --discover or --sql is given")
        if arguments.repair:
            parser.error("--repair requires a constraints file or --discover")
    if arguments.explain and arguments.sql is None:
        parser.error("--explain requires --sql")
    if arguments.stats is not None:
        obs.enable()
    data_path = Path(arguments.data)
    relation_name = arguments.relation_name or data_path.stem
    relation = read_csv(data_path, relation_name)

    session = SemandaqSession(relation, engine=arguments.engine,
                              workers=arguments.workers,
                              task_timeout=arguments.task_timeout,
                              task_retries=arguments.task_retries)

    if arguments.sql is not None:
        if arguments.explain:
            result, plan_report = session.sql(arguments.sql, explain=True)
        else:
            result = session.sql(arguments.sql)
            plan_report = None
        print(result.pretty())
        print(f"({len(result)} row(s))")
        if plan_report is not None:
            print(plan_report)
        if arguments.constraints is None and not arguments.discover:
            _write_stats(arguments, session)
            return 0  # pure query invocation: no detection/repair to run

    cfds = []
    if arguments.constraints is not None:
        constraints_text = Path(arguments.constraints).read_text(encoding="utf-8")
        cfds = session.register_cfds(constraints_text)
    if arguments.discover:
        discovered = session.discover_cfds(relation_name,
                                           min_support=arguments.min_support,
                                           max_lhs_size=arguments.max_lhs_size,
                                           register=True)
        print(f"discovered {len(discovered)} CFD(s) "
              f"(min support {arguments.min_support}):")
        for cfd in discovered:
            print(f"  {cfd!r}")
        cfds = cfds + discovered
    print(f"loaded {len(relation)} tuples and {len(cfds)} CFD(s)")

    consistency = session.check_consistency()
    if not consistency["satisfiable"]:
        print("warning: the CFD set is not satisfiable by any non-empty instance")

    if session.cfds:
        session.detect()
        print(session.report())
    else:
        print("no CFDs registered (nothing discovered); skipping detection")

    if arguments.repair:
        repair = session.apply_repair(relation_name)
        relation_to_csv(session.database.relation(relation_name), arguments.repair)
        print(f"wrote repaired relation ({len(repair.changes)} cells changed) "
              f"to {arguments.repair}")
    _write_stats(arguments, session)
    return 0


def _write_stats(arguments: argparse.Namespace, session: SemandaqSession) -> None:
    """Dump the metrics snapshot as JSON when --stats was given."""
    if arguments.stats is None:
        return
    text = json.dumps(session.metrics(), indent=2, sort_keys=True)
    if arguments.stats == "-":
        print(text)
    else:
        Path(arguments.stats).write_text(text + "\n", encoding="utf-8")
        print(f"wrote metrics snapshot to {arguments.stats}")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
