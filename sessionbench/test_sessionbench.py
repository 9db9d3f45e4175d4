"""Self-tests of the session benchmark: smoke runs, oracles, failure accounting.

Run from the root of the repository::

    python -m pytest sessionbench -q
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import inputs
import oracles
import run
import spans
import workloads

from repro.detection.cfd_detect import SQLCFDDetector
from repro.relational.database import Database
from repro.relational.sql.engine import SQLEngine
from repro.semandaq.session import SemandaqSession

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = "0.02"


def _cli(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "sessionbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("traced", ["0", "1"])
def test_tiny_smoke_run(workload, traced):
    done = _cli("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", traced, "--scale", TINY)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    listed = BENCHMARK["per_layer" if traced == "1" else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    if traced == "0":
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_runs_without_the_program_fail(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "sessionbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli("--workload", "clean_session", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_same_seed_same_inputs():
    first, second = workloads.SQLAnalytics(9, 0.05), workloads.SQLAnalytics(9, 0.05)
    assert first.star == second.star and first.mix == second.mix
    assert workloads.CleanSession(9, 0.05).rows != workloads.CleanSession(10, 0.05).rows


# -- oracles --------------------------------------------------------------------------------

def _customers(count: int, seed: int = 5) -> tuple[Database, dict[int, list]]:
    rng = random.Random(seed)
    rows = inputs.CustomerWorld(rng, locations=8).rows(rng, count, noise=0.2)
    database = Database()
    workloads._load(None, database, inputs.CUSTOMER, rows)
    return database, dict(enumerate(rows))


def test_grouped_cfd_oracle_matches_pairwise_definition():
    database, rows = _customers(60)
    session = SemandaqSession(database)
    cfds = session.register_cfds(inputs.CANONICAL_CFDS)
    grouped = oracles.cfd_violations(rows, workloads.CUSTOMER_POS, cfds)
    assert grouped, "the noisy sample must violate something"
    assert grouped == oracles.cfd_violations_pairwise(rows, workloads.CUSTOMER_POS, cfds)


def test_detect_oracle_rejects_wrong_reports():
    database, rows = _customers(80)
    session = SemandaqSession(database)
    cfds = session.register_cfds(inputs.CANONICAL_CFDS)
    report = SQLCFDDetector(database, cfds).detect()
    expected = oracles.cfd_violations(rows, workloads.CUSTOMER_POS, cfds)
    actual = oracles.report_keys(report, cfds, [])
    assert oracles.check_report(actual, expected) == []
    dropped = report.violations.pop()
    assert oracles.check_report(oracles.report_keys(report, cfds, []), expected)
    report.violations += [dropped, dropped]
    assert oracles.check_report(oracles.report_keys(report, cfds, []), expected)


def test_cind_oracle_counts_unmatched_audio_books():
    rng = random.Random(2)
    cds, books = inputs.cd_book_rows(rng, 300, violation_rate=0.3)
    database = Database()
    workloads._load(None, database, inputs.CD, cds)
    workloads._load(None, database, inputs.BOOK, books)
    session = SemandaqSession(database)
    cinds = session.register_cinds(inputs.CANONICAL_CIND)
    expected = oracles.cind_violations(dict(enumerate(cds)), workloads.CD_POS,
                                       dict(enumerate(books)), workloads.BOOK_POS, cinds)
    assert expected
    actual = oracles.report_keys(session.detect(), [], cinds)
    assert oracles.check_report(actual, expected) == []
    assert oracles.check_report(actual - Counter([next(iter(actual))]), expected)


def test_repair_oracle_rejects_unreflected_changes():
    database, rows = _customers(80)
    session = SemandaqSession(database)
    cfds = session.register_cfds(inputs.CANONICAL_CFDS)
    repair = session.propose_repair("customer")
    assert repair.changes
    repaired = workloads._rows(repair.relation)
    pos = workloads.CUSTOMER_POS
    assert oracles.check_changes(repair.changes, rows, repaired, pos, {}) == []
    assert oracles.check_not_worse(
        len(oracles.cfd_violations(rows, pos, cfds)),
        len(oracles.cfd_violations(repaired, pos, cfds))) == []
    assert oracles.check_changes(repair.changes, rows, rows, pos, {})
    assert oracles.check_not_worse(1, 2)


def _naive_chain(db, lo, hi):
    for o, z, r in itertools.product(db["orders"].values(), db["zips"].values(),
                                     db["regions"].values()):
        if o[1] == z[0] and z[1] == r[0] and lo <= o[2] < hi:
            yield o, z, r


def test_sql_oracles_match_naive_evaluation_and_the_engine():
    analytics = workloads.SQLAnalytics(4, 0.01)
    db = analytics.db
    chain = list(_naive_chain(db, 100, 700))
    countries = sorted({r[1] for _, _, r in chain})
    naive = [(c, sum(1 for *_, r in chain if r[1] == c),
              len({o[0] for o, _, r in chain if r[1] == c}),
              min(o[2] for o, _, r in chain if r[1] == c),
              max(z[2] for _, z, r in chain if r[1] == c),
              sum(o[2] for o, _, r in chain if r[1] == c)) for c in countries]
    assert naive and oracles.eval_fact3(db, 100, 700) == naive
    assert oracles.check_rows(
        oracles.eval_enum3(db, 100, 700),
        [(c, n, sum(o[3] for o, _, r in chain if r[1] == c)) for c, n, *_ in naive],
        True, "enum3") == []
    state = analytics.setup()
    for index, (template, params) in enumerate(analytics.mix):
        result = state["session"].sql(inputs.TEMPLATES[template].format(**params))
        got = [t.values for t in result]
        want = analytics.expected(index)
        ordered = workloads.TEMPLATE_ORACLES[template][1]
        assert oracles.check_rows(got, want, ordered, template) == [], template
        if got:
            wrong = [tuple("x" if isinstance(v, str) else v for v in got[0])] + got[1:]
            assert oracles.check_rows(wrong, want, ordered, template), template
    assert oracles.check_rows(got[:-1], want, True, "short") if got else True


def test_certain_answer_oracles_agree_on_a_slice():
    _, rows = _customers(200)
    keys = ("cc", "zip")
    groups: dict[tuple, list[int]] = {}
    for tid, row in rows.items():
        groups.setdefault(tuple(row[workloads.CUSTOMER_POS[a]] for a in keys), []).append(tid)
    picked = {t: rows[t] for g in sorted(groups)[:5] for t in groups[g][:3]}
    for project, equalities in [(("zip", "ac"), {"cc": "44"}), (("zip", "city"), {}),
                                (("street",), {"cc": "01"})]:
        assert oracles.certain_by_groups(picked, workloads.CUSTOMER_POS, keys, project,
                                         equalities) == \
            oracles.certain_by_enumeration(picked, workloads.CUSTOMER_POS, keys, project,
                                           equalities)


# -- failure accounting -----------------------------------------------------------------------

def _run_in_process(workload: str, trace: str = "0") -> dict:
    line, _ = run.run(run.parse_args(["--workload", workload, "--seed", "2",
                                      "--seconds", "0", "--trace", trace, "--scale", TINY]))
    return line


def test_injected_operation_error_counts_in_fail_frac(monkeypatch):
    original = SemandaqSession.detect
    calls = Counter()

    def flaky(self):
        calls["detect"] += 1
        if calls["detect"] == 2:
            raise RuntimeError("injected")
        return original(self)

    monkeypatch.setattr(SemandaqSession, "detect", flaky)
    line = _run_in_process("clean_session")
    assert line["failed"] == 1 and line["correct"] is False
    assert line["attempted"] > line["failed"]


def test_wrong_sql_answer_fails_the_run(monkeypatch):
    original = SQLEngine.query

    def off_by_one(self, sql, *args, **kwargs):
        result = original(self, sql, *args, **kwargs)
        if "COUNT(*) AS n FROM customer" in sql and "OR" in sql and len(result):
            tid = result.tids()[0]
            result.update(tid, "n", result.value(tid, "n") + 1)
        return result

    monkeypatch.setattr(SQLEngine, "query", off_by_one)
    line = _run_in_process("sql_analytics")
    assert line["correct"] is False and line["failed"] >= 1


def test_unpatched_entry_point_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(spans, "SPAN_POINTS", spans.SPAN_POINTS + [
        ("repro.detection.cfd_detect", "SQLCFDDetector.renamed", "detection.sql_detect")])
    line = _run_in_process("clean_session", trace="1")
    assert line["correct"] is False and line["failed"] == 1
