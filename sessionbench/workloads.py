"""The three scripted Semandaq sessions and the closed-loop client that drives them.

Each workload turns a seed into plain input rows once (untimed). It then
builds a fresh session from them as often as the runner asks (the timed
set-up) and runs one scripted session on it.  The :class:`Client` sends
one request at a time and waits for the reply, so the loop is closed with
a single client.  It times each request, counts every request that
raised or failed its oracle, and runs the oracle after the clock has
stopped.  :class:`ProgramMemory` gives the peak memory of the requests
alone, read before their oracles run.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter, process_time
from typing import Any, Callable

import inputs
import oracles

from repro.cqa.answer import CQAEngine, SelectionQuery
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttributeType
from repro.semandaq.session import SemandaqSession

CUSTOMER_POS = {name: i for i, (name, _) in enumerate(inputs.CUSTOMER[1])}
CD_POS = {name: i for i, (name, _) in enumerate(inputs.CD[1])}
BOOK_POS = {name: i for i, (name, _) in enumerate(inputs.BOOK[1])}


class ProgramMemory:
    """Peak resident memory of this process while the program handles requests.

    Linux only.  Before each request the kernel's high-water mark is reset
    to the current RSS (``/proc/self/clear_refs``); after it, ``VmHWM`` is
    read, before the oracle allocates anything.  The figure kept is that
    peak minus :attr:`baseline_kib`, the RSS taken before the session's
    set-up, when the process holds only the benchmark's inputs and fixtures.
    """

    def __init__(self) -> None:
        self.baseline_kib = 0
        #: largest peak above the baseline seen so far, in KiB.
        self.peak_kib = 0

    @staticmethod
    def _status(field: str) -> int:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise RuntimeError(f"/proc/self/status has no {field}")

    def start_session(self) -> None:
        self.baseline_kib = self._status("VmRSS")

    def before(self) -> None:
        with open("/proc/self/clear_refs", "w") as clear:
            clear.write("5")

    def after(self) -> None:
        self.peak_kib = max(self.peak_kib, self._status("VmHWM") - self.baseline_kib)


class Client:
    """One closed-loop client: time a request, then check its answer untimed."""

    def __init__(self, tracer: Any = None, memory: ProgramMemory | None = None) -> None:
        self.tracer = tracer
        self.memory = memory
        #: called after each request and its oracle (the runner samples set-ups there).
        self.between: Callable[[], None] | None = None
        #: request kind (and ``tpl.<template>``) → wall-clock latencies in seconds.
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: (kind or ``kind.template``, wall s, CPU s of this process) of every
        #: answered request, in order.
        self.steps: list[tuple[str, float, float]] = []
        self._digest = hashlib.sha256()

    def call(self, kind: str, request: Callable[[], Any],
             check: Callable[[Any], list[str]] | None = None,
             template: str | None = None) -> Any:
        """Send one request; ``None`` comes back when it raised."""
        try:
            return self._call(kind, request, check, template)
        finally:
            if self.between is not None:
                self.between()

    def _call(self, kind: str, request: Callable[[], Any],
              check: Callable[[Any], list[str]] | None,
              template: str | None) -> Any:
        self.attempted += 1
        span = self.tracer.span(kind, request=True) if self.tracer else nullcontext()
        if self.memory:
            self.memory.before()
        start, start_cpu = perf_counter(), process_time()
        try:
            with span:
                result = request()
        except Exception as exc:  # a failed request is counted, never fatal
            self.fail([f"{kind}: raised {type(exc).__name__}: {exc}"])
            return None
        elapsed, cpu = perf_counter() - start, process_time() - start_cpu
        if self.memory:
            self.memory.after()
        self.samples[kind].append(elapsed)
        if template is not None:
            self.samples[f"tpl.{template}"].append(elapsed)
        self.steps.append((kind if template is None else f"{kind}.{template}",
                           elapsed, cpu))
        if check is not None:
            try:
                self.fail(check(result))
            except Exception as exc:  # a malformed answer fails its oracle
                self.fail([f"{kind}: oracle raised {type(exc).__name__}: {exc}"])
        return result

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def note(self, value: Any) -> None:
        """Fold a verified answer into the current session's digest."""
        self._digest.update(repr(value).encode())

    def take_digest(self) -> str:
        """The digest of the answers noted since the last call, then reset."""
        digest, self._digest = self._digest.hexdigest()[:16], hashlib.sha256()
        return digest


def _schema(spec: tuple) -> RelationSchema:
    name, attributes = spec
    return RelationSchema(name, [Attribute(a, AttributeType[t]) for a, t in attributes])


def _load(tracer: Any, database: Database, spec: tuple, rows: list[list]) -> Relation:
    with tracer.span("relational.load") if tracer else nullcontext():
        relation = Relation.from_rows(_schema(spec), rows)
    database.add(relation)
    return relation


def _rows(relation: Relation) -> dict[int, list]:
    return {tid: list(values) for tid, values in relation.rows_items()}


def _check_spec(cfds: list, specs: list[tuple]) -> list[str]:
    """The registered CFDs are the ones the constraint text spells out."""
    got = [(list(c.lhs), list(c.rhs), [p.constants() for p in c.tableau]) for c in cfds]
    want = [(lhs, rhs, [pattern]) for lhs, rhs, pattern in specs]
    return [] if got == want else [f"register: parsed {got} != {want}"]


class Workload:
    """Inputs, set-up and script of one workload."""

    name = ""
    engine = "sequential"
    workers = 1
    #: CFDs the last session's discovery returned.
    discovered_count = 0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.sizes: dict[str, int] = {}
        #: the span recorder while a traced session runs, else ``None``.
        self.tracer: Any = None

    def size(self, full: int, least: int = 1) -> int:
        return max(least, round(full * self.scale))

    def fixture(self) -> dict[str, Any]:
        """Benchmark-side state for one session (the oracles' mirror), made untimed."""
        return {}

    def setup(self) -> Any:
        raise NotImplementedError

    def check_setup(self, state: Any, fixture: dict[str, Any]) -> list[str]:
        """Check a set-up's answer and add *fixture* to its state."""
        raise NotImplementedError

    def session(self, state: Any, client: Client) -> None:
        raise NotImplementedError


# -- clean_session ---------------------------------------------------------------------

class CleanSession(Workload):
    name = "clean_session"
    rounds = 3

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.world = inputs.CustomerWorld(rng)
        self.rows = self.world.rows(rng, self.size(10_000, 50), noise=0.04)
        self.batches = [self.world.rows(rng, self.size(100, 2), noise=0.04)
                        for _ in range(self.rounds)]
        self.writes = self.size(5, 1)
        self.sizes = {"customer": len(self.rows), "rounds": self.rounds,
                      "append_batch": len(self.batches[0]), "cells_per_round": 2 * self.writes}

    def setup(self) -> Any:
        database = Database()
        relation = _load(self.tracer, database, inputs.CUSTOMER, self.rows)
        session = SemandaqSession(database)
        session.register_cfds(inputs.CANONICAL_CFDS)
        return {"session": session, "relation": relation}

    def fixture(self) -> dict[str, Any]:
        return {"mirror": {tid: list(row) for tid, row in enumerate(self.rows)}}

    def check_setup(self, state: Any, fixture: dict[str, Any]) -> list[str]:
        state.update(fixture)
        return (oracles.check_rows_equal(_rows(state["relation"]), state["mirror"], "load")
                + _check_spec(state["session"].cfds, inputs.CANONICAL_CFD_SPECS))

    def session(self, state: Any, client: Client) -> None:
        session, relation, mirror = state["session"], state["relation"], state["mirror"]
        cfds = session.cfds
        rng = random.Random(self.seed + 1)
        last: dict[str, Any] = {}

        def expected() -> Any:
            last["want"] = oracles.cfd_violations(mirror, CUSTOMER_POS, cfds)
            return last["want"]

        def check_detect(report: Any) -> list[str]:
            want = expected()
            client.note(sorted(want))
            return oracles.check_report(oracles.report_keys(report, cfds, []), want)

        def check_consistency(answer: dict) -> list[str]:
            # the clean world satisfies every canonical CFD, and only one of
            # them has a constant RHS, so the set is consistent
            ok = answer.get("satisfiable") is True and not answer.get("conflicts")
            return [] if ok else [f"check_consistency: {answer}"]

        client.call("check", session.check_consistency, check_consistency)
        client.call("detect", session.detect, check_detect)
        for batch in self.batches:
            # the detect before this round saw the same data
            violations = last["want"] if "want" in last else expected()
            self._write_round(session, relation, mirror, violations, batch, rng, client)
            last.clear()
            client.call("detect", session.detect, check_detect)
            want = oracles.eval_cc_city({"customer": mirror})
            client.note(want)
            client.call("query", lambda: session.sql(CC_CITY_SQL),
                        lambda result: oracles.check_rows(
                            [t.values for t in result], want, True, "sql"))
        before = len(last["want"] if "want" in last else expected())
        locked = {(tid, attribute): value for (_, tid, attribute), value
                  in session.locked_cells().items()}

        def check_proposal(repair: Any) -> list[str]:
            repaired = _rows(repair.relation)
            client.note([(c.tid, c.attribute, c.new_value) for c in repair.changes])
            after = len(oracles.cfd_violations(repaired, CUSTOMER_POS, cfds))
            return (oracles.check_changes(repair.changes, mirror, repaired, CUSTOMER_POS, {})
                    + oracles.check_not_worse(before, after)
                    + oracles.check_rows_equal(_rows(relation), mirror, "propose"))

        def check_applied(repair: Any) -> list[str]:
            current = _rows(relation)
            problems = oracles.check_changes(repair.changes, mirror, current,
                                             CUSTOMER_POS, locked)
            for change in repair.changes:
                if (change.tid, change.attribute.lower()) not in locked:
                    mirror[change.tid][CUSTOMER_POS[change.attribute.lower()]] = \
                        change.new_value
            after = len(expected())
            return (problems + oracles.check_not_worse(before, after)
                    + oracles.check_rows_equal(current, mirror, "apply"))

        client.call("repair", lambda: session.propose_repair("customer"), check_proposal)
        client.call("repair", lambda: session.apply_repair("customer"), check_applied)
        client.call("detect", session.detect, check_detect)

    def _write_round(self, session: Any, relation: Relation, mirror: dict,
                     violations: Any, batch: list[list], rng: random.Random,
                     client: Client) -> None:
        """Override dirty cells with the truth, confirm clean ones, append a batch."""
        suspects = sorted({tid for key in violations for tid in key[-1]})
        rng.shuffle(suspects)
        overrides: list[tuple[int, str, str]] = []
        confirms: list[tuple[int, str]] = []
        for tid in suspects:
            truth = self.world.truth(mirror[tid])
            for attribute in ("street", "city"):
                value = mirror[tid][CUSTOMER_POS[attribute]]
                if value != truth[attribute] and len(overrides) < self.writes:
                    overrides.append((tid, attribute, truth[attribute]))
                elif value == truth[attribute] and len(confirms) < self.writes:
                    confirms.append((tid, attribute))
            if len(overrides) >= self.writes and len(confirms) >= self.writes:
                break
        tracer = self.tracer

        def writes() -> list[int]:
            with tracer.span("relational.write") if tracer else nullcontext():
                for tid, attribute, value in overrides:
                    session.override_cell(tid, attribute, value, "customer")
                for tid, attribute in confirms:
                    session.confirm_cell(tid, attribute, "customer")
                return [relation.insert(row) for row in batch]

        def check(tids: list[int]) -> list[str]:
            for tid, attribute, value in overrides:
                mirror[tid][CUSTOMER_POS[attribute]] = value
            mirror.update((tid, list(row)) for tid, row in zip(tids, batch))
            client.note((overrides, confirms, tids))
            problems = [f"write: cell ({tid}, {a}) reads {relation.value(tid, a)!r}"
                        for tid, a, value in overrides if relation.value(tid, a) != value]
            locked = session.locked_cells()
            problems += [f"write: cell ({tid}, {a}) is not locked"
                         for tid, a in confirms + [(t, a) for t, a, _ in overrides]
                         if ("customer", tid, a) not in locked]
            return problems + oracles.check_rows_equal(
                {t: list(relation.tuple(t).values) for t in tids},
                {t: mirror[t] for t in tids}, "append")

        client.call("write", writes, check)


CC_CITY_SQL = ("SELECT cc, city, COUNT(*) AS n FROM customer "
               "GROUP BY cc, city ORDER BY cc, city")


# -- profile_parallel -----------------------------------------------------------------------

class ProfileParallel(Workload):
    name = "profile_parallel"
    engine = "parallel"
    workers = 2

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.world = inputs.CustomerWorld(rng)
        self.rows = self.world.rows(rng, self.size(10_000, 50), noise=0.01)
        self.cds, self.books = inputs.cd_book_rows(rng, self.size(10_000, 50))
        # above one city's share (about 1000 tuples), so no city-conditioned
        # CFD qualifies: those exist or not depending on where the noise
        # lands, which made the discovered set (and every later call's
        # cost) swing by a fifth from seed to seed
        self.min_support = self.size(1200, 3)
        self.sizes = {"customer": len(self.rows), "cd": len(self.cds),
                      "book": len(self.books), "min_support": self.min_support}

    def setup(self) -> Any:
        database = Database()
        relation = _load(self.tracer, database, inputs.CUSTOMER, self.rows)
        _load(self.tracer, database, inputs.CD, self.cds)
        _load(self.tracer, database, inputs.BOOK, self.books)
        # The engine binds each worker pool to one broadcast state (the
        # pool's initializer unpickles it), and the states this session
        # uses are built by its own requests.  No pool can be started here,
        # so each request that builds a state pays its pool start.
        session = SemandaqSession(database, workers=self.workers)
        return {"session": session, "relation": relation, "database": database}

    def fixture(self) -> dict[str, Any]:
        return {"mirror": {tid: list(row) for tid, row in enumerate(self.rows)}}

    def check_setup(self, state: Any, fixture: dict[str, Any]) -> list[str]:
        state.update(fixture)
        database = state["database"]
        return (oracles.check_rows_equal(_rows(state["relation"]), state["mirror"], "load")
                + oracles.check_rows_equal(_rows(database.relation("cd")),
                                           dict(enumerate(self.cds)), "load")
                + oracles.check_rows_equal(_rows(database.relation("book")),
                                           dict(enumerate(self.books)), "load"))

    def session(self, state: Any, client: Client) -> None:
        session, relation, mirror = state["session"], state["relation"], state["mirror"]
        cds = dict(enumerate(self.cds))
        books = dict(enumerate(self.books))
        cache: dict[str, Any] = {}

        def cfd_expected(cfds: list) -> Any:
            if "cfd" not in cache:
                cache["cfd"] = oracles.cfd_violations(mirror, CUSTOMER_POS, cfds)
            return cache["cfd"]

        def check_discover(found: list) -> list[str]:
            self.discovered_count = len(found)
            client.note([repr(c) for c in found])
            problems = [] if session.cfds == found else ["discover: CFDs not registered"]
            return problems + oracles.check_discovered(
                cfd_expected(found), mirror, CUSTOMER_POS, found, self.min_support)

        def check_cind(added: list) -> list[str]:
            cind = added[0] if len(added) == 1 else None
            ok = (cind is not None and cind.lhs_relation == "cd"
                  and cind.lhs_attributes == ("album", "price")
                  and cind.lhs_pattern.constants() == {"genre": "a-book"}
                  and cind.rhs_relation == "book"
                  and cind.rhs_attributes == ("title", "price")
                  and cind.rhs_pattern.constants() == {"format": "audio"})
            return [] if ok else [f"register: parsed {added}"]

        def check_detect(report: Any) -> list[str]:
            cfds, cinds = session.cfds, session.cinds
            if "cind" not in cache:
                cache["cind"] = oracles.cind_violations(cds, CD_POS, books, BOOK_POS, cinds)
            want = cfd_expected(cfds) + cache["cind"]
            client.note(sorted(want))
            return oracles.check_report(oracles.report_keys(report, cfds, cinds), want)

        def check_proposal(repair: Any) -> list[str]:
            cfds = session.cfds
            repaired = _rows(repair.relation)
            client.note([(c.tid, c.attribute, c.new_value) for c in repair.changes])
            # unchanged rows have the violations already counted
            after = len(cfd_expected(cfds)) if repaired == mirror else \
                len(oracles.cfd_violations(repaired, CUSTOMER_POS, cfds))
            return (oracles.check_changes(repair.changes, mirror, repaired, CUSTOMER_POS, {})
                    + oracles.check_not_worse(len(cfd_expected(cfds)), after)
                    + oracles.check_rows_equal(_rows(relation), mirror, "propose"))

        client.call("discover", lambda: session.discover_cfds(
            "customer", min_support=self.min_support, register=True), check_discover)
        client.call("register", lambda: session.register_cinds(inputs.CANONICAL_CIND),
                    check_cind)
        client.call("detect", session.detect, check_detect)
        client.call("detect", session.detect, check_detect)
        client.call("repair", lambda: session.propose_repair("customer"), check_proposal)

# -- sql_analytics ---------------------------------------------------------------------------

#: template → (oracle evaluation, whether ORDER BY fixes the row order).
TEMPLATE_ORACLES = {
    "scan": (oracles.eval_scan, True),
    "topk": (oracles.eval_topk, True),
    "hash_join": (oracles.eval_join, False),
    "fact2": (oracles.eval_fact2, True),
    "fact3": (oracles.eval_fact3, True),
    "enum3": (oracles.eval_enum3, True),
    "row": (oracles.eval_row, True),
}

CQA_KEY = ("cc", "zip")


class SQLAnalytics(Workload):
    name = "sql_analytics"
    passes = 2

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        rng = random.Random(seed)
        world = inputs.CustomerWorld(rng)
        self.star = inputs.star_rows(rng, self.size(20_000, 64))
        self.customers = world.rows(rng, self.size(10_000, 50), noise=0.04)
        regions = sorted({z[1] for z in self.star["zips"]})
        mix: list[tuple[str, dict]] = []

        def window(width: int) -> dict[str, int]:
            # amounts are uniform on [0, 1000): a fixed width keeps each
            # template's work the same whatever the seed
            lo = rng.randrange(0, 1000 - width)
            return {"lo": lo, "hi": lo + width}
        for _ in range(2):
            mix += [
                ("scan", window(300)),
                ("topk", {**window(500), "k": 20}),
                ("hash_join", {**window(300), "region": rng.choice(regions)}),
                ("fact2", window(500)),
                ("fact3", window(400)),
                ("enum3", window(10)),
                ("row", {"city": rng.choice(world.cities)}),
            ]
        rng.shuffle(mix)
        self.mix = mix
        self.cqa = [(("zip", "ac"), {"cc": "44"}), (("zip", "ac"), {"cc": "01"}),
                    (("zip", "city"), {"city": rng.choice(world.cities)}),
                    (("zip", "street"), {"cc": rng.choice(["01", "44"])})]
        self.db = {"orders": dict(enumerate(self.star["orders"])),
                   "zips": dict(enumerate(self.star["zips"])),
                   "regions": dict(enumerate(self.star["regions"])),
                   "customer": dict(enumerate(self.customers))}
        self._expected: dict[int, list[tuple]] = {}
        self.sizes = {"orders": len(self.star["orders"]), "zips": len(self.star["zips"]),
                      "regions": len(self.star["regions"]),
                      "customer": len(self.customers), "queries_per_pass": len(mix),
                      "cqa_per_pass": len(self.cqa), "passes": self.passes}

    def setup(self) -> Any:
        database = Database()
        for spec in (inputs.ORDERS, inputs.ZIPS, inputs.REGIONS):
            _load(self.tracer, database, spec, self.star[spec[0]])
        _load(self.tracer, database, inputs.CUSTOMER, self.customers)
        return {"session": SemandaqSession(database), "database": database}

    def check_setup(self, state: Any, fixture: dict[str, Any]) -> list[str]:
        database = state["database"]
        problems: list[str] = []
        for name, rows in self.db.items():
            problems += oracles.check_rows_equal(_rows(database.relation(name)), rows, "load")
        return problems

    def expected(self, index: int) -> list[tuple]:
        """The oracle's answer to mix entry *index* (the data never changes)."""
        if index not in self._expected:
            template, params = self.mix[index]
            evaluate, _ = TEMPLATE_ORACLES[template]
            self._expected[index] = evaluate(self.db, **params)
        return self._expected[index]

    def session(self, state: Any, client: Client) -> None:
        session = state["session"]
        customer = state["database"].relation("customer")
        for _ in range(self.passes):
            for index, (template, params) in enumerate(self.mix):
                sql = inputs.TEMPLATES[template].format(**params)

                def check(result: Any, index: int = index, template: str = template) -> list[str]:
                    want = self.expected(index)
                    client.note(want)
                    return oracles.check_rows([t.values for t in result], want,
                                              TEMPLATE_ORACLES[template][1],
                                              f"sql {template}")
                client.call("query", lambda sql=sql: session.sql(sql), check, template)
            for project, equalities in self.cqa:
                query = SelectionQuery(project=project, equalities=equalities)
                client.call("cqa", lambda q=query: CQAEngine(
                    customer, list(CQA_KEY)).certain_answers_rewritten(q),
                    lambda answers, p=project, e=equalities: self._check_cqa(
                        answers, p, e, client))

    def _check_cqa(self, answers: set, project: tuple, equalities: dict,
                   client: Client) -> list[str]:
        customers = self.db["customer"]
        want = oracles.certain_by_groups(customers, CUSTOMER_POS, CQA_KEY, project,
                                         equalities)
        client.note(sorted(want))
        problems = [] if answers == want else [
            f"cqa {project} {equalities}: {len(answers)} answers, expected {len(want)}"]
        return problems + self._check_cqa_slice(project, equalities)

    def _check_cqa_slice(self, project: tuple, equalities: dict) -> list[str]:
        """The rewriting agrees with repair enumeration on a small slice."""
        groups: dict[tuple, list[int]] = {}
        for tid, row in self.db["customer"].items():
            groups.setdefault(tuple(row[CUSTOMER_POS[a]] for a in CQA_KEY), []).append(tid)
        picked = [tid for key in sorted(groups)[:6] for tid in groups[key][:3]]
        rows = {tid: self.db["customer"][tid] for tid in picked}
        sliced = Relation.from_rows(_schema(inputs.CUSTOMER), rows.values())
        query = SelectionQuery(project=project, equalities=equalities)
        got = CQAEngine(sliced, list(CQA_KEY)).certain_answers_rewritten(query)
        want = oracles.certain_by_enumeration(rows, CUSTOMER_POS, CQA_KEY, project,
                                              equalities)
        return [] if got == want else [
            f"cqa slice {project} {equalities}: {sorted(got)} != {sorted(want)}"]


WORKLOADS = {cls.name: cls for cls in (CleanSession, ProfileParallel, SQLAnalytics)}
