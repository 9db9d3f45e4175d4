"""Property tests: SQL-generated detection against a definitional oracle.

The oracle below is written from the CFD definition, with SQL's NULL
semantics (the semantics of the queries Semandaq generates), and shares
no code with :mod:`repro.detection`:

* ``t ≍ tp`` on an attribute holds when ``tp`` is the wildcard, or
  ``t[A]`` is not NULL and equals the constant (as a value or as text);
* a tuple matching ``tp`` on the LHS violates when it fails ``≍`` on some
  constant RHS attribute (a NULL never matches a constant);
* two distinct tuples matching ``tp`` on the LHS, with equal non-NULL LHS
  values, violate when some wildcard RHS attribute holds two different
  non-NULL values; the reported group is every tuple that matches ``tp``
  and carries that LHS key.

The session is held across interleaved inserts, updates and deletes, so
the detector it keeps between ``detect()`` calls (SQL engine, LHS
indexes) is checked after every write batch.  The direct
:class:`~repro.detection.cfd_detect.CFDDetector` — sequential, chunked
serial and ``engine="parallel"`` — is held the same way and checked
against the same oracle: every detector shares the SQL definition.
"""

from collections import Counter
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.cfd import CFD
from repro.detection.cfd_detect import CFDDetector
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import NULL, AttributeType
from repro.semandaq.session import SemandaqSession

ATTRIBUTES = ["a", "b", "c", "n"]
SCHEMA = RelationSchema("r", [Attribute("a"), Attribute("b"), Attribute("c"),
                              Attribute("n", AttributeType.INTEGER)])
STRINGS = st.sampled_from(["x", "y", "z", None])
NUMBERS = st.sampled_from([1, 2, 10, None])
ROW = st.tuples(STRINGS, STRINGS, STRINGS, NUMBERS).map(list)
CONSTANTS = {"a": ["x", "y", "w"], "b": ["x", "y", "w"], "c": ["x", "z", "w"],
             "n": ["1", "2", "01"]}


def is_null(value):
    return value is None or value is NULL


def cell_matches(value, constant):
    if constant == "_":
        return True
    return not is_null(value) and (value == constant or str(value) == str(constant))


def oracle(rows, specs):
    """Expected violations as a multiset of ``(cfd, pattern, tids)`` keys.

    *specs* are ``(lhs, rhs, patterns)`` with patterns as plain
    ``{attribute: constant or "_"}`` dicts.
    """
    expected = Counter()
    for i, (lhs, rhs, patterns) in enumerate(specs):
        for j, cells in enumerate(patterns):
            scope = sorted(tid for tid, row in rows.items()
                           if all(cell_matches(row[a], cells[a]) for a in lhs))
            for tid in scope:
                if any(not cell_matches(rows[tid][a], cells[a]) for a in rhs):
                    expected[(i, j, (tid,))] += 1
            variable = [a for a in rhs if cells[a] == "_"]
            keyed = [tid for tid in scope if not any(is_null(rows[tid][a]) for a in lhs)]
            keys = set()
            for first, second in combinations(keyed, 2):
                key = tuple(rows[first][a] for a in lhs)
                if key == tuple(rows[second][a] for a in lhs) and any(
                        not is_null(rows[first][a]) and not is_null(rows[second][a])
                        and rows[first][a] != rows[second][a] for a in variable):
                    keys.add(key)
            for key in keys:
                members = tuple(tid for tid in keyed
                                if tuple(rows[tid][a] for a in lhs) == key)
                expected[(i, j, members)] += 1
    return expected


def observed(report, cfds):
    found = Counter()
    for violation in report.violations:
        i = next(k for k, cfd in enumerate(cfds) if cfd is violation.cfd)
        j = next(k for k, pattern in enumerate(cfds[i].tableau)
                 if pattern is violation.pattern)
        found[(i, j, tuple(violation.tids))] += 1
    return found


@st.composite
def specs(draw):
    lhs = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=2, unique=True))
    rest = [a for a in ATTRIBUTES if a not in lhs]
    rhs = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=2, unique=True))
    patterns = [{a: draw(st.sampled_from(["_", "_"] + CONSTANTS[a])) for a in lhs + rhs}
                for _ in range(draw(st.integers(1, 2)))]
    return lhs, rhs, patterns


WRITES = st.lists(st.one_of(
    st.tuples(st.just("insert"), ROW),
    st.tuples(st.just("update"), st.integers(0, 50), st.sampled_from(ATTRIBUTES),
              st.integers(0, 3)),
    st.tuples(st.just("delete"), st.integers(0, 50)),
), max_size=6)


def apply_write(relation, write):
    tids = relation.tids()
    if write[0] == "insert":
        relation.insert(write[1])
    elif tids and write[0] == "update":
        _, pick, attribute, choice = write
        domain = [1, 2, 10, None] if attribute == "n" else ["x", "y", "z", None]
        relation.update(tids[pick % len(tids)], attribute, domain[choice])
    elif tids:
        relation.delete(tids[write[1] % len(tids)])


@given(rows=st.lists(ROW, max_size=10), constraints=st.lists(specs(), min_size=1, max_size=3),
       rounds=st.lists(WRITES, max_size=3))
@settings(max_examples=60, deadline=None)
def test_session_detect_matches_definition(rows, constraints, rounds):
    relation = Relation.from_rows(SCHEMA, rows)
    database = Database()
    database.add(relation)
    session = SemandaqSession(database)
    registered = session.register_cfds([CFD("r", lhs, rhs, patterns)
                                        for lhs, rhs, patterns in constraints])
    for writes in [[]] + rounds:
        for write in writes:
            apply_write(relation, write)
        current = {tid: dict(zip(ATTRIBUTES, values))
                   for tid, values in relation.rows_items()}
        assert observed(session.detect(), registered) == oracle(current, constraints)


@given(rows=st.lists(ROW, max_size=10), constraints=st.lists(specs(), min_size=1, max_size=3),
       rounds=st.lists(WRITES, max_size=3))
@settings(max_examples=40, deadline=None)
def test_direct_detect_matches_definition(rows, constraints, rounds):
    relation = Relation.from_rows(SCHEMA, rows)
    cfds = [CFD("r", lhs, rhs, patterns) for lhs, rhs, patterns in constraints]
    detectors = [CFDDetector(relation, cfds),
                 CFDDetector(relation, cfds, engine="serial"),
                 CFDDetector(relation, cfds, engine="parallel", workers=2)]
    for writes in [[]] + rounds:
        for write in writes:
            apply_write(relation, write)
        current = {tid: dict(zip(ATTRIBUTES, values))
                   for tid, values in relation.rows_items()}
        expected = oracle(current, constraints)
        for detector in detectors:
            assert observed(detector.detect(), cfds) == expected
