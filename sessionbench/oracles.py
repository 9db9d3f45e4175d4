"""Output oracles, written from the definitions and run outside the timed region.

Nothing here calls into the library's detection, SQL, repair or CQA code.
The oracles read the benchmark's own mirror of the data: plain
``{tid: [values]}`` dicts that the benchmark keeps in step with every write
it sends.  Constraint objects are read only as data: attribute names,
pattern constants and relation names.  Each ``check_*`` function returns
a list of problem strings. An empty list means the answer is correct.

The data the workloads generate has no NULLs.  The oracles therefore use
plain CFD semantics: a tuple matches a pattern constant when the string
forms are equal.  A group violates a variable pattern when its tuples
agree on the LHS and differ on the RHS.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

Rows = dict[int, list]

#: most repairs the certain-answer enumeration oracle will walk.
MAX_REPAIRS = 5000


def _s(value: Any) -> str:
    return str(value)


# -- CFD / CIND violations ------------------------------------------------------------

def _getter(positions: Sequence[int]) -> Callable[[list], tuple]:
    """``row -> tuple(row[p] for p in positions)``, built on ``itemgetter``."""
    if not positions:
        return lambda row: ()
    get = itemgetter(*positions)
    return (lambda row: (get(row),)) if len(positions) == 1 else get


def cfd_violations(rows: Rows, positions: dict[str, int],
                   cfds: Sequence[Any]) -> Counter:
    """Expected CFD violations as a multiset of ``("cfd", i, j, tids)`` keys.

    ``i`` indexes *cfds*, ``j`` the pattern in that CFD's tableau.  A
    constant RHS gives one single-tuple violation per tuple that matches
    the LHS constants and disagrees with the RHS constant.  A variable RHS
    gives one violation per group of at least two tuples that match the
    LHS constants, agree on the whole LHS and hold more than one distinct
    RHS vector.
    """
    strings = [(tid, [_s(v) for v in row]) for tid, row in rows.items()]
    expected: Counter = Counter()
    for i, cfd in enumerate(cfds):
        lhs = _getter([positions[a.lower()] for a in cfd.lhs])
        for j, pattern in enumerate(cfd.tableau):
            def constants(attributes: Sequence[str]) -> tuple[Callable, tuple]:
                pinned = [a for a in attributes if pattern.is_constant_on(a)]
                return (_getter([positions[a.lower()] for a in pinned]),
                        tuple(_s(pattern.constant(a)) for a in pinned))
            lhs_get, lhs_want = constants(cfd.lhs)
            rhs_get, rhs_want = constants(cfd.rhs)
            variable = _getter([positions[a.lower()] for a in cfd.rhs
                                if not pattern.is_constant_on(a)])
            scope = [(tid, row) for tid, row in strings if lhs_get(row) == lhs_want]
            if rhs_want:
                for tid, row in scope:
                    if rhs_get(row) != rhs_want:
                        expected[("cfd", i, j, (tid,))] += 1
            if len(rhs_want) == len(cfd.rhs):
                continue
            groups: dict[tuple, list] = {}
            for tid, row in scope:
                groups.setdefault(lhs(row), []).append((tid, variable(row)))
            for members in groups.values():
                if len(members) > 1 and len({rhs for _, rhs in members}) > 1:
                    expected[("cfd", i, j, tuple(sorted(t for t, _ in members)))] += 1
    return expected


def cfd_violations_pairwise(rows: Rows, positions: dict[str, int],
                            cfds: Sequence[Any]) -> Counter:
    """The same keys as :func:`cfd_violations`, from an O(n²) pair scan.

    This is the literal definition: two matching tuples that agree on
    the LHS and disagree on the RHS violate.  A violating group is then
    the connected set of tuples sharing that LHS.  It is too slow for the
    timed workloads, so the self-tests use it to pin
    :func:`cfd_violations` on small inputs.
    """
    expected: Counter = Counter()
    tids = sorted(rows)
    for i, cfd in enumerate(cfds):
        lhs = [positions[a.lower()] for a in cfd.lhs]
        for j, pattern in enumerate(cfd.tableau):
            def matches(row, attrs):
                return all(_s(row[positions[a.lower()]]) == _s(pattern.constant(a))
                           for a in attrs if pattern.is_constant_on(a))
            variable = [positions[a.lower()] for a in cfd.rhs
                        if not pattern.is_constant_on(a)]
            constant_rhs = [a for a in cfd.rhs if pattern.is_constant_on(a)]
            scope = [t for t in tids if matches(rows[t], cfd.lhs)]
            for t in scope:
                if constant_rhs and not matches(rows[t], constant_rhs):
                    expected[("cfd", i, j, (t,))] += 1
            if not variable:
                continue
            bad: set[int] = set()
            for a, b in itertools.combinations(scope, 2):
                same_lhs = all(_s(rows[a][p]) == _s(rows[b][p]) for p in lhs)
                if same_lhs and any(_s(rows[a][p]) != _s(rows[b][p]) for p in variable):
                    bad.update((a, b))
            reported: set[tuple] = set()
            for t in sorted(bad):
                group = tuple(u for u in scope
                              if all(_s(rows[u][p]) == _s(rows[t][p]) for p in lhs))
                if group not in reported:
                    reported.add(group)
                    expected[("cfd", i, j, group)] += 1
    return expected


def cind_violations(lhs_rows: Rows, lhs_positions: dict[str, int],
                    rhs_rows: Rows, rhs_positions: dict[str, int],
                    cinds: Sequence[Any]) -> Counter:
    """Expected CIND violations as a multiset of ``("cind", i, tid)`` keys.

    An LHS tuple matching the condition pattern violates when no RHS tuple
    that carries the consequence pattern agrees with it on the
    correspondence attributes.
    """
    expected: Counter = Counter()
    for i, cind in enumerate(cinds):
        lhs_cond = [(lhs_positions[a], _s(c)) for a, c in cind.lhs_pattern.constants().items()]
        rhs_cond = [(rhs_positions[a], _s(c)) for a, c in cind.rhs_pattern.constants().items()]
        lhs_keys = [lhs_positions[a] for a in cind.lhs_attributes]
        rhs_keys = [rhs_positions[a] for a in cind.rhs_attributes]
        present = {tuple(_s(row[p]) for p in rhs_keys) for row in rhs_rows.values()
                   if all(_s(row[p]) == c for p, c in rhs_cond)}
        for tid, row in lhs_rows.items():
            if all(_s(row[p]) == c for p, c in lhs_cond) and \
                    tuple(_s(row[p]) for p in lhs_keys) not in present:
                expected[("cind", i, tid)] += 1
    return expected


def report_keys(report: Any, cfds: Sequence[Any], cinds: Sequence[Any]) -> Counter:
    """A ``ViolationReport`` in the oracle's key form (unknown constraints → -1)."""
    cfd_index = {id(cfd): i for i, cfd in enumerate(cfds)}
    cind_index = {id(cind): i for i, cind in enumerate(cinds)}
    keys: Counter = Counter()
    for violation in report.violations:
        if hasattr(violation, "cfd"):
            i = cfd_index.get(id(violation.cfd), -1)
            tableau = list(cfds[i].tableau) if i >= 0 else []
            j = tableau.index(violation.pattern) if violation.pattern in tableau else -1
            keys[("cfd", i, j, tuple(sorted(violation.tids)))] += 1
        else:
            keys[("cind", cind_index.get(id(violation.cind), -1), violation.tid)] += 1
    return keys


def check_report(actual: Counter, expected: Counter) -> list[str]:
    """Problems when a report's violation multiset differs from the oracle's."""
    if actual == expected:
        return []
    missing = expected - actual
    extra = actual - expected
    return [f"detect: {sum(missing.values())} violation(s) missing "
            f"(e.g. {sorted(missing)[:2]}), {sum(extra.values())} unexpected "
            f"(e.g. {sorted(extra)[:2]})"]


def check_discovered(violations: Counter, rows: Rows, positions: dict[str, int],
                     cfds: Sequence[Any], min_support: int) -> list[str]:
    """Discovered CFDs must hold on the data they came from.

    *violations* is :func:`cfd_violations` of *cfds* on *rows*.  A constant
    CFD must also have at least *min_support* supporting tuples.
    """
    problems = []
    if violations:
        problems.append(f"discover: {len(violations)} violation(s) of discovered CFDs")
    for cfd in cfds:
        for pattern in cfd.tableau:
            constants = [(positions[a.lower()], _s(pattern.constant(a)))
                         for a in cfd.attributes() if pattern.is_constant_on(a)]
            if len(constants) == len(cfd.attributes()):
                support = sum(1 for row in rows.values()
                              if all(_s(row[p]) == c for p, c in constants))
                if support < min_support:
                    problems.append(f"discover: {cfd!r} has support {support} "
                                    f"< {min_support}")
    return problems


# -- repairs ----------------------------------------------------------------------------------

def check_changes(changes: Iterable[Any], before: Rows, after: Rows,
                  positions: dict[str, int],
                  locked: dict[tuple[int, str], Any]) -> list[str]:
    """Every change starts from the old value and shows in *after*.

    A locked cell keeps its locked value instead.
    """
    problems = []
    for change in changes:
        position = positions[change.attribute.lower()]
        if change.tid not in before or _s(before[change.tid][position]) != _s(change.old_value):
            problems.append(f"repair: change {change} does not start from the data")
            continue
        want = locked.get((change.tid, change.attribute.lower()), change.new_value)
        if change.tid not in after or _s(after[change.tid][position]) != _s(want):
            problems.append(f"repair: change {change} is not reflected in the relation")
    return problems


def check_not_worse(before: int, after: int) -> list[str]:
    return [] if after <= before else [
        f"repair: {after} violations after repair > {before} before"]


def check_rows_equal(actual: Rows, expected: Rows, what: str) -> list[str]:
    """The relation's rows equal the benchmark's mirror, by string form."""
    if actual.keys() != expected.keys():
        return [f"{what}: tid sets differ "
                f"({len(actual.keys() - expected.keys())} extra, "
                f"{len(expected.keys() - actual.keys())} missing)"]
    for tid, row in expected.items():
        if [_s(v) for v in actual[tid]] != [_s(v) for v in row]:
            return [f"{what}: tuple {tid} is {actual[tid]}, expected {row}"]
    return []


# -- SQL ----------------------------------------------------------------------------------------

def _close(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-9)
        except (TypeError, ValueError):
            return False
    return a == b


def check_rows(actual: list[tuple], expected: list[tuple], ordered: bool,
               what: str) -> list[str]:
    """Compare result rows; floats within 1e-9, order only when *ordered*."""
    if not ordered:
        actual = sorted(actual, key=repr)
        expected = sorted(expected, key=repr)
    if len(actual) != len(expected):
        return [f"{what}: {len(actual)} rows, expected {len(expected)}"]
    for got, want in zip(actual, expected):
        if len(got) != len(want) or not all(_close(a, b) for a, b in zip(got, want)):
            return [f"{what}: row {got} != expected {want}"]
    return []


def _group(rows: Iterable[tuple], key: Callable, fold: Callable) -> list[tuple]:
    groups: dict[Any, list] = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return [k + fold(v) for k, v in sorted(groups.items())]


def _join(left: Iterable[list], right: Iterable[list], lkey: int, rkey: int):
    index: dict[Any, list] = {}
    for row in right:
        index.setdefault(row[rkey], []).append(row)
    for row in left:
        for partner in index.get(row[lkey], ()):
            yield row, partner


# Column order: orders(city, zip, amount, price), zips(zip, region, pop),
# regions(region, country), customer(cc, ac, phn, name, street, city, zip).

def eval_scan(db: dict[str, Rows], lo: int, hi: int) -> list[tuple]:
    rows = [r for r in db["orders"].values() if lo <= r[2] < hi]
    return _group(rows, lambda r: (r[0],),
                  lambda g: (len(g), sum(r[2] for r in g), max(r[2] for r in g)))


def eval_topk(db: dict[str, Rows], lo: int, hi: int, k: int) -> list[tuple]:
    rows = [(r[1], r[2]) for r in db["orders"].values() if lo <= r[2] < hi]
    return sorted(rows, key=lambda r: (-r[1], r[0]))[:k]


def eval_join(db: dict[str, Rows], region: str, lo: int, hi: int) -> list[tuple]:
    zips = [z for z in db["zips"].values() if z[1] == region]
    orders = [o for o in db["orders"].values() if lo <= o[2] < hi]
    return [(o[0], z[1], o[2]) for o, z in _join(orders, zips, 1, 0)]


def eval_fact2(db: dict[str, Rows], lo: int, hi: int) -> list[tuple]:
    orders = (o for o in db["orders"].values() if lo <= o[2] < hi)
    groups: dict[str, list] = {}
    for order, zip_row in _join(orders, db["zips"].values(), 1, 0):
        g = groups.setdefault(zip_row[1], [0, 0, order[2]])
        g[0] += 1
        g[1] += order[2]
        g[2] = max(g[2], order[2])
    return [(region, *g) for region, g in sorted(groups.items())]


def _by_country(db: dict[str, Rows], lo: int, hi: int):
    """Yield ``(order, country, k, max_pop)`` for the orders ⋈ zips ⋈ regions chain.

    ``k`` is how many joined tuples the order forms with that country,
    and ``max_pop`` is the largest zip population among them.  The tuples
    are counted, not listed: an order joins each zip row with its zip, and
    that zip row joins each region row with its region.
    """
    countries: dict[str, Counter] = {}
    for region, country in db["regions"].values():
        countries.setdefault(region, Counter())[country] += 1
    per_zip: dict[str, dict[str, list]] = {}
    for zip_code, region, pop in db["zips"].values():
        for country, k in countries.get(region, {}).items():
            entry = per_zip.setdefault(zip_code, {}).setdefault(country, [0, pop])
            entry[0] += k
            entry[1] = max(entry[1], pop)
    for order in db["orders"].values():
        if lo <= order[2] < hi:
            for country, (k, max_pop) in per_zip.get(order[1], {}).items():
                yield order, country, k, max_pop


def eval_fact3(db: dict[str, Rows], lo: int, hi: int) -> list[tuple]:
    groups: dict[str, list] = {}
    for order, country, k, max_pop in _by_country(db, lo, hi):
        g = groups.setdefault(country, [0, set(), order[2], max_pop, 0])
        g[0] += k
        g[1].add(order[0])
        g[2] = min(g[2], order[2])
        g[3] = max(g[3], max_pop)
        g[4] += order[2] * k
    return [(c, n, len(cities), low, high, total)
            for c, (n, cities, low, high, total) in sorted(groups.items())]


def eval_enum3(db: dict[str, Rows], lo: int, hi: int) -> list[tuple]:
    groups: dict[str, list] = {}
    for order, country, k, _ in _by_country(db, lo, hi):
        g = groups.setdefault(country, [0, []])
        g[0] += k
        g[1].extend([order[3]] * k)
    return [(c, n, math.fsum(prices)) for c, (n, prices) in sorted(groups.items())]


def eval_row(db: dict[str, Rows], city: str) -> list[tuple]:
    rows = [r for r in db["customer"].values() if r[0] == "01" or r[5] == city]
    return _group(rows, lambda r: (r[0], r[5]), lambda g: (len(g),))


def eval_cc_city(db: dict[str, Rows]) -> list[tuple]:
    return _group(db["customer"].values(), lambda r: (r[0], r[5]), lambda g: (len(g),))


# -- certain answers ---------------------------------------------------------------------

def _matches(row: list, positions: dict[str, int], equalities: dict[str, Any]) -> bool:
    return all(_s(row[positions[a]]) == _s(v) for a, v in equalities.items())


def certain_by_groups(rows: Rows, positions: dict[str, int], key: Sequence[str],
                      project: Sequence[str], equalities: dict[str, Any]) -> set[tuple]:
    """Certain answers of a selection-projection query under a key.

    A subset repair keeps one tuple of each key group, and the groups
    choose independently.  So a vector is certain exactly when some group
    has every tuple satisfying the selection and projecting to that
    vector.
    """
    groups: dict[tuple, list[list]] = {}
    for row in rows.values():
        groups.setdefault(tuple(_s(row[positions[a]]) for a in key), []).append(row)
    answers = set()
    for group in groups.values():
        if all(_matches(r, positions, equalities) for r in group):
            projected = {tuple(r[positions[a]] for a in project) for r in group}
            if len(projected) == 1:
                answers |= projected
    return answers


def certain_by_enumeration(rows: Rows, positions: dict[str, int], key: Sequence[str],
                           project: Sequence[str],
                           equalities: dict[str, Any]) -> set[tuple]:
    """Certain answers by walking every subset repair (small inputs only)."""
    groups: dict[tuple, list[list]] = {}
    for row in rows.values():
        groups.setdefault(tuple(_s(row[positions[a]]) for a in key), []).append(row)
    # identical tuples are one tuple under set semantics
    choices = [list({tuple(r): r for r in g}.values()) for g in groups.values()]
    if math.prod(len(c) for c in choices) > MAX_REPAIRS:
        raise ValueError("slice too large to enumerate its repairs")
    certain: set[tuple] | None = None
    for repair in itertools.product(*choices):
        answers = {tuple(r[positions[a]] for a in project) for r in repair
                   if _matches(r, positions, equalities)}
        certain = answers if certain is None else certain & answers
    return certain or set()
