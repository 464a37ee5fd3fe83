"""The work ratchet: the paper's claim, that an incremental circuit works in
proportion to the change, checked by counts.

Each row of the rewrite's rule table has a micro spec in which it applies,
on each clock where a walk takes it.
On fresh circuits, a base of n = 500 and of n = 4,000 rows is stepped, then
the same 1-row insert and its delete: both sizes must count equal `tuples`.
GROWS lists the cases whose work still grows with the base, by the ROADMAP
item that removes it, and for those the count must grow, so that a fix also
shrinks GROWS.  Each micro spec also passes compare mode, with a deletion
and a weight of 2."""

import pytest
from deltaflow import Circuit, ZSet, rewrite
from deltaflow.datalog import build_while
from deltaflow.expr import KeyFunc
from deltaflow.relational import build_equijoin, build_projection, build_union
from deltaflow.rewrite import compile_query, differential_check
from deltaflow.specfile import compile_spec
from test_census import _spec_docs

# The cases whose work still grows with the base -> the ROADMAP item that
# removes that growth.  `general` stays for MIN and MAX until item 3, and
# for host-supplied non-linear fns after it.
GROWS = {
    "OWN_CLOCK.distinct": 2,  # I's plus clones the relation
    "OWN_CLOCK.general": 3,  # MAX rescans I(x), and I and D clone it
    "OWN_CLOCK.window": 5,  # the window rescans its content
    "isolated edge after a path": 4,  # the fixpoint runs to the path's depth
}

# A case is named "CLOCK.row", by the clock of the walk that takes the row:
# every row on the own clock, the trace forms on the parent's.
ROWS = [f"OWN_CLOCK.{name}" for name, _, _ in rewrite.RULES] + [f"PARENT_CLOCK.{name}" for name in rewrite.TRACE_FORMS]

T = {"name": "t", "columns": ["a", "b", "c"]}
U = {"name": "u", "columns": ["a", "b"]}
CLK = {"name": "clk", "columns": ["now"], "kind": "stream"}
EV = {"name": "ev", "columns": ["a", "x"], "kind": "stream"}
REL_T = {"op": "rel", "name": "t"}
JOIN = {"op": "join", "left": REL_T, "right": {"op": "rel", "name": "u"}, "left_key": [1], "right_key": [0]}
ROW = (10**6, 1, 7)  # the row inserted and deleted: group b = 1, timestamp a = 10^6


def _spec(relations, query):
    doc = {"relations": relations, "views": [{"name": "v", "query": query}]}
    return lambda: compile_spec(doc).circuit


def _tables(n, clock=None):
    """t holds n rows (i, i mod n/10, 7i mod 1000) and u n/10 rows (g, 3g);
    the clock, if given, ticks once."""
    base = {"t": {(i, i % (n // 10), 7 * i % 1000): 1 for i in range(n)}}
    base["u"] = {(g, 3 * g): 1 for g in range(n // 10)}
    if clock is not None:
        base["clk"] = {(clock,): 1}
    return base


def _aggregate(agg):
    return _spec([T], {"op": "aggregate", "agg": agg, "column": 2, "group_by": [1], "input": REL_T})


def _window(width):
    return _spec([T, CLK], {"op": "window", "input": REL_T, "ts_column": 0, "width": width, "theta": "clk"})


def _while_closure():
    """The transitive closure of E as a host-API while-loop: its body has
    no boundary distinct, so its work follows the change alone."""
    q = Circuit()
    x = q.add_source("E")
    path2 = build_projection(q, build_equijoin(q, x, x, KeyFunc([1]), KeyFunc([0])), [0, 3])
    q.add_sink(build_union(q, x, path2), "R")
    return build_while(q)


class Case:
    """A scalar circuit, its base at size n, the 1-row insert and delete
    ticks, the two sizes and the counter that is compared."""

    def __init__(self, scalar, base, insert, delete=None, sizes=(500, 4000), counter="tuples"):
        self.scalar, self.base, self.insert, self.sizes, self.counter = scalar, base, insert, sizes, counter
        self.delete = delete or {name: {r: -w for r, w in rows.items()} for name, rows in insert.items()}


INSERT = {"t": {ROW: 1}}
KEEP_ALL = [">=", ["col", 2], ["const", 0]]
FILTER = Case(_spec([T], {"op": "filter", "predicate": KEEP_ALL, "input": REL_T}), _tables, INSERT)
# n disjoint edges, whose closure is themselves, and one more
WHILE = Case(_while_closure, lambda n: {"E": {(2 * i, 2 * i + 1): 1 for i in range(n)}}, {"E": {(-1, -2): 1}})
STREAM_JOIN = {
    "op": "stream_join", "left": REL_T, "right": {"op": "rel", "name": "ev"}, "left_key": [1], "right_key": [0]
}
DISTINCT = {"op": "distinct", "input": {"op": "project", "columns": [0, 1], "input": REL_T}}

CASES = {
    "OWN_CLOCK.bracket": FILTER,
    "OWN_CLOCK.fold": Case(_spec([T, U], {"op": "project", "columns": [0, 4], "input": JOIN}), _tables, INSERT),
    "OWN_CLOCK.nested": WHILE,
    "OWN_CLOCK.events": Case(
        _spec([T, EV], STREAM_JOIN), _tables, {"t": {ROW: 1}, "ev": {(1, 0): 1}}, {"t": {ROW: -1}, "ev": {(1, 0): 1}}
    ),
    # every base row is behind the clock, so only the change is inside
    "OWN_CLOCK.clock": Case(_window(10), lambda n: _tables(n, clock=10**6 + 5), INSERT),
    "OWN_CLOCK.window": Case(_window(10**7), lambda n: _tables(n, clock=10**6), INSERT),
    "OWN_CLOCK.bilinear": Case(_spec([T, U], JOIN), _tables, INSERT),
    "OWN_CLOCK.distinct": Case(_spec([T], DISTINCT), _tables, INSERT),
    "OWN_CLOCK.linear aggregate": Case(_aggregate("sum"), _tables, INSERT),
    "OWN_CLOCK.general": Case(_aggregate("max"), _tables, INSERT),
    "OWN_CLOCK.linear": FILTER,
    "PARENT_CLOCK.bracket": WHILE,
    "PARENT_CLOCK.fold": WHILE,
    "PARENT_CLOCK.distinct": WHILE,
    "PARENT_CLOCK.bilinear": WHILE,
    "PARENT_CLOCK.linear": WHILE,
    # the closure golden: an isolated edge after a path of L edges
    "isolated edge after a path": Case(
        lambda: compile_spec(_spec_docs()["closure"]).circuit,
        lambda n: {"E": {(100 + i, 101 + i): 1 for i in range(n)}},
        {"E": {(10**6, 10**6 + 1): 1}},
        sizes=(50, 200),
        counter="iterations",
    ),
}


def _inputs(scalar, rows):
    """One Z-set per source of the scalar circuit, empty where rows has none."""
    return {name: ZSet(rows.get(name, {})) for name in scalar.sources}


def _spied(monkeypatch):
    """Record each row that builds a node from now on, by the clock of the
    walk that takes it, as the cases are named."""
    fired = set()

    def spy(applies, row):
        return lambda w, n, ev: applies(w, n, ev) and not fired.add(f"{'PARENT' if w.parent else 'OWN'}_CLOCK.{row}")

    rows = tuple((name, spy(applies, name), build) for name, applies, build in rewrite.RULES)
    monkeypatch.setattr(rewrite, "RULES", rows)
    return fired


def _work(case, n):
    """The counts of the insert and of the delete after a base of size n."""
    scalar = case.scalar()
    inc = compile_query(scalar)[1]
    inc.step(_inputs(scalar, case.base(n)))
    counts = []
    for tick in (case.insert, case.delete):
        before = getattr(inc.metrics, case.counter)
        inc.step(_inputs(scalar, tick))
        counts.append(getattr(inc.metrics, case.counter) - before)
    return counts


def test_every_row_has_a_case():
    assert set(ROWS) <= set(CASES) and set(GROWS) <= set(CASES)
    assert set(CASES) - set(ROWS) == {"isolated edge after a path"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_work_of_a_one_row_change(name, monkeypatch):
    case = CASES[name]
    fired = _spied(monkeypatch)
    small, large = (_work(case, n) for n in case.sizes)
    assert name not in ROWS or name in fired
    if name in GROWS:
        assert all(a < b for a, b in zip(small, large)), (small, large)
    else:
        assert small == large


def _scaled(rows, k):
    return {name: {r: k * w for r, w in z.items()} for name, z in rows.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_compare_mode(name):
    """Compare mode at the smaller size: the change with weight 2, its
    delete, then the delete of one base row per relation."""
    case = CASES[name]
    scalar = case.scalar()
    base = case.base(case.sizes[0])
    tables = [rel for rel, nid in scalar.sources.items() if not scalar.nodes[nid].meta["event"]]
    drop = {rel: {min(base[rel]): -1} for rel in tables}
    ticks = [base, _scaled(case.insert, 2), _scaled(case.delete, 2), drop]
    assert differential_check(scalar, [[_inputs(scalar, t) for t in ticks]]) is None
