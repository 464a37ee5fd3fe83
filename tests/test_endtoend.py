"""Randomized end-to-end fuzzing: every operator kind under compare mode,
plus the documented quick-tour snippets and the threading contract."""

import json
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaflow import RunReport, ValidationError, ZSet
from deltaflow.runner import compile_circuits
from deltaflow.specfile import compile_spec
from deltaflow.trace import Transaction, dump_transaction
from conftest import run_all
from oracles import as_z

FUZZ_DOC = {
    "relations": [
        {"name": "a", "columns": ["k", "v"]},
        {"name": "b", "columns": ["k", "w"]},
        {"name": "ev", "columns": ["k", "tag"], "kind": "stream"},
        {"name": "clk", "columns": ["now"], "kind": "stream"},
    ],
    "recursive": {
        "relations": [{"name": "hop", "columns": ["x", "y"]}],
        "rules": [
            {"head": {"rel": "hop", "terms": ["x", "y"]}, "body": [{"rel": "a", "terms": ["x", "y"]}]},
            {
                "head": {"rel": "hop", "terms": ["x", "y"]},
                "body": [{"rel": "a", "terms": ["x", "z"]}, {"rel": "hop", "terms": ["z", "y"]}],
            },
        ],
    },
    "views": [
        {"name": "joined", "query": {
            "op": "join", "left": {"op": "rel", "name": "a"}, "right": {"op": "rel", "name": "b"},
            "left_key": [0], "right_key": [0]}},
        {"name": "summed", "query": {
            "op": "aggregate", "agg": "sum", "column": 1, "group_by": [0], "input": {"op": "rel", "name": "a"}}},
        {"name": "uni", "query": {
            "op": "union", "left": {"op": "rel", "name": "a"}, "right": {"op": "rel", "name": "b"}}},
        {"name": "diff", "query": {
            "op": "except", "left": {"op": "rel", "name": "a"}, "right": {"op": "rel", "name": "b"}}},
        {"name": "anti", "query": {
            "op": "antijoin", "left": {"op": "rel", "name": "a"}, "right": {"op": "rel", "name": "hop"},
            "left_key": [0], "right_key": [0]}},
        {"name": "far", "query": {
            "op": "distinct", "input": {"op": "project", "columns": [1], "input": {"op": "rel", "name": "hop"}}}},
        {"name": "recent", "query": {
            "op": "window", "input": {"op": "rel", "name": "a"}, "ts_column": 1, "width": 4, "theta": "clk"}},
        {"name": "matches", "query": {
            "op": "stream_join", "left": {"op": "rel", "name": "a"}, "right": {"op": "rel", "name": "ev"},
            "left_key": [0], "right_key": [0]}},
        {"name": "big_matches", "query": {
            "op": "stream_join",
            "left": {"op": "filter", "predicate": [">", ["col", 1], ["const", 1]], "input": {"op": "rel", "name": "a"}},
            "right": {"op": "rel", "name": "ev"},
            "left_key": [0], "right_key": [0]}},
    ],
}


def fuzz_trace(seed, ticks=8, dom=4):
    rng = random.Random(seed)
    clock = 0
    txs = []
    for t in range(ticks):
        changes = {}
        for rel in ("a", "b"):
            rows = [
                ((rng.randrange(dom), rng.randrange(dom)), rng.choice([1, 1, -1]))
                for _ in range(rng.randrange(4))
            ]
            if rows:
                changes[rel] = ZSet(rows)
        ev = [((rng.randrange(dom), "e%d" % rng.randrange(3)), 1) for _ in range(rng.randrange(2))]
        if ev:
            changes["ev"] = ZSet(ev)
        clock += rng.randrange(3)
        changes["clk"] = ZSet({(clock,): 1})
        txs.append(Transaction(tx=t, changes=changes))
    return txs


class TestCompareFuzz:
    def test_fifty_seeds_all_operators(self):
        spec = compile_spec(FUZZ_DOC)
        cs = compile_circuits(spec, mode="compare")
        for seed in range(50):
            cs.incremental.reset()
            cs.reference.reset()
            report, _ = run_all(cs, fuzz_trace(seed, ticks=12, dom=5), "compare")
            assert report.verdict == {"equal": True}, (seed, report.verdict)


# -- random views over the spec grammar --------------------------------------------

# Tables a and b, and two derived relations: hop is the transitive closure of
# a, by a non-linear rule (both join sides change along the fixpoint loop) and
# a right-linear one (its a side changes at the first iteration only), and cut
# is b minus hop (stratified negation over the recursive block).
SPEC_RELATIONS = {"a": 2, "b": 2, "hop": 2, "cut": 2}
SPEC_RECURSIVE = {
    "relations": [{"name": "hop", "columns": ["x", "y"]}, {"name": "cut", "columns": ["x", "y"]}],
    "rules": [
        {"head": {"rel": "hop", "terms": ["x", "y"]}, "body": [{"rel": "a", "terms": ["x", "y"]}]},
        {
            "head": {"rel": "hop", "terms": ["x", "y"]},
            "body": [{"rel": "hop", "terms": ["x", "z"]}, {"rel": "hop", "terms": ["z", "y"]}],
        },
        {
            "head": {"rel": "hop", "terms": ["x", "y"]},
            "body": [{"rel": "hop", "terms": ["x", "z"]}, {"rel": "a", "terms": ["z", "y"]}],
        },
        {
            "head": {"rel": "cut", "terms": ["x", "y"]},
            "body": [{"rel": "b", "terms": ["x", "y"]}, {"rel": "hop", "terms": ["x", "y"], "negated": True}],
        },
    ],
}
UNARY_OPS = ["filter", "project", "map", "distinct", "aggregate"]
BINARY_OPS = ["union", "union_all", "except", "intersect", "join", "antijoin", "cartesian"]
# MIN, MAX and AVG need a positive input, so they are drawn only over
# changes that keep every table weight positive.
LINEAR_AGGS = ("count", "sum")
ALL_AGGS = LINEAR_AGGS + ("min", "max", "avg")
DOM = 4


def _reshape(q, arity, want):
    """q read as a relation of arity want (its columns repeat cyclically)."""
    if arity == want:
        return q
    return {"op": "map", "exprs": [["col", i % arity] for i in range(want)], "input": q}


@st.composite
def view_queries(draw, depth=3, unary=UNARY_OPS, aggs=LINEAR_AGGS):
    """A random view query over SPEC_RELATIONS; returns (query, arity).

    A "window" among the unary ops reads the event-stream clock clk, and an
    aggregate is one of aggs, grouped by a column or not."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        name = draw(st.sampled_from(sorted(SPEC_RELATIONS)))
        return {"op": "rel", "name": name}, SPEC_RELATIONS[name]
    op = draw(st.sampled_from(unary + BINARY_OPS))
    q, n = draw(view_queries(depth - 1, unary, aggs))
    col = st.integers(0, n - 1)
    if op == "filter":
        pred = [draw(st.sampled_from([">", "==", "!="])), ["col", draw(col)], ["const", draw(st.integers(0, DOM - 1))]]
        return {"op": op, "predicate": pred, "input": q}, n
    if op == "project":
        cols = draw(st.lists(col, min_size=1, max_size=2))
        return {"op": op, "columns": cols, "input": q}, len(cols)
    if op == "map":
        shift = draw(st.integers(1, DOM - 1))
        exprs = [["%", ["+", ["col", draw(col)], ["const", shift]], ["const", DOM]], ["col", draw(col)]]
        return {"op": op, "exprs": exprs, "input": q}, 2
    if op == "distinct":
        return {"op": op, "input": q}, n
    if op == "aggregate":
        out = {"op": op, "agg": draw(st.sampled_from(aggs)), "column": draw(col), "input": q}
        if draw(st.booleans()):
            out["group_by"] = [draw(col)]
            return out, 2
        return out, 1
    if op == "window":
        return _window(q, draw(col), draw(st.integers(1, DOM - 1))), n
    r, m = draw(view_queries(depth - 1, unary, aggs))
    if op in ("union", "union_all", "except", "intersect"):
        return {"op": op, "left": q, "right": _reshape(r, m, n)}, n
    out = {"op": op, "left": q, "right": r}
    if op != "cartesian":
        out["left_key"] = [draw(col)]
        out["right_key"] = [draw(st.integers(0, m - 1))]
    if op == "antijoin":
        return out, n
    # Keep joined rows narrow, by a project or map read straight off the
    # join (the rewrite folds it into the join): one or two columns from
    # either side, so rows merge and their weights add, or arithmetic over
    # columns of both.
    joined = st.integers(0, n + m - 1)
    if draw(st.booleans()):
        cols = draw(st.lists(joined, min_size=1, max_size=2))
        return {"op": "project", "columns": cols, "input": out}, len(cols)
    i, j = draw(joined), draw(joined)
    exprs = [["%", ["+", ["col", i], ["*", ["col", j], ["const", 2]]], ["const", DOM]], ["-", ["col", j], ["col", i]]]
    return {"op": "map", "exprs": exprs, "input": out}, 2


@st.composite
def linear_aggregates(draw):
    """A COUNT, SUM or AVG, grouped by a column or not, over a random view
    that may hold aggregates too."""
    q, n = draw(view_queries(aggs=("count", "sum", "avg")))
    col = st.integers(0, n - 1)
    out = {"op": "aggregate", "agg": draw(st.sampled_from(["count", "sum", "avg"])), "column": draw(col), "input": q}
    if draw(st.booleans()):
        out["group_by"] = [draw(col)]
    return out


def _window(q, ts_column, width):
    return {"op": "window", "input": q, "ts_column": ts_column, "width": width, "theta": "clk"}


@st.composite
def event_views(draw):
    """A view whose root reads an event stream: a window on the clock clk or
    a stream join with ev, over a random view that may hold windows too."""
    q, n = draw(view_queries(unary=UNARY_OPS + ["window"]))
    if draw(st.booleans()):
        return _window(q, draw(st.integers(0, n - 1)), draw(st.integers(1, DOM - 1)))
    left_key, right_key = [draw(st.integers(0, n - 1))], [draw(st.integers(0, 1))]
    return {"op": "stream_join", "left": q, "right": {"op": "rel", "name": "ev"}, "left_key": left_key, "right_key": right_key}


rows = st.tuples(st.integers(0, DOM - 1), st.integers(0, DOM - 1))
signed_weights = st.sampled_from([-3, -2, -1, 1, 2, 3])
table_changes = st.fixed_dictionaries(
    {rel: st.dictionaries(rows, signed_weights, max_size=4) for rel in ("a", "b")}
)


@st.composite
def chain_changes(draw):
    """Changes to a that keep it a path of at least 6 edges plus chords, so
    the recursive block runs long enough for every nested join term and for
    corrections across iterations: tx 0 inserts the path and later txs
    insert chords and delete or re-weight edges, with weights up to 3."""
    n = draw(st.integers(6, 8))
    node = st.integers(0, n)
    heavy = st.sampled_from([1, 2, 3])
    live = {(i, i + 1): draw(heavy) for i in range(n)}
    txs = [{"a": dict(live), "b": draw(st.dictionaries(rows, signed_weights, max_size=4))}]
    for _ in range(draw(st.integers(1, 4))):
        change = {}
        for _ in range(draw(st.integers(1, 3))):
            if live and draw(st.booleans()):
                e = draw(st.sampled_from(sorted(live)))
                w = -live[e] if draw(st.booleans()) else draw(heavy) - live[e]
            else:
                e, w = (draw(node), draw(node)), draw(heavy)
            if w and e not in change:
                change[e] = w
                live[e] = live.get(e, 0) + w
                if not live[e]:
                    del live[e]
        txs.append({"a": change, "b": draw(st.dictionaries(rows, signed_weights, max_size=2))})
    return txs


@st.composite
def path_regrowth(draw):
    """A path of 10 to 16 edges in a, all of it deleted in one tx, then parts
    of it added back with weights 2 or 3, and edges of those deleted again:
    a tick that cuts a regrown part shortens the fixpoint, while the traces
    of hop still hold the slots that the longer run reached."""
    n = draw(st.integers(10, 16))
    txs = [{"a": {(i, i + 1): 1 for i in range(n)}, "b": draw(st.dictionaries(rows, signed_weights, max_size=4))}]
    txs.append({"a": {(i, i + 1): -1 for i in range(n)}})
    live = {}
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo + 1, n))
        change = {(i, i + 1): draw(st.sampled_from([2, 3])) for i in range(lo, hi)}
        if live and draw(st.booleans()):
            e = draw(st.sampled_from(sorted(live)))
            change[e] = change.get(e, 0) - live[e]
        for e, w in change.items():
            live[e] = live.get(e, 0) + w
            if not live[e]:
                del live[e]
        txs.append({"a": {e: w for e, w in change.items() if w}})
    if live:  # cut the regrown part: the fixpoint shrinks below what it held
        e = draw(st.sampled_from(sorted(live)))
        txs.append({"a": {e: -live[e]}})
    return txs


@st.composite
def positive_changes(draw):
    """Changes to a and b that keep every accumulated weight positive:
    inserts with weights up to 3, deletions, and re-weightings."""
    live = {"a": {}, "b": {}}
    txs = []
    for _ in range(draw(st.integers(1, 5))):
        changes = {}
        for rel, rows_of in live.items():
            change = {}
            for _ in range(draw(st.integers(0, 3))):
                if rows_of and draw(st.booleans()):
                    e = draw(st.sampled_from(sorted(rows_of)))
                    w = -rows_of[e] if draw(st.booleans()) else draw(st.integers(1, 3)) - rows_of[e]
                else:
                    e, w = draw(rows), draw(st.integers(1, 3))
                if w and e not in change:
                    change[e] = w
                    rows_of[e] = rows_of.get(e, 0) + w
                    if not rows_of[e]:
                        del rows_of[e]
            changes[rel] = change
        txs.append(changes)
    return txs


def spec_doc(queries):
    return {
        "relations": [{"name": rel, "columns": ["x", "y"]} for rel in ("a", "b")],
        "recursive": SPEC_RECURSIVE,
        "views": [{"name": f"v{i}", "query": q} for i, q in enumerate(queries)],
    }


def table_trace(txs):
    return [
        Transaction(tx=t, changes={rel: ZSet(d) for rel, d in changes.items()}) for t, changes in enumerate(txs)
    ]


class TestSpecFuzz:
    # A broken fixpoint fails within a thousand iterations instead of
    # running to the default cap of a million.
    CAP = 1000

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(view_queries(), min_size=1, max_size=2),
        st.lists(table_changes, min_size=1, max_size=5) | chain_changes(),
    )
    def test_random_views_compare_equal(self, views, txs):
        cs = compile_circuits(compile_spec(spec_doc([q for q, _ in views])), "compare", max_iterations=self.CAP)
        assert run_all(cs, table_trace(txs), "compare")[0].verdict == {"equal": True}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(view_queries(), min_size=0, max_size=1), path_regrowth())
    def test_path_deleted_and_regrown_compare_equal(self, views, txs):
        """A run that stops short of an inner tick an earlier tick reached
        would skip the corrections there: hop and cut, and a random view,
        stay equal to the reference through the regrowth."""
        queries = [{"op": "rel", "name": "hop"}, {"op": "rel", "name": "cut"}] + [q for q, _ in views]
        cs = compile_circuits(compile_spec(spec_doc(queries)), "compare", max_iterations=self.CAP)
        assert run_all(cs, table_trace(txs), "compare")[0].verdict == {"equal": True}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(view_queries(aggs=ALL_AGGS), min_size=1, max_size=2), positive_changes())
    def test_random_aggregates_compare_equal(self, views, txs):
        cs = compile_circuits(compile_spec(spec_doc([q for q, _ in views])), "compare", max_iterations=self.CAP)
        assert run_all(cs, table_trace(txs), "compare")[0].verdict == {"equal": True}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(linear_aggregates(), min_size=1, max_size=2), st.lists(table_changes, min_size=1, max_size=5))
    def test_linear_aggregates_under_signed_changes(self, views, txs):
        """COUNT, SUM and AVG keep running totals in the incremental circuit.
        Under changes whose weights cancel or go negative, both modes emit
        the same lines, or stop at the same tx with the same error."""
        spec = compile_spec(spec_doc(views))
        runs = []
        for mode in ("incremental", "reference"):
            report = RunReport(compile_circuits(spec, mode, max_iterations=self.CAP), table_trace(txs), mode)
            lines = []
            try:
                for tx, changes, _ in report:
                    lines.append(dump_transaction(tx, changes))
            except ValidationError as e:
                lines.append(str(e))
            runs.append(lines)
        assert runs[0] == runs[1]

    def test_non_positive_group_raises_alike_in_both_modes(self):
        query = {"op": "aggregate", "agg": "min", "column": 1, "group_by": [0], "input": {"op": "rel", "name": "a"}}
        spec = compile_spec(spec_doc([query]))
        trace = table_trace([{"a": {(1, 5): 1, (2, 3): 2}}, {"a": {(1, 5): -2}}])
        messages = []
        for mode in ("incremental", "reference"):
            with pytest.raises(ValidationError) as info:
                run_all(compile_circuits(spec, mode), trace, mode)
            messages.append(str(info.value))
        assert messages[0] == messages[1] and messages[0].startswith("tx 1: ")

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(event_views(), min_size=1, max_size=2),
        st.lists(
            st.tuples(table_changes, st.dictionaries(rows, signed_weights, max_size=3), st.none() | st.integers(0, 2)),
            min_size=1,
            max_size=5,
        ),
    )
    def test_windows_and_stream_joins_compare_equal(self, views, txs):
        doc = {
            "relations": [{"name": rel, "columns": ["x", "y"]} for rel in ("a", "b")]
            + [
                {"name": "ev", "columns": ["k", "tag"], "kind": "stream"},
                {"name": "clk", "columns": ["now"], "kind": "stream"},
            ],
            "recursive": SPEC_RECURSIVE,
            "views": [{"name": f"v{i}", "query": q} for i, q in enumerate(views)],
        }
        cs = compile_circuits(compile_spec(doc), "compare", max_iterations=self.CAP)
        trace = []
        now = 0
        for t, (changes, events, step) in enumerate(txs):
            changes = {rel: ZSet(d) for rel, d in changes.items()}
            changes["ev"] = ZSet(events)
            if step is not None:  # the clock never decreases; some ticks leave it out
                now += step
                changes["clk"] = ZSet({(now,): 1})
            trace.append(Transaction(tx=t, changes=changes))
        assert run_all(cs, trace, "compare")[0].verdict == {"equal": True}


class TestReset:
    def test_replay_after_reset_is_identical(self):
        """A recursive block, a window and stream joins all start over."""
        spec = compile_spec(FUZZ_DOC)
        cs = compile_circuits(spec, "compare")
        trace = fuzz_trace(11, ticks=10)
        runs = []
        for _ in range(2):
            report, ticks = run_all(cs, trace, "compare")
            assert report.verdict == {"equal": True}
            counts = [{k: v for k, v in m.items() if not k.endswith("wall_ns")} for _, _, m in ticks]
            runs.append(("".join(dump_transaction(tx, changes) for tx, changes, _ in ticks), counts))
            cs.incremental.reset()
            cs.reference.reset()
        assert runs[0] == runs[1]
        assert any(m["iterations"] for m in runs[0][1])


class TestEventOnlySpec:
    def test_every_mode_runs(self):
        doc = {
            "relations": [{"name": "ev", "columns": ["k"], "kind": "stream"}],
            "views": [{"name": "v", "query": {"op": "rel", "name": "ev"}}],
        }
        spec = compile_spec(doc)
        trace = [Transaction(tx=0, changes={"ev": ZSet({(1,): 1})}), Transaction(tx=1, changes={})]
        for mode in ("incremental", "reference", "compare"):
            _, ticks = run_all(compile_circuits(spec, mode), trace, mode)
            assert [changes["v"] for _, changes, _ in ticks] == [ZSet({(1,): 1}), ZSet()]


class TestThreading:
    def test_distinct_circuits_run_concurrently(self):
        spec = compile_spec(FUZZ_DOC)
        trace = fuzz_trace(3, ticks=6)

        def worker(results, idx):
            cs = compile_circuits(spec, mode="incremental")
            _, ticks = run_all(cs, trace, "incremental")
            results[idx] = [{view: changes[view] for view in spec.view_names} for _, changes, _ in ticks]

        results = [None] * 4
        threads = [threading.Thread(target=worker, args=(results, i)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


class TestReadmeSnippets:
    def test_quick_tour(self):
        from deltaflow import Circuit, incrementalize_query
        from deltaflow.expr import BinOp, Col, Const, KeyFunc
        from deltaflow.relational import build_distinct, build_equijoin, build_filter

        c = Circuit()
        orders = c.add_source("orders")
        custs = c.add_source("custs")
        big = build_filter(c, orders, BinOp(">", Col(2), Const(100)))
        j = build_equijoin(c, big, custs, KeyFunc([1]), KeyFunc([0]))
        c.add_sink(build_distinct(c, j), "v")

        inc = incrementalize_query(c)
        delta = ZSet({(1, 7, 250): 1})
        out = inc.step({"orders": delta, "custs": ZSet({(7, "eu"): 1})})["v"]
        assert as_z(out) == ZSet({(1, 7, 250, 7, "eu"): 1})

    def test_quick_tour_recursion(self):
        from deltaflow import Atom, Rule, RuleProgram, build_incremental_recursive

        tc = RuleProgram(
            inputs={"E": 2},
            outputs={"R": 2},
            rules=[
                Rule(Atom("R", ("x", "y")), (Atom("E", ("x", "y")),)),
                Rule(Atom("R", ("x", "y")), (Atom("E", ("x", "z")), Atom("R", ("z", "y")))),
            ],
        )
        circ = build_incremental_recursive(tc)
        out = as_z(circ.step({"E": ZSet({(1, 2): 1})})["R"])
        assert out == ZSet({(1, 2): 1})


class TestSharedDistinctNotDropped:
    def test_consolidation_respects_sharing(self):
        import random as _r

        from deltaflow import Circuit, consolidate_distinct, incrementalize_naive
        from deltaflow.expr import KeyFunc
        from deltaflow.relational import build_distinct, build_equijoin, build_projection

        def build():
            c = Circuit()
            s = c.add_source("s")
            d = build_distinct(c, s)  # shared by two consumers
            p = build_projection(c, d, [0])
            j = build_equijoin(c, d, d, KeyFunc([0]), KeyFunc([0]))
            c.add_sink(build_distinct(c, p), "p")
            c.add_sink(build_distinct(c, j), "j")
            return c

        base = incrementalize_naive(build())
        cons = incrementalize_naive(consolidate_distinct(build()))
        rng = _r.Random(0)
        cur = set()
        for _ in range(25):
            ins = {(rng.randrange(4), rng.randrange(4)) for _ in range(2)} - cur
            dels = {r for r in cur if rng.random() < 0.3}
            cur = (cur | ins) - dels
            delta = ZSet([(r, 1) for r in ins] + [(r, -1) for r in dels])
            a = base.step({"s": delta})
            b = cons.step({"s": delta})
            assert as_z(a["p"]) == as_z(b["p"])
            assert as_z(a["j"]) == as_z(b["j"])
