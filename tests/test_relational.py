"""Relational operators: set-semantics correctness, class labels, the
incremental primitives, windows, and stream joins."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import row_zsets, run_all
from deltaflow import Circuit, ValidationError, ZSet, to_set, to_zset
from deltaflow.expr import Col, KeyFunc, MapFunc, parse_expr
from deltaflow.groupval import ZERO
from deltaflow.runner import compile_circuits
from deltaflow.specfile import compile_spec
from deltaflow.rewrite import compile_query
from deltaflow.trace import Transaction, dump_transaction
from deltaflow.zset import Trace, TraceView, distinct, group_by
from deltaflow.relational import (
    AGGREGATES,
    AggregateFn,
    FilterFn,
    DistinctDeltaFn,
    IncJoinFn,
    JoinFn,
    MapFn,
    WindowSpec,
    build_aggregate,
    build_antijoin,
    build_cartesian,
    build_difference,
    build_distinct,
    build_equijoin,
    build_filter,
    build_inc_distinct,
    build_inc_join,
    build_intersect,
    build_projection,
    build_union,
    build_union_all,
    build_window,
    cartesian_fn,
    intersect_fn,
    project_fn,
)
from oracles import (
    as_z,
    brute_incremental,
    set_antijoin,
    set_difference,
    set_filter,
    set_intersect,
    set_join,
    set_project,
    set_union,
)

rows = st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8)


def eval_fragment(build, **inputs):
    c = Circuit()
    srcs = {name: c.add_source(name) for name in inputs}
    out = build(c, srcs)
    c.add_sink(out, "o")
    return as_z(c.step(inputs)["o"])


class TestCorrectnessSquare:
    """to_set(Q'(to_zset(V))) == Q(V) for every set operator."""

    @given(rows)
    def test_filter(self, a):
        pred = lambda r: r[0] > 2
        got = eval_fragment(lambda c, s: build_filter(c, s["a"], pred), a=to_zset(a))
        assert to_set(got) == set_filter(a, pred)

    @given(rows)
    def test_projection(self, a):
        got = eval_fragment(lambda c, s: build_distinct(c, build_projection(c, s["a"], [1])), a=to_zset(a))
        assert to_set(got) == set_project(a, [1])

    @given(rows, rows)
    def test_union(self, a, b):
        got = eval_fragment(lambda c, s: build_union(c, s["a"], s["b"]), a=to_zset(a), b=to_zset(b))
        assert to_set(got) == set_union(a, b)
        assert got == to_zset(set_union(a, b))

    @given(rows, rows)
    def test_difference(self, a, b):
        got = eval_fragment(lambda c, s: build_difference(c, s["a"], s["b"]), a=to_zset(a), b=to_zset(b))
        assert got == to_zset(set_difference(a, b))

    @given(rows, rows)
    def test_intersection(self, a, b):
        got = eval_fragment(lambda c, s: build_intersect(c, s["a"], s["b"]), a=to_zset(a), b=to_zset(b))
        assert to_set(got) == set_intersect(a, b)

    @given(rows, rows)
    def test_equijoin(self, a, b):
        ka = KeyFunc([0])
        kb = KeyFunc([1])
        got = eval_fragment(lambda c, s: build_equijoin(c, s["a"], s["b"], ka, kb), a=to_zset(a), b=to_zset(b))
        assert to_set(got) == set_join(a, b, lambda r: (r[0],), lambda r: (r[1],))

    @given(rows, rows)
    def test_cartesian(self, a, b):
        got = eval_fragment(lambda c, s: build_cartesian(c, s["a"], s["b"]), a=to_zset(a), b=to_zset(b))
        assert to_set(got) == {x + y for x in a for y in b}

    @given(rows, rows)
    def test_antijoin(self, a, b):
        ka, kb = KeyFunc([0]), KeyFunc([0])
        got = eval_fragment(lambda c, s: build_antijoin(c, s["a"], s["b"], ka, kb), a=to_zset(a), b=to_zset(b))
        assert got == to_zset(set_antijoin(a, b, lambda r: (r[0],), lambda r: (r[0],)))


class TestWeightArithmetic:
    def test_projection_sums_weights(self):
        got = project_fn([1])(ZSet({(1, "a"): 1, (2, "a"): 1}))
        assert got == ZSet({("a",): 2})

    def test_filter_keeps_weights(self):
        got = FilterFn(lambda r: r[0] > 2)(ZSet({(3,): 1, (1,): 1}))
        assert got == ZSet({(3,): 1})

    def test_filter_zpp(self):
        assert FilterFn(lambda r: True)(ZSet()).is_zero()

    def test_cartesian_weights_multiply(self):
        got = cartesian_fn()(ZSet({("x",): 2}), ZSet({("y",): 3}))
        assert got == ZSet({("x", "y"): 6})

    def test_join_bilinear_zero(self):
        assert cartesian_fn()(ZSet({("x",): 1}), ZSet()).is_zero()

    def test_join_keyed(self):
        got = JoinFn(KeyFunc([0]), KeyFunc([0]))(ZSet({(1, "a"): 1}), ZSet({(1, "b"): 1}))
        assert got == ZSet({(1, "a", 1, "b"): 1})

    def test_union_example(self):
        got = eval_fragment(
            lambda c, s: build_union(c, s["a"], s["b"]),
            a=ZSet({("x",): 1}),
            b=ZSet({("x",): 1, ("y",): 1}),
        )
        assert got == ZSet({("x",): 1, ("y",): 1})

    def test_union_all_example(self):
        got = eval_fragment(lambda c, s: build_union_all(c, s["a"], s["b"]), a=ZSet({("x",): 1}), b=ZSet({("x",): 1}))
        assert got == ZSet({("x",): 2})

    def test_except_self_is_empty(self):
        a = ZSet({("x",): 1, ("y",): 1})
        got = eval_fragment(lambda c, s: build_difference(c, s["a"], s["b"]), a=a, b=a)
        assert got.is_zero()

    def test_antijoin_example(self):
        got = eval_fragment(
            lambda c, s: build_antijoin(c, s["a"], s["b"], KeyFunc([0]), KeyFunc([0])),
            a=ZSet({("v", "z"): 1}),
            b=ZSet({("v",): 1}),
        )
        assert got.is_zero()


class TestClassLabels:
    """Declared linear/bilinear labels hold extensionally."""

    linear_fns = [
        ("filter", FilterFn(lambda r: r[0] % 2 == 0)),
        ("project", project_fn([0])),
        ("map", MapFn(MapFunc([Col(1), Col(0)]))),
    ]

    @settings(max_examples=40, deadline=None)
    @given(row_zsets, row_zsets)
    def test_linear(self, a, b):
        for name, fn in self.linear_fns:
            assert fn(a + b) == fn(a) + fn(b), name
            assert fn(-a) == -fn(a), name
            assert fn(ZSet()).is_zero(), name

    @settings(max_examples=30, deadline=None)
    @given(row_zsets, row_zsets, row_zsets)
    def test_bilinear(self, a, b, d):
        for name, fn in (("join", JoinFn(KeyFunc([0]), KeyFunc([0]))), ("intersect", intersect_fn())):
            assert fn(a + b, d) == fn(a, d) + fn(b, d), name
            assert fn(a, b + d) == fn(a, b) + fn(a, d), name

    @settings(max_examples=40, deadline=None)
    @given(row_zsets)
    def test_positivity(self, a):
        from deltaflow import distinct, is_positive

        pos = distinct(a)
        for name, fn in self.linear_fns:
            assert is_positive(fn(pos)), name
        assert is_positive(JoinFn(KeyFunc([0]), KeyFunc([0]))(pos, pos))
        assert is_positive(cartesian_fn()(pos, pos))


class TestDistinctConsolidationLaws:
    @settings(max_examples=40, deadline=None)
    @given(row_zsets, row_zsets)
    def test_commute_past_positive(self, a, b):
        # Q(distinct(i)) == distinct(Q(i)) for filter / join / cartesian, positive i
        from deltaflow import distinct

        a = distinct(a)  # make positive (actually a set; scale up for a bag)
        bag = a + a  # positive non-set
        for q in (FilterFn(lambda r: r[0] > 1),):
            assert q(distinct(bag)) == distinct(q(bag))
        j = JoinFn(KeyFunc([0]), KeyFunc([0]))
        pos_b = distinct(b) + distinct(b)
        assert j(distinct(bag), distinct(pos_b)) == distinct(j(bag, distinct(pos_b)))

    @settings(max_examples=40, deadline=None)
    @given(row_zsets, row_zsets)
    def test_absorb_inner_distinct(self, a, b):
        # distinct(Q(distinct(i))) == distinct(Q(i)) for the eligible operators
        from deltaflow import distinct

        bag_a = distinct(a) + distinct(a)
        bag_b = distinct(b) + distinct(b)
        d = distinct
        for q in (FilterFn(lambda r: r[1] < 3), project_fn([0]), MapFn(MapFunc([Col(1)]))):
            assert d(q(d(bag_a))) == d(q(bag_a))
        assert d(bag_a + d(bag_b)) == d(bag_a + bag_b)
        assert d(d(bag_a) + d(bag_b)) == d(bag_a + bag_b)
        j = JoinFn(KeyFunc([0]), KeyFunc([0]))
        assert d(j(d(bag_a), bag_b)) == d(j(bag_a, bag_b))
        assert d(j(bag_a, d(bag_b))) == d(j(bag_a, bag_b))


class TestIncrementalDistinct:
    def test_membership_transition_cases(self):
        h = DistinctDeltaFn()
        # element leaves the positive support
        assert h(ZSet({"x": 1}), ZSet({"x": -1})) == ZSet({"x": -1})
        # element enters the positive support
        assert h(ZSet(), ZSet({"x": 2})) == ZSet({"x": 1})
        # already present, stays present
        assert h(ZSet({"x": 2}), ZSet({"x": 1})).is_zero()

    def test_fragment_matches_definition(self):
        rng = random.Random(5)
        c = Circuit()
        d = c.add_source("d")
        c.add_sink(build_inc_distinct(c, d), "o")
        deltas = [
            ZSet({(rng.randrange(3),): rng.choice([-1, 1]) for _ in range(rng.randrange(4))})
            for _ in range(12)
        ]
        got = [as_z(c.step({"d": x})["o"]) for x in deltas]
        from deltaflow import distinct

        want = brute_incremental(distinct, deltas)
        assert got == want

    @settings(max_examples=30, deadline=None)
    @given(st.lists(row_zsets, min_size=1, max_size=10))
    def test_fragment_matches_definition_random(self, deltas):
        from deltaflow import distinct

        c = Circuit()
        d = c.add_source("d")
        c.add_sink(build_inc_distinct(c, d), "o")
        got = [as_z(c.step({"d": x})["o"]) for x in deltas]
        assert got == brute_incremental(distinct, deltas)


class TestIncrementalJoin:
    def test_single_tick(self):
        c = Circuit()
        a = c.add_source("a")
        b = c.add_source("b")
        c.add_sink(build_inc_join(c, a, b, KeyFunc([0]), KeyFunc([0])), "o")
        out = as_z(c.step({"a": ZSet({("x",): 1}), "b": ZSet({("x",): 1})})["o"])
        assert out == ZSet({("x", "x"): 1})

    def test_zero_side(self):
        c = Circuit()
        a = c.add_source("a")
        b = c.add_source("b")
        c.add_sink(build_inc_join(c, a, b, KeyFunc([0]), KeyFunc([0])), "o")
        for _ in range(4):
            out = as_z(c.step({"a": ZSet({("x",): 1}), "b": ZSet()})["o"])
            assert out.is_zero()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(row_zsets, row_zsets), min_size=1, max_size=10))
    def test_matches_definition_random(self, ticks):
        fn = JoinFn(KeyFunc([0]), KeyFunc([0]))
        c = Circuit()
        a = c.add_source("a")
        b = c.add_source("b")
        c.add_sink(build_inc_join(c, a, b, None, None, fn=fn), "o")
        das = [t[0] for t in ticks]
        dbs = [t[1] for t in ticks]
        got = [as_z(c.step({"a": x, "b": y})["o"]) for x, y in ticks]
        assert got == brute_incremental(fn, das, dbs)

    def test_two_tick_deletion(self):
        fn = JoinFn(KeyFunc([0]), KeyFunc([0]))
        das = [ZSet({(1, "a"): 1, (2, "b"): 1}), ZSet({(1, "a"): -1})]
        dbs = [ZSet({(1, "x"): 1}), ZSet({(2, "y"): 1})]
        c = Circuit()
        a = c.add_source("a")
        b = c.add_source("b")
        c.add_sink(build_inc_join(c, a, b, None, None, fn=fn), "o")
        got = [as_z(c.step({"a": x, "b": y})["o"]) for x, y in zip(das, dbs)]
        assert got == brute_incremental(fn, das, dbs)

    def test_folded_map_raises_only_on_rows_the_join_emits(self):
        """A map folded into the join sees the pair of the deleted (1, 5)
        and the inserted (1, "x"), whose two terms cancel: 5 + "x" must not
        raise, as neither the reference nor the map on its own evaluates
        it.  The same pair kept by the join raises in both modes."""
        joined = {"op": "join", "left": {"op": "rel", "name": "r"}, "right": {"op": "rel", "name": "s"},
                  "left_key": [0], "right_key": [0]}
        query = {"op": "map", "exprs": [["col", 0], ["+", ["col", 1], ["col", 3]]], "input": joined}
        spec = compile_spec({
            "relations": [{"name": "r", "columns": ["a", "b"]}, {"name": "s", "columns": ["a", "c"]}],
            "views": [{"name": "v", "query": query}],
        })
        base = Transaction(tx=0, changes={"r": ZSet({(1, 5): 1}), "s": ZSet({(1, 7): 1})})
        cancels = Transaction(tx=1, changes={"r": ZSet({(1, 5): -1}), "s": ZSet({(1, "x"): 1})})
        report, ticks = run_all(compile_circuits(spec, "compare"), [base, cancels], "compare")
        assert report.verdict == {"equal": True}
        assert ticks[1][1]["v"] == ZSet({(1, 12): -1})
        kept = Transaction(tx=1, changes={"s": ZSet({(1, "x"): 1})})
        for mode in ("incremental", "reference"):
            with pytest.raises(ValidationError, match="unsupported operand"):
                run_all(compile_circuits(spec, mode), [base, kept], mode)


class TestWindow:
    def test_direct_filter(self):
        c = Circuit()
        s = c.add_source("s")
        th = c.add_source("clk", event=True)
        c.add_sink(build_window(c, s, th, WindowSpec(ts_column=0, width=10)), "o")
        out = as_z(c.step({"s": ZSet({(95,): 1, (85,): 1}), "clk": ZSet({(100,): 1})})["o"])
        assert out == ZSet({(95,): 1})

    def test_empty(self):
        c = Circuit()
        s = c.add_source("s")
        th = c.add_source("clk", event=True)
        c.add_sink(build_window(c, s, th, WindowSpec(0, 10)), "o")
        assert as_z(c.step({"s": ZSet(), "clk": ZSet({(1,): 1})})["o"]).is_zero()

    def test_expiry(self):
        c = Circuit()
        s = c.add_source("s")
        th = c.add_source("clk", event=True)
        c.add_sink(build_window(c, s, th, WindowSpec(0, 10)), "o")
        out0 = as_z(c.step({"s": ZSet({(95,): 1}), "clk": ZSet({(100,): 1})})["o"])
        assert (95,) in out0
        out1 = as_z(c.step({"s": ZSet(), "clk": ZSet({(110,): 1})})["o"])
        assert (95,) not in out1

    def test_clock_decrease_rejected(self):
        c = Circuit()
        s = c.add_source("s")
        th = c.add_source("clk", event=True)
        c.add_sink(build_window(c, s, th, WindowSpec(0, 10)), "o")
        c.step({"s": ZSet(), "clk": ZSet({(100,): 1})})
        with pytest.raises(ValidationError):
            c.step({"s": ZSet(), "clk": ZSet({(90,): 1})})

    def test_oracle_on_random_trace(self):
        rng = random.Random(9)
        c = Circuit()
        s = c.add_source("s")
        th = c.add_source("clk", event=True)
        c.add_sink(build_window(c, s, th, WindowSpec(0, 5)), "o")
        acc = ZSet()
        clock = 0
        for _ in range(10):
            delta = ZSet({(clock + rng.randrange(8),): 1 for _ in range(rng.randrange(3))})
            clock += rng.randrange(3)
            acc = acc + delta
            got = as_z(c.step({"s": delta, "clk": ZSet({(clock,): 1})})["o"])
            want = ZSet({x: w for x, w in acc.raw_items() if x[0] >= clock - 5})
            assert got == want

    def test_width_must_be_positive(self):
        with pytest.raises(ValidationError):
            WindowSpec(0, 0)


class TestStreamJoin:
    """The incremental join over an event source: the table side is traced,
    the events are read raw, so each tick emits I(table) joined with its events."""

    def circuit(self, events_left=False):
        c = Circuit()
        s = c.add_source("s")
        t = c.add_source("t", event=True)
        left, right = (t, s) if events_left else (s, t)
        c.add_sink(build_inc_join(c, left, right, KeyFunc([0]), KeyFunc([0])), "o")
        return c

    def test_relation_accumulates_events_do_not(self):
        c = self.circuit()
        out0 = as_z(c.step({"s": ZSet({("k", 1): 1}), "t": ZSet()})["o"])
        assert out0.is_zero()
        out1 = as_z(c.step({"s": ZSet(), "t": ZSet({("k", "e"): 1})})["o"])
        assert out1 == ZSet({("k", 1, "k", "e"): 1})
        # the same event does not match again next tick
        out2 = as_z(c.step({"s": ZSet(), "t": ZSet()})["o"])
        assert out2.is_zero()

    def test_event_before_relation_row(self):
        c = self.circuit()
        out0 = as_z(c.step({"s": ZSet(), "t": ZSet({("k", "early"): 1})})["o"])
        assert out0.is_zero()
        out1 = as_z(c.step({"s": ZSet({("k", 1): 1}), "t": ZSet()})["o"])
        assert out1.is_zero()

    def test_only_the_table_side_is_traced(self):
        c = self.circuit()
        assert [n.kind for n in c.nodes] == ["source", "source", "trace", "lifted"]
        fn = c.nodes[-1].fn
        assert fn.probe_args == (0,)
        # a tick without events scans nothing, whatever the table's change
        view = TraceView(Trace(KeyFunc([0])), 0, {(1,): {(1, 2): 1}}, 1)
        assert fn.rows_in(view, ZERO) == 0
        assert fn.rows_in(view, ZSet({(1, "e"): 2})) == 1

    def test_oracle(self):
        self.check_oracle(events_left=False)

    def test_oracle_events_left(self):
        self.check_oracle(events_left=True)

    def check_oracle(self, events_left):
        weights = [1, -1, 2, -2, 3, -3]
        rng = random.Random(3)
        c = self.circuit(events_left)
        acc = ZSet()
        fn = JoinFn(KeyFunc([0]), KeyFunc([0]))
        matched = 0
        for _ in range(40):
            # table inserts and deletions with weights up to 3 either way,
            # and deletions of rows the table holds
            ds = ZSet({(rng.randrange(3), rng.randrange(9)): rng.choice(weights) for _ in range(rng.randrange(3))})
            ds = ds + ZSet({x: -w for x, w in acc.raw_items() if rng.random() < 0.2})
            # events of multiplicity 1 or 2
            ev = ZSet({(rng.randrange(3), "e%d" % rng.randrange(9)): rng.choice([1, 2]) for _ in range(rng.randrange(3))})
            acc = acc + ds
            got = as_z(c.step({"s": ds, "t": ev})["o"])
            assert got == (fn(ev, acc) if events_left else fn(acc, ev))
            matched += len(got)
        assert matched > 0


_AGG_POOLS = {
    "int": st.integers(-2, 2),
    "float": st.sampled_from([0.5, -1.5, 2.0]),
    "str": st.sampled_from(["a", "b", "ab"]),
}
_AGG_POOLS["mixed"] = st.one_of(*_AGG_POOLS.values())


@st.composite
def _agg_inputs(draw):
    """(group columns, Z-set): rows of three columns, each int, float, str or
    mixed; weights all positive, or any nonzero with sometimes a row whose
    weight cancels another's in the same group; sometimes a scalar element."""
    group = draw(st.sampled_from([None, [0], [2], [1, 0], [0, 2]]))
    pools = [_AGG_POOLS[draw(st.sampled_from(sorted(_AGG_POOLS)))] for _ in range(3)]
    positive = draw(st.booleans())
    weights = st.integers(1, 3) if positive else st.integers(-3, 3).filter(bool)
    d = draw(st.dictionaries(st.tuples(*pools), weights, max_size=8))
    free = [c for c in range(3) if c not in (group or [])]
    if d and not positive and draw(st.booleans()):
        row, w = draw(st.sampled_from(sorted(d.items(), key=repr)))
        c = draw(st.sampled_from(free))
        twin = row[:c] + (draw(pools[c]),) + row[c + 1 :]
        d[twin] = d.get(twin, 0) - w or w  # the pair's weights cancel unless twin is row
    if draw(st.integers(0, 4)) == 0:
        d[draw(_AGG_POOLS["mixed"])] = draw(weights)
    return group, ZSet(d)


def _agg_reference(kind, column, group, m):
    """The aggregate of m by its per-group definition: group_by, then the
    zset.aggregate_* helper on each group; COUNT and SUM of an empty ungrouped input
    are 0, the other ungrouped aggregates emit no row."""
    f = AGGREGATES[kind]
    if group is None:
        if m.is_zero():
            return ZSet({(0,): 1}) if kind in ("count", "sum") else ZSet()
        return ZSet({(f(m, column),): 1})
    return ZSet({k + (f(z, column),): 1 for k, z in group_by(KeyFunc(group), m).raw_items()})


class TestAggregateFn:
    def test_global_count_sum(self):
        m = ZSet({(1, 10): 1, (2, 20): 2})
        assert AggregateFn("count")(m) == ZSet({(3,): 1})
        assert AggregateFn("sum", column=1)(m) == ZSet({(50,): 1})

    def test_empty_behavior(self):
        assert AggregateFn("count")(ZSet()) == ZSet({(0,): 1})
        assert AggregateFn("sum", column=0)(ZSet()) == ZSet({(0,): 1})
        assert AggregateFn("min", column=0)(ZSet()).is_zero()

    def test_grouped(self):
        m = ZSet({(1, 10): 1, (1, 20): 1, (2, 5): 1})
        got = AggregateFn("sum", column=1, group_cols=[0])(m)
        assert got == ZSet({(1, 30): 1, (2, 5): 1})

    def test_avg(self):
        m = ZSet({(4,): 1, (6,): 1})
        assert AggregateFn("avg", column=0)(m) == ZSet({(5,): 1})

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["count", "sum", "avg", "min", "max"]), st.integers(0, 2), _agg_inputs())
    @example("avg", 1, ([0], ZSet({(0, 1, 0): 1, (0, 2, 0): -1})))
    @example("min", 1, ([0], ZSet({(0, 1, 0): 1, (0, "a", 0): 1})))
    @example("max", 1, ([0], ZSet({(0, 1, 0): 1, (0, 2, 0): -1})))
    @example("count", 0, (None, ZSet({(0, 0, 0): 2**62, (1, 0, 0): 2**62})))
    @example("sum", 1, ([0], ZSet({(0, "ab", 0): 2**62})))
    def test_one_pass_equals_per_group_reference(self, kind, column, inputs):
        """The one-pass kernel against each group's zset helper, over
        int/float/str columns, scalar elements, and weights that are
        negative, sum to zero or exceed 1: the same Z-set, or an error of
        the same class with the same message prefix."""
        group, m = inputs
        try:
            want = _agg_reference(kind, column, group, m)
        except Exception as e:
            with pytest.raises(type(e)) as got:
                AggregateFn(kind, column, group)(m)
            assert type(got.value) is type(e)
            assert str(got.value).split(":")[0] == str(e).split(":")[0]
        else:
            assert AggregateFn(kind, column, group)(m) == want

    @pytest.mark.parametrize(
        "kind, group, want",
        [
            ("min", None, [("ab",)]),
            ("max", None, [("b",)]),
            ("count", None, [(3,)]),
            ("min", [0], [("ab", "ab"), ("b", "b")]),
            ("max", [0], [("ab", "ab"), ("b", "b")]),
            ("count", [0], [("ab", 1), ("b", 2)]),
        ],
    )
    def test_str_scalars_are_their_own_column(self, kind, group, want):
        """A str element is a scalar, its own column 0, not a row of characters."""
        m = ZSet({"ab": 1, "b": 2})
        assert AggregateFn(kind, 0, group)(m) == ZSet({row: 1 for row in want})
        with pytest.raises(ValidationError, match="SUM over non-numeric column 0"):
            AggregateFn("sum", 0, group)(m)

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_ties_keep_the_first_value_in_input_order(self, kind):
        for first, then in ((1, 1.0), (1.0, 1)):
            m = ZSet({(0, first, "x"): 1, (0, then, "y"): 1, (0, 0 if kind == "max" else 2, "z"): 1})
            (row,) = AggregateFn(kind, 1, [0])(m).raw_items()
            assert row == ((0, 1), 1) and type(row[0][1]) is type(first)


class TestIncAggregateFn:
    def test_a_float_row_leaves_under_its_int_spelling(self):
        """(0, 2.0) and (0, 2) are one row.  Deleted as (0, 2) from a group
        that also holds other rows, it takes its float with it, so the SUM
        is an int once no float row is left, as the reference's is."""
        q = Circuit()
        t = q.add_source("t")
        q.add_sink(build_aggregate(q, t, "sum", 1, [0]), "s")
        reference, inc = compile_query(q)
        for tx, rows in enumerate(({(0, 2.0): 1, (0, 1): 1}, {(0, 3.5): 1}, {(0, 2): -1}, {(0, 3.5): -1})):
            got, want = (dump_transaction(tx, c.step({"t": ZSet(rows)})) for c in (inc, reference))
            assert got == want, tx
        assert '["s",[0,1],1]' in got


def _random_change(rng, empty_share=0.4):
    if rng.random() < empty_share:
        return ZSet()
    return ZSet({(rng.randrange(3), rng.randrange(4)): rng.choice((1, 2, -1)) for _ in range(rng.randint(1, 3))})


def _random_views(rng, keyed):
    """Two traces at iteration u of a parent tick, as a circuit's trace nodes
    hand them over: earlier ticks committed, this tick latched below u, and
    each view holding the change at u, often empty.  Returns the views and
    the two changes."""
    key = (lambda x: x[0]) if keyed else None
    traces = (Trace(key), Trace(key))
    u = rng.randrange(4)
    for _ in range(rng.randrange(3)):
        for tr in traces:
            for j in range(rng.randint(0, 4)):
                tr[j] = tr.group(_random_change(rng))
            tr.commit()
    for tr in traces:
        for j in range(u):
            tr[j] = tr.group(_random_change(rng))
    changes = [_random_change(rng) for _ in traces]
    views = [TraceView(tr, u, tr.group(d), len(d)) for tr, d in zip(traces, changes)]
    return views, changes


class TestSkipContract:
    """The step program skips a LINEAR node whose inputs are all zero, and an
    operator whose rows_in is 0, without calling it: each must emit nothing
    on exactly those inputs."""

    @pytest.mark.parametrize(
        "fn", [FilterFn(lambda x: True), MapFn(lambda x: (x, x)), project_fn([0])], ids=["filter", "map", "project"]
    )
    @pytest.mark.parametrize("zero", [ZSet(), ZERO], ids=["empty", "ZERO"])
    def test_linear_operators_map_zero_to_empty(self, fn, zero):
        out = fn(zero)
        assert isinstance(out, ZSet) and out.is_zero()

    @pytest.mark.parametrize("mode", ["join", "semi"])
    def test_inc_join_emits_nothing_when_it_scans_nothing(self, mode):
        rng = random.Random(7)
        fn = IncJoinFn(JoinFn(lambda x: x[0], lambda x: x[0], mode=mode))
        skipped = 0
        # the one operator scans nothing only when both changes and both
        # tick logs are empty, about one draw in 24
        for _ in range(2000):
            (va, vb), _ = _random_views(rng, keyed=True)
            if fn.rows_in(va, vb) == 0:
                skipped += 1
                assert fn(va, vb).is_zero(), (va.u, va.rows, vb.rows)
        assert skipped > 50

    def test_distinct_emits_nothing_when_it_scans_nothing(self):
        """Inside a fixpoint and on its own clock, where the integral is
        probed and an empty change scans nothing."""
        rng = random.Random(8)
        fn = DistinctDeltaFn()
        skipped = 0
        for _ in range(400):
            (view, _), (d, _) = _random_views(rng, keyed=False)
            for i in (view, _flat(view.trace.slots.get(0, {}))):
                for change in (d, ZERO) if d.is_zero() else (d,):
                    if fn.rows_in(i, change) == 0:
                        skipped += 1
                        assert fn(i, change).is_zero()
        assert skipped > 100

    def test_empty_iteration_change_still_corrects(self):
        """With both views' own change empty (TraceView.size == 0), the
        join's (L_a, B_u) and (A_u, L_b) pairs and the nested distinct still
        emit cross-tick corrections from the tick logs, so a size-based skip
        would drop them."""
        key = lambda x: x[0]
        ta, tb = Trace(key), Trace(key)
        tb[1] = tb.group(ZSet({(1, "b"): 1}))
        ta[1] = ta.group(ZSet({(2, "a"): 1}))
        ta.commit()
        tb.commit()
        ta[0] = ta.group(ZSet({(1, "a"): 1}))
        tb[0] = tb.group(ZSet({(2, "b"): 1}))
        va, vb = TraceView(ta, 1, {}, 0), TraceView(tb, 1, {}, 0)
        join = JoinFn(key, key)
        assert IncJoinFn(join)(va, vb) == ZSet({(1, "a", 1, "b"): 1, (2, "a", 2, "b"): 1})

        r = Trace()
        r[1] = r.group(ZSet({"x": 1}))
        r.commit()
        r[0] = r.group(ZSet({"x": 1}))
        # x reached iteration 1 on the last tick and iteration 0 on this one
        assert DistinctDeltaFn()(TraceView(r, 1, {}, 0), ZERO) == ZSet({"x": -1})

    @pytest.mark.parametrize("mode", ["incremental", "compare"])
    def test_ungrouped_count_and_sum_of_nothing_emit_zero_row(self, mode):
        """GENERAL operators always run: over a relation that is empty at
        tx 0, COUNT and SUM emit (0,)."""
        spec = compile_spec(
            {
                "relations": [{"name": "a", "columns": ["k", "v"]}],
                "views": [
                    {"name": "n", "query": {"op": "aggregate", "agg": "count", "input": {"op": "rel", "name": "a"}}},
                    {
                        "name": "s",
                        "query": {"op": "aggregate", "agg": "sum", "column": 1, "input": {"op": "rel", "name": "a"}},
                    },
                ],
            }
        )
        trace = [
            Transaction(tx=0, changes={}),
            Transaction(tx=1, changes={"a": ZSet({(1, 5): 1})}),
            Transaction(tx=2, changes={"a": ZSet({(1, 5): -1})}),
        ]
        report, ticks = run_all(compile_circuits(spec, mode), trace, mode)
        assert [changes for _, changes, _ in ticks] == [
            {"n": ZSet({(0,): 1}), "s": ZSet({(0,): 1})},
            {"n": ZSet({(0,): -1, (1,): 1}), "s": ZSet({(0,): -1, (5,): 1})},
            {"n": ZSet({(0,): 1, (1,): -1}), "s": ZSet({(0,): 1, (5,): -1})},
        ]
        if mode == "compare":
            assert report.verdict == {"equal": True}


def _flat(groups):
    """A trace slot, log entry or view change as one Z-set: keyed, it is
    key -> {row: weight}; flat, row -> weight."""
    if not all(isinstance(g, dict) for g in groups.values()):
        return ZSet(groups)
    out = ZSet()
    for g in groups.values():
        out = out + ZSet(g)
    return out


def _prefix_sums(view):
    """A(<=t, <=u), A(<=t, <u), A(<t, <=u) and A(<t, <u) for the trace behind
    a view at (t, u): slots below u hold tick t, slot u holds tick t-1, the
    tick log holds tick t below u, and the view's rows are the change at
    (t, u)."""
    tr, u = view.trace, view.u
    below = ZSet()
    for j, slot in tr.slots.items():
        if j < u:
            below = below + _flat(slot)
    logged = ZSet()
    for rows in tr.tick.values():
        logged = logged + _flat(rows)
    at_u = _flat(tr.slots.get(u, {}))
    below_prev = below - logged
    return below + at_u + _flat(view.rows), below, below_prev + at_u, below_prev


_KEY0 = lambda x: x[0]


class TestIncJoinOracle:
    """The one incremental join at (t, u) is the double difference of
    snapshot joins J(T, U) = A(<=T, <=U) * B(<=T, <=U):
    J(t, u) - J(t, u-1) - J(t-1, u) + J(t-1, u-1)."""

    @pytest.mark.parametrize(
        "join",
        [
            JoinFn(_KEY0, _KEY0),
            JoinFn(_KEY0, _KEY0, mode="semi", label="semijoin"),
            JoinFn(_KEY0, _KEY0).then(lambda r: (r[0], r[3] % 2), "map"),
        ],
        ids=["equijoin", "semijoin", "join+map"],
    )
    def test_matches_double_difference_of_snapshots(self, join):
        rng = random.Random(11)
        fn = IncJoinFn(join)
        for _ in range(400):
            (va, vb), _ = _random_views(rng, keyed=True)
            j = [join(a, b) for a, b in zip(_prefix_sums(va), _prefix_sums(vb))]
            assert fn(va, vb) == j[0] - j[1] - j[2] + j[3], (va.u, va.rows, vb.rows)


class TestDistinctDeltaOracle:
    """The one incremental distinct at (t, u) is the double difference of
    distinct over the snapshots R(<=T, <=U) of its input's trace:
    D(t, u) - D(t, u-1) - D(t-1, u) + D(t-1, u-1); on its own clock,
    distinct(i + d) - distinct(i)."""

    def test_matches_double_difference_of_snapshots(self):
        rng = random.Random(12)
        fn = DistinctDeltaFn()
        for _ in range(600):
            (view, _), (d, _) = _random_views(rng, keyed=False)
            s = [distinct(r) for r in _prefix_sums(view)]
            assert fn(view, d) == s[0] - s[1] - s[2] + s[3], (view.u, view.trace.slots, view.trace.tick, d)

    def test_own_clock_is_the_change_of_distinct(self):
        rng = random.Random(13)
        fn = DistinctDeltaFn()
        for _ in range(600):
            i, d = (
                ZSet({(rng.randrange(5),): rng.choice((-2, -1, 1, 2, 3)) for _ in range(rng.randrange(5))})
                for _ in range(2)
            )
            assert fn(i, d) == distinct(i + d) - distinct(i), (i, d)


class TestExpressions:
    def test_parse_and_eval(self):
        e = parse_expr([">", ["col", 0], ["const", 2]])
        assert e((3,)) is True and e((1,)) is False
        e2 = parse_expr(["+", ["col", 0], ["*", ["col", 1], ["const", 10]]])
        assert e2((1, 2)) == 21

    def test_parse_errors(self):
        for bad in (["nope", 1, 2], ["col", "x"], [], 42, ["const"]):
            with pytest.raises(ValidationError):
                parse_expr(bad)

    def test_division_is_exact_on_ints(self):
        from fractions import Fraction

        e = parse_expr(["/", ["col", 0], ["const", 4]])
        assert e((2,)) == Fraction(1, 2)
        assert e((8,)) == 2
        assert isinstance(e((8,)), int)
