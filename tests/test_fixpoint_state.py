"""Trace state: the two-axis traces behind nested joins and nested distinct,
the run-length floor and the rollback of a parent tick that fails, and the
own-clock traces behind incremental joins, kept in place and rolled back
with a tick that fails."""

import random

import pytest
from deltaflow import Circuit, CircuitError, NonTerminationError, RunReport, TypeMismatchError, ValidationError, ZSet
from deltaflow.circuit import STATE_KINDS
from deltaflow.datalog import build_while
from deltaflow.errors import WeightOverflowError
from deltaflow.expr import BinOp, Col, Const, KeyFunc, MapFunc
from deltaflow.groupval import ZERO
from deltaflow.relational import (
    IncJoinFn,
    JoinFn,
    build_aggregate,
    build_antijoin,
    build_cartesian,
    build_distinct,
    build_equijoin,
    build_filter,
    build_inc_join,
    build_intersect,
    build_map,
    build_semijoin,
    build_union,
)
from deltaflow.rewrite import compile_query, incrementalize_query
from deltaflow.runner import _closure_spec, compile_circuits
from deltaflow.specfile import compile_spec
from deltaflow.trace import Transaction
from deltaflow.zset import SummaryTrace, Trace
from oracles import as_z
from test_census import _spec_docs
from test_datalog import _WHILE_BODIES
from test_rule_table import runs_whole


def _set_cap(circuit, cap):
    for n in circuit.nodes:
        if n.kind == "nested":
            inner = n.meta["inner"]
            inner.nodes[inner.sum_id].meta["cap"] = cap


def _churn(seed, n_tx, n_nodes=9):
    """One-edge inserts and deletes over a small graph, after a base graph."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < n_nodes + 3:
        a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if a != b:
            edges.add((a, b))
    ticks = [{"E": ZSet([(e, 1) for e in edges])}]
    for _ in range(n_tx):
        if edges and rng.random() < 0.5:
            e = rng.choice(sorted(edges))
            edges.discard(e)
            ticks.append({"E": ZSet({e: -1})})
        else:
            a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
            if a == b or (a, b) in edges:
                ticks.append({"E": ZSet()})
                continue
            edges.add((a, b))
            ticks.append({"E": ZSet({(a, b): 1})})
    return ticks


def _plain(v):
    """Operator state as plain values; zero state reads as absent."""
    if isinstance(v, SummaryTrace):
        return _plain(v.slots), _plain(v.tick), dict(v.summary)
    if isinstance(v, Trace):
        return _plain(v.slots), _plain(v.tick)
    if isinstance(v, ZSet):
        return dict(v.raw_items())
    if isinstance(v, dict):
        return {k: p for k, p in ((k, _plain(x)) for k, x in v.items()) if p is not ZERO and p not in ({}, ({}, {}))}
    return v


class TestStepAtomicity:
    def test_cap_hit_then_restep_matches_fresh_circuit(self):
        """A parent tick cut by the iteration cap leaves every trace and
        accumulator as it was, so stepping the same tick again gives what a
        circuit that never failed gives, tick for tick."""
        ticks = _churn(5, 40)
        fresh = compile_circuits(_closure_spec(), "incremental").incremental
        c = compile_circuits(_closure_spec(), "incremental").incremental
        cap = next(
            n.meta["inner"].nodes[n.meta["inner"].sum_id].meta["cap"] for n in c.nodes if n.kind == "nested"
        )
        forced = {9, 21, 33}
        for t, inputs in enumerate(ticks):
            if t in forced:
                before = _plain(c._state)
                _set_cap(c, 2)
                with pytest.raises(NonTerminationError):
                    c.step(inputs)
                _set_cap(c, cap)
                assert _plain(c._state) == before, t
            i0, f0 = c.metrics.iterations, fresh.metrics.iterations
            got, want = c.step(inputs), fresh.step(inputs)
            assert as_z(got["R"]) == as_z(want["R"]), t
            assert c.metrics.iterations - i0 == fresh.metrics.iterations - f0, t

    def test_whole_domain_tick_cut_by_the_cap_is_restored(self):
        """An aggregate in a while-loop body has no trace form, so the loop
        runs whole over the integral of its input.  A tick cut by the cap
        leaves every state as it was, and stepping it again gives what a
        circuit that never failed gives."""

        def min_down():
            # Q(x) = x union {MIN(x) - 1} while that is >= 0
            q = Circuit()
            s = q.add_source("x")
            m = build_map(q, build_aggregate(q, s, "min"), MapFunc([BinOp("-", Col(0), Const(1))]))
            q.add_sink(build_union(q, s, build_filter(q, m, BinOp(">=", Col(0), Const(0)))), "x")
            return q

        fresh, c = incrementalize_query(build_while(min_down())), incrementalize_query(build_while(min_down()))
        ticks = [{(2,): 1}, {(5,): 1}, {(2,): -1}, {(5,): -1, (9,): 1}, {(9,): -1}]
        for t, rows in enumerate(ticks):
            inputs = {"x": ZSet(rows)}
            if t in (2, 3):
                before = _plain(c._state)
                assert before, t
                _set_cap(c, 2)
                with pytest.raises(NonTerminationError):
                    c.step(inputs)
                _set_cap(c, None)
                assert _plain(c._state) == before, t
            assert as_z(c.step(inputs)["x"]) == as_z(fresh.step(inputs)["x"]), t

    def test_tick_failing_after_the_block_ran_leaves_its_state(self):
        """The closure over E runs, then the view's filter fails on the
        string it derived: the block's parent-clock store is rolled back
        with the parent tick, and the next tick matches a fresh circuit."""
        doc = {
            "relations": [{"name": "E", "columns": ["h", "t"]}],
            "recursive": {
                "relations": [{"name": "R", "columns": ["s", "t"]}],
                "rules": [
                    {"head": {"rel": "R", "terms": ["x", "y"]}, "body": [{"rel": "E", "terms": ["x", "y"]}]},
                    {
                        "head": {"rel": "R", "terms": ["x", "y"]},
                        "body": [{"rel": "E", "terms": ["x", "z"]}, {"rel": "R", "terms": ["z", "y"]}],
                    },
                ],
            },
            "views": [
                {
                    "name": "v",
                    "query": {"op": "filter", "predicate": [">", ["col", 1], ["const", 1]], "input": {"op": "rel", "name": "R"}},
                }
            ],
        }
        spec = compile_spec(doc)
        c, fresh = (compile_circuits(spec, "incremental").incremental for _ in range(2))
        base = {"E": ZSet({(1, 2): 1, (2, 3): 1})}
        c.step(base)
        fresh.step(base)
        before = _plain(c._state)
        with pytest.raises(TypeMismatchError, match="operator 'filter'"):
            c.step({"E": ZSet({(3, "x"): 1})})
        assert _plain(c._state) == before
        nxt = {"E": ZSet({(0, 1): 1})}
        got = as_z(c.step(nxt)["v"])
        assert got == as_z(fresh.step(nxt)["v"]) == ZSet({(0, 2): 1, (0, 3): 1})


RUN_LENGTH_DOC = {
    "relations": [
        {"name": "E", "columns": ["h", "t"]},
        {"name": "Block", "columns": ["n"]},
    ],
    "recursive": {
        "relations": [{"name": "P", "columns": ["s", "t"]}, {"name": "Q", "columns": ["s", "t"]}],
        "rules": [
            {"head": {"rel": "P", "terms": ["x", "y"]}, "body": [{"rel": "E", "terms": ["x", "y"]}]},
            {
                "head": {"rel": "P", "terms": ["x", "y"]},
                "body": [
                    {"rel": "P", "terms": ["x", "z"]},
                    {"rel": "E", "terms": ["z", "y"]},
                    {"rel": "Block", "terms": ["z"], "negated": True},
                ],
            },
            {"head": {"rel": "Q", "terms": ["x", "y"]}, "body": [{"rel": "E", "terms": ["x", "y"]}]},
            {
                "head": {"rel": "Q", "terms": ["x", "y"]},
                "body": [{"rel": "E", "terms": ["x", "z"]}, {"rel": "Q", "terms": ["z", "y"]}],
            },
        ],
    },
    "views": [
        {"name": "reach", "query": {"op": "project", "columns": [1], "input": {"op": "rel", "name": "P"}}},
        {"name": "start", "query": {"op": "project", "columns": [0], "input": {"op": "rel", "name": "Q"}}},
    ],
}


def _tx(t, **changes):
    return Transaction(tx=t, changes={rel: ZSet(rows) for rel, rows in changes.items()})


RUN_LENGTH_TRACE = [
    # a chain 0-1-2-3 and a diamond 1-5-3: P(1, 3) has two derivations
    _tx(0, E={(0, 1): 1, (1, 2): 1, (2, 3): 1, (1, 5): 1, (5, 3): 1}),
    # the chain grows by one edge: this tick's fixpoint is the longest
    _tx(1, E={(3, 4): 1}),
    # shorter fixpoints from here on: a shortcut, a cut, a blocked node
    _tx(2, E={(0, 3): 1}),
    _tx(3, E={(0, 1): -1}),
    _tx(4, Block={(5,): 1}, E={(6, 7): 2}),
    # a deletion below zero, and weights above one
    _tx(5, E={(3, 4): -1, (7, 8): -1, (0, 7): 3}),
    _tx(6, Block={(5,): -1, (0,): 1}, E={(0, 1): 1, (0, 3): -1}),
    _tx(7, E={(7, 8): 1, (2, 3): -1}),
    _tx(8, E={(2, 3): 1, (1, 3): 1}),
]


class TestRunLength:
    def test_runs_longer_then_shorter_compare_equal(self):
        """Each domain's run visits inner tick 0 and every inner tick its
        traces hold, and beyond them runs as long as the reference's run:
        how long earlier ticks ran does not matter."""
        cs = compile_circuits(compile_spec(RUN_LENGTH_DOC), "compare")
        blocks = {c: _probed_blocks(c) for c in (cs.incremental, cs.reference)}
        report = RunReport(cs, RUN_LENGTH_TRACE, "compare")
        ticks, floors, runs = [], [], []
        steps = iter(report)
        for _ in RUN_LENGTH_TRACE:
            floors.append([1 + _highest_slot(cs.incremental, b) for b in blocks[cs.incremental]])
            ticks.append(next(steps))
            runs.append([[len(c.nested_probe_values(b)) for b in blocks[c]] for c in (cs.incremental, cs.reference)])
        assert report.verdict == {"equal": True}
        ref = [m["reference_iterations"] for _, _, m in ticks]
        # the trace keeps its shape: tick 1 runs longest, later ticks shorter
        assert ref[1] > max(ref[0], *ref[2:]), ref
        assert min(ref[2:]) < ref[1], ref
        inc = [m["iterations"] for _, _, m in ticks]
        assert inc == [8, 10, 10, 8, 8, 8, 8, 8, 8]
        for t, ((inc_runs, ref_runs), floor) in enumerate(zip(runs, floors)):
            assert inc_runs == [max(r, f) for r, f in zip(ref_runs, floor)], t
            # at least 1 + the highest slot held, at most the longest run so far
            assert sum(floor) <= inc[t] <= max(ref[t], *inc[:t], 0), t

    def test_nested_state_is_traces_only(self):
        """Nested joins and distinct keep their state in two-axis traces:
        no delay runs on the parent clock."""
        c = compile_circuits(compile_spec(RUN_LENGTH_DOC), "incremental").incremental
        parent = [_parent_clock_state(inner) for inner in _bodies(c)]
        assert all({n.kind for n in nodes} == {"trace"} for nodes in parent)
        counts = [len(nodes) for nodes in parent]
        # P: a join and the antijoin's semijoin with two traces each, and the
        # antijoin's and the rules' distinct with one; Q: a join and a distinct
        assert sorted(counts) == [3, 6]

    @pytest.mark.parametrize("name", sorted(_spec_docs()))
    def test_no_spec_keeps_other_state_on_a_parent_clock(self, name):
        """Every golden and perfbench spec, closure-churn's included."""
        c = compile_circuits(compile_spec(_spec_docs()[name]), "incremental").incremental
        for inner in _bodies(c):
            assert {n.kind for n in _parent_clock_state(inner)} <= {"trace"}

    @pytest.mark.parametrize("body", sorted(_WHILE_BODIES))
    def test_while_bodies_keep_traces_only_or_run_whole(self, body):
        """A while-loop body of joins and distinct keeps two-axis traces; one
        with an aggregate has no trace form, so the loop runs whole over the
        integral of its input, its output differentiated."""
        c = incrementalize_query(build_while(_WHILE_BODIES[body]()))
        for inner in _bodies(c):
            assert {n.kind for n in _parent_clock_state(inner)} <= {"trace"}
        assert runs_whole(c) == any(n.kind == "lifted" and n.label == "aggregate" for n in _WHILE_BODIES[body]().nodes)

    @pytest.mark.parametrize("body", ["grouped_count", "grouped_min", "joined_count", "min"])
    def test_whole_loops_do_the_work_of_the_reference(self, body):
        """A loop that runs whole runs the reference's naive body node for
        node, its maps over joins unfolded, so each tick scans the same rows
        and runs the same iterations."""
        reference, inc = compile_query(build_while(_WHILE_BODIES[body]()))
        rng = random.Random(17)
        prev = ZSet()
        for t in range(30):
            rows = {(rng.randrange(3), rng.randrange(5)) for _ in range(rng.randrange(4))}
            snap = ZSet({r[1:] if body == "min" else r: 1 for r in rows})
            work = []
            for c in (inc, reference):
                t0, i0 = c.metrics.tuples, c.metrics.iterations
                out = as_z(c.step({"x": snap - prev})["x"])
                work.append((out, c.metrics.tuples - t0, c.metrics.iterations - i0))
            assert work[0] == work[1], t
            prev = snap


def _probed_blocks(c):
    """The nested domains of c, each recording its entry per iteration, so
    that the length of its probe values is its last run."""
    blocks = [n.id for n in c.nodes if n.kind == "nested"]
    for b in blocks:
        c.probe_nested(b, c.nodes[b].meta["inner"].entry_id)
    return blocks


def _highest_slot(c, block):
    """The highest inner tick at which a parent-clock trace of the domain
    holds a slot (0 when none does)."""
    outer = c._state.get(block, {}).get("outer", {})
    return max((max(tr.slots, default=0) for tr in outer.values()), default=0)


def _bodies(c):
    """Every nested body of c, at any depth."""
    for n in c.nodes:
        if n.kind == "nested":
            yield n.meta["inner"]
            yield from _bodies(n.meta["inner"])


def _parent_clock_state(inner):
    return [n for n in inner.nodes if n.kind in STATE_KINDS and n.depth == inner.level - 1]


class TestTrace:
    def test_rollback_restores_slots(self):
        tr = Trace(lambda x: x[0])
        tr[0] = tr.group(ZSet({(1, 2): 1, (2, 3): 1}))
        tr[1] = tr.group(ZSet({(1, 4): 2}))
        tr.commit()
        before = {u: {k: dict(g) for k, g in slot.items()} for u, slot in tr.slots.items()}
        tr[0] = tr.group(ZSet({(1, 2): -1, (5, 5): 1}))
        tr[1] = tr.group(ZSet({(1, 4): -2}))
        assert tr.tick_rows == 3
        assert 1 not in tr.slots and tr.slots[0] == {2: {(2, 3): 1}, 5: {(5, 5): 1}}
        tr.rollback()
        assert tr.slots == before and tr.tick == {} and tr.tick_rows == 0

    def test_overflowing_latch_leaves_trace_as_it_was(self):
        tr = Trace(lambda x: x % 2)
        tr[0] = tr.group(ZSet({1: 2**62, 2: 1}))
        tr.commit()
        with pytest.raises(WeightOverflowError):
            tr[0] = tr.group(ZSet({4: 1, 1: 2**62}))
        assert tr.slots == {0: {1: {1: 2**62}, 0: {2: 1}}} and tr.tick == {}

    def test_flat_trace_drops_zero_weights(self):
        tr = Trace()
        tr[2] = tr.group(ZSet({"a": 1, "b": -1}))
        tr.commit()
        tr[2] = tr.group(ZSet({"a": -1}))
        assert tr.slots == {2: {"b": -1}}
        assert tr.tick == {2: {"a": -1}}


class TestTraceValidation:
    def _domain(self):
        c = Circuit()
        s = c.add_source("s")
        blk, inner = c.add_nested(s)
        e = inner.add_delta0()
        return c, blk, inner, e

    def test_trace_reaching_a_non_probe_consumer_is_rejected(self):
        c, blk, inner, e = self._domain()
        tr = inner.add_trace(e)
        inner.add_stream_sum(inner.add_plus([tr]))
        c.add_sink(blk, "o")
        with pytest.raises(CircuitError, match="does not probe it"):
            c.step({"s": ZSet()})

    def test_trace_read_by_a_probe_runs(self):
        c, blk, inner, e = self._domain()
        fn = JoinFn(lambda x: x, lambda x: x)
        ta, tb = inner.add_trace(e, index_key=fn.key_left), inner.add_trace(e, index_key=fn.key_right)
        j = inner.add_lifted(IncJoinFn(fn), [ta, tb], label="join")
        inner.add_stream_sum(j)
        c.add_sink(blk, "o")
        # at (0, 0) only the pair (a, b) has rows: the entry joined with itself
        assert as_z(c.step({"s": ZSet({1: 1})})["o"]) == ZSet({(1, 1): 1})

    def test_trace_lifted_past_its_clock_is_rejected(self):
        c, blk, inner, e = self._domain()
        tr = inner.add_trace(e, depth=inner.level + 1)
        inner.add_stream_sum(e)
        inner.add_lifted(_Probe(), [tr])
        c.add_sink(blk, "o")
        with pytest.raises(CircuitError, match="lifted past its clock"):
            c.step({"s": ZSet()})

    @pytest.mark.parametrize("add", [Circuit.add_integrate, Circuit.add_delay, Circuit.add_differentiate])
    def test_other_state_on_the_parent_clock_is_rejected(self, add):
        c, blk, inner, e = self._domain()
        inner.add_stream_sum(add(inner, e, depth=inner.level - 1))
        c.add_sink(blk, "o")
        with pytest.raises(CircuitError, match="on the parent clock, where only a trace may"):
            c.validate()


def _joined():
    """distinct(filter(a join b)) incrementalized: a trace per join side,
    the probing join, and the distinct's integral and delay."""
    q = Circuit()
    a, b = q.add_source("a"), q.add_source("b")
    j = build_equijoin(q, a, b, KeyFunc([0]), KeyFunc([0]))
    q.add_sink(build_distinct(q, build_filter(q, j, BinOp(">", Col(1), Const(0)))), "o")
    return incrementalize_query(q)


def _traces(c):
    return [c._state[n.id] for n in c.nodes if n.kind == "trace"]


JOIN_TICKS = [
    {"a": ZSet({(1, 5): 1, (2, 6): 2}), "b": ZSet({(1, "x"): 1})},
    {"a": ZSet({(3, 7): 1}), "b": ZSet({(2, "y"): 3, (3, "z"): 1})},
    {"a": ZSet({(2, 6): -2}), "b": ZSet({(1, "w"): 1})},
    {"a": ZSet({(1, 9): 2}), "b": ZSet({(3, "z"): -1})},
]


class TestOwnClockTraces:
    def test_slots_are_updated_in_place(self):
        c = _joined()
        c.step(JOIN_TICKS[0])
        slots = [tr.slots[0] for tr in _traces(c)]
        groups = [slot[(1,)] for slot in slots]
        for inputs in JOIN_TICKS[1:]:
            c.step(inputs)
            assert all(tr.slots[0] is slot for tr, slot in zip(_traces(c), slots))
        assert all(slot[(1,)] is g for slot, g in zip(slots, groups))
        assert all(tr.tick == {} for tr in _traces(c))

    def _fail_then_match_fresh(self, c, ticks, bad, error):
        fresh = c.clone()
        for t, inputs in enumerate(ticks):
            if t == bad:
                before = _plain(c._state)
                with pytest.raises(error):
                    c.step(inputs)
                assert _plain(c._state) == before
                continue
            got, want = c.step(inputs), fresh.step(inputs)
            assert {k: as_z(v) for k, v in got.items()} == {k: as_z(v) for k, v in want.items()}, t

    def test_operator_error_leaves_state_then_restep_matches(self):
        # the filter compares a string with 0 in the joined row of key 4
        ticks = JOIN_TICKS[:2] + [{"a": ZSet({(4, "s"): 1, (5, 1): 1}), "b": ZSet({(4, 1): 1})}] + JOIN_TICKS[2:]
        self._fail_then_match_fresh(_joined(), ticks, 2, TypeMismatchError)

    def test_general_rule_error_leaves_every_integral_then_restep_matches(self):
        """MAX takes the general rule, D(max(I t)).  A tick at which the MAX
        compares a str with an int fails; every integral's feedback delay,
        z(I t), keeps what it held, and the next ticks match a fresh circuit
        fed only the good ticks."""
        q = Circuit()
        q.add_sink(build_aggregate(q, q.add_source("t"), "max", 1, [0]), "m")
        c, fresh = incrementalize_query(q), incrementalize_query(q)
        assert {n.meta["rule"] for n in c.nodes if n.kind != "source"} == {"general"}
        stubs = [n.id for n in c.nodes if n.meta.get("feedback")]
        good = [
            {"t": ZSet({(1, 5): 1, (2, 3): 2})},
            {"t": ZSet({(1, 7): 1, (2, 3): -1})},
            {"t": ZSet({(1, 5): -1, (2, 9): 3})},
            {"t": ZSet({(2, 3): -1, (1, 2): 1})},
        ]
        for inputs in good[:2]:
            c.step(inputs)
            fresh.step(inputs)
        held = {nid: c._state[nid] for nid in stubs}
        with pytest.raises(TypeMismatchError, match="MAX"):
            c.step({"t": ZSet({(1, "x"): 1, (2, 4): 1})})
        assert stubs and all(c._state[nid] is held[nid] for nid in stubs)
        for t, inputs in enumerate(good[2:]):
            assert as_z(c.step(inputs)["m"]) == as_z(fresh.step(inputs)["m"]), t

    def test_overflow_while_latching_rolls_back_the_traces_latched_before(self):
        # a's trace latches, then b's overflows: a's is rolled back and the
        # integral beside them never latches
        c = Circuit()
        a, b = c.add_source("a"), c.add_source("b")
        c.add_sink(build_inc_join(c, a, b, KeyFunc([0]), KeyFunc([0])), "o")
        c.add_sink(c.add_integrate(a), "ia")
        ticks = [
            {"a": ZSet({(1, 1): 1}), "b": ZSet({(2, 2): 2**62})},
            {"a": ZSet({(3, 3): 1}), "b": ZSet({(2, 2): 2**62})},
            {"a": ZSet({(2, 4): 1}), "b": ZSet({(1, 5): 1})},
        ]
        self._fail_then_match_fresh(c, ticks, 1, WeightOverflowError)

    def test_reset_and_clone_start_empty(self):
        c = _joined()
        want = [as_z(c.step(inputs)["o"]) for inputs in JOIN_TICKS]
        copy = c.clone()
        c.reset()
        assert c._state == {}
        for again in (c, copy):
            assert [as_z(again.step(inputs)["o"]) for inputs in JOIN_TICKS] == want

    @pytest.mark.parametrize(
        "op",
        ["join", "semijoin", "antijoin", "intersect", "cartesian", "stream_join"]
        + ["count", "sum", "avg", "count-ungrouped", "sum-ungrouped", "avg-ungrouped"],
    )
    def test_one_row_tick_work_does_not_grow_with_the_base(self, op):
        assert _one_row_tuples(op, 10**3) == _one_row_tuples(op, 10**4)

    def test_running_totals_roll_back_with_a_failed_tick(self):
        """A tick fails after the SUM operator staged its totals: once in
        another view's zero-weight AVG, during the pass, and once in another
        trace's latch, after the SUM's trace latched.  Both times the state
        is as before the tick, and every later output is that of a run
        without it."""
        q = Circuit()
        t = q.add_source("t")
        q.add_sink(build_aggregate(q, t, "sum", 1, [0]), "s")
        q.add_sink(build_aggregate(q, t, "avg", 1, [0]), "a")
        c = incrementalize_query(q)
        kinds = [n.fn.agg.kind for n in c.nodes if n.label == "aggregate"]
        assert kinds == ["sum", "avg"]  # the SUM runs first
        ticks = [
            {"t": ZSet({(1, 5): 1, (2, 3): 2})},
            {"t": ZSet({(1, 7): 1, (3, 4): 1})},
            {"t": ZSet({(1, 5): 1, (4, 1): 1, (4, 2): -1})},  # AVG of group 4 over zero weight
            {"t": ZSet({(1, 5): -1, (2, 9): 1})},
            {"t": ZSet({(1, 7): -1, (3, 4): -1})},
        ]
        self._fail_then_match_fresh(c, ticks, 2, ValidationError)

        q = Circuit()
        t, u = q.add_source("t"), q.add_source("u")
        q.add_sink(build_aggregate(q, t, "sum", 1, [0]), "s")
        q.add_sink(build_equijoin(q, t, u, KeyFunc([0]), KeyFunc([0])), "j")
        c = incrementalize_query(q)
        ticks = [
            {"t": ZSet({(1, 5): 1, (2, 3): 2}), "u": ZSet({(9, 9): 2**62})},
            {"t": ZSet({(1, 7): 1}), "u": ZSet({(1, 0): 1})},
            {"t": ZSet({(1, 5): 1, (5, 5): 1}), "u": ZSet({(9, 9): 2**62})},  # u's trace overflows
            {"t": ZSet({(1, 5): -1, (2, 9): 1}), "u": ZSet({(2, 1): 1})},
        ]
        self._fail_then_match_fresh(c, ticks, 2, WeightOverflowError)

    def test_trace_read_by_a_sink_or_a_non_probe_is_rejected(self):
        for read in ("sink", "plus"):
            c = Circuit()
            s = c.add_source("s")
            tr = c.add_trace(s, depth=c.level)
            c.add_sink(tr if read == "sink" else c.add_plus([tr]), "o")
            with pytest.raises(CircuitError, match="reads trace" if read == "sink" else "does not probe it"):
                c.step({"s": ZSet()})


def _one_row_tuples(op, base):
    """The `tuples` of a one-row tick after a tick that loads base rows into
    a and, for the keyed joins and intersect, into b: one base row matches
    the tick's row.  An aggregate over a gets the tick's row in a group of
    its own, or in the one group of all of a when it is ungrouped."""
    q = Circuit()
    a, b = q.add_source("a"), q.add_source("b", event=op == "stream_join")
    kind, _, ungrouped = op.partition("-")
    if kind in ("count", "sum", "avg"):
        out = build_aggregate(q, a, kind, 1, None if ungrouped else [0])
    elif op in ("intersect", "cartesian"):
        out = {"intersect": build_intersect, "cartesian": build_cartesian}[op](q, a, b)
    else:
        build = {"join": build_equijoin, "semijoin": build_semijoin, "antijoin": build_antijoin}.get(op)
        out = (build or _stream_join)(q, a, b, KeyFunc([0]), KeyFunc([0]))
    q.add_sink(out, "v")
    c = incrementalize_query(q)
    rows, none = ZSet({(i, i): 1 for i in range(base)}), ZSet()
    c.step({"a": rows, "b": ZSet({(0, 0): 1}) if op in ("cartesian", "stream_join") else rows})
    t0 = c.metrics.tuples
    changes_a = op == "cartesian" or kind in ("count", "sum", "avg")
    c.step({"a": ZSet({(base, 0): 1}), "b": none} if changes_a else {"a": none, "b": ZSet({(7, 7): 1})})
    return c.metrics.tuples - t0


def _stream_join(c, s, t, key_s, key_t):
    """A stream join as a spec reads it: a join over a table and an event
    stream, event-typed, which the rewrite gives a trace of its table side."""
    return c.add_lifted(JoinFn(key_s, key_t, label="stream_join"), [s, t], klass="bilinear", label="stream_join")


class _Probe:
    """A stand-in operator that probes its one argument."""

    arity = 1
    probe_args = (0,)

    def __call__(self, view):
        return ZSet()
