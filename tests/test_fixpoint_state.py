"""Parent-clock state of incremental fixpoints: the two-axis traces behind
nested joins and nested distinct, the run-length floor, and the rollback of
a parent tick that fails."""

import random

import pytest
from deltaflow import Circuit, CircuitError, NonTerminationError, ZSet
from deltaflow.datalog import build_while
from deltaflow.errors import WeightOverflowError
from deltaflow.expr import BinOp, Col, Const, MapFunc
from deltaflow.groupval import ZERO
from deltaflow.relational import JoinFn, NestedJoinFn, build_filter, build_map, build_union
from deltaflow.rewrite import incrementalize_query
from deltaflow.runner import _closure_spec, compile_circuits, run_trace
from deltaflow.specfile import compile_spec
from deltaflow.trace import Transaction
from deltaflow.zset import Trace
from oracles import as_z


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

    def test_parent_clock_slots_are_restored(self):
        """A while-loop body keeps its node state at (nid, u) slots on the
        parent clock, not in traces: a cut tick restores those too."""

        def growing():
            # Q(x) = x union (successors of x below 6)
            q = Circuit()
            s = q.add_source("x")
            nxt = build_map(q, s, MapFunc([BinOp("+", Col(0), Const(1))]))
            q.add_sink(build_union(q, s, build_filter(q, nxt, BinOp("<", Col(0), Const(6)))), "x")
            return q

        fresh, c = incrementalize_query(build_while(growing())), incrementalize_query(build_while(growing()))
        ticks = [{(0,): 1}, {(3,): 1}, {(0,): -1}, {(1,): 1, (4,): 2}, {(3,): -1}, {(0,): 1}]
        for t, rows in enumerate(ticks):
            inputs = {"x": ZSet(rows)}
            if t in (2, 4):
                before = _plain(c._state)
                _set_cap(c, 2)
                with pytest.raises(NonTerminationError):
                    c.step(inputs)
                _set_cap(c, None)
                assert _plain(c._state) == before, t
            assert as_z(c.step(inputs)["x"]) == as_z(fresh.step(inputs)["x"]), t


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
        cs = compile_circuits(compile_spec(RUN_LENGTH_DOC), "compare")
        report = run_trace(cs, RUN_LENGTH_TRACE, "compare")
        assert report.verdict == {"equal": True}
        runs = [m["reference_iterations"] for m in report.metrics]
        # the trace keeps its shape: tick 1 runs longest, later ticks shorter
        assert runs[1] > max(runs[0], *runs[2:]), runs
        assert min(runs[2:]) < runs[1], runs
        # the incremental circuit never runs shorter than its longest run
        inc = [m["iterations"] for m in report.metrics]
        assert all(n >= runs[1] for n in inc[1:]), inc

    def test_nested_state_is_traces_only(self):
        """Nested joins and distinct keep their state in two-axis traces:
        no integrate, delay or differentiate runs on the parent clock."""
        c = compile_circuits(compile_spec(RUN_LENGTH_DOC), "incremental").incremental
        state = ("integrate", "delay", "differentiate", "trace")
        counts = []
        for inner in [n.meta["inner"] for n in c.nodes if n.kind == "nested"]:
            parent = [n for n in inner.nodes if n.kind in state and n.depth == inner.level - 1]
            assert {n.kind for n in parent} == {"trace"}
            counts.append(len(parent))
        # P: a join and the antijoin's semijoin with two traces each, and the
        # antijoin's and the rules' distinct with one; Q: a join and a distinct
        assert sorted(counts) == [3, 6]


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
        j = inner.add_lifted(NestedJoinFn(fn, 3), [ta, tb], label="join")
        inner.add_stream_sum(j)
        c.add_sink(blk, "o")
        # A(<=t, <=0) * b at (0, 0) is the entry joined with itself
        assert as_z(c.step({"s": ZSet({1: 1})})["o"]) == ZSet({(1, 1): 1})

    def test_trace_on_its_own_clock_is_rejected(self):
        c, blk, inner, e = self._domain()
        tr = inner.add_trace(e, depth=inner.level)
        inner.add_stream_sum(e)
        inner.add_lifted(_Probe(), [tr])
        c.add_sink(blk, "o")
        with pytest.raises(CircuitError, match="parent clock"):
            c.step({"s": ZSet()})


class _Probe:
    """A stand-in operator that probes its one argument."""

    arity = 1
    probe_args = (0,)

    def __call__(self, view):
        return ZSet()
