"""Recursive rule programs: stratification, fixpoint circuits, and the
streaming incremental form, all against independent graph oracles."""

import random

import pytest
from deltaflow import (
    Atom,
    CircuitError,
    Circuit,
    NonTerminationError,
    Rule,
    RuleProgram,
    ValidationError,
    ZSet,
    build_incremental_recursive,
    build_naive,
    build_seminaive,
    build_while,
    stratify,
)
from deltaflow.expr import KeyFunc
from deltaflow.relational import build_filter
from deltaflow.rewrite import loop_incrementalize
from oracles import as_z, closure_with_self_loops, zset_of
from test_rule_table import runs_whole


def tc_program():
    return RuleProgram(
        inputs={"E": 2},
        outputs={"R": 2},
        rules=[
            Rule(Atom("R", ("x", "x")), (Atom("E", ("x", "_")),)),
            Rule(Atom("R", ("x", "x")), (Atom("E", ("_", "x")),)),
            Rule(Atom("R", ("x", "y")), (Atom("E", ("x", "y")),)),
            Rule(Atom("R", ("x", "y")), (Atom("E", ("x", "z")), Atom("R", ("z", "y")))),
        ],
    )


def random_edges(rng, n_nodes, n_edges):
    edges = set()
    for _ in range(n_edges):
        a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if a != b:
            edges.add((a, b))
    return edges


class TestStratify:
    def test_closure_single_stratum(self):
        assert stratify(tc_program()) == [["R"]]

    def test_negative_self_dependency_rejected(self):
        p = RuleProgram(
            inputs={"I": 1},
            outputs={"O": 1},
            rules=[Rule(Atom("O", ("v",)), (Atom("I", ("v",)), Atom("O", ("v",), negated=True)))],
        )
        with pytest.raises(ValidationError):
            stratify(p)

    def test_negation_across_relations_two_strata(self):
        p = RuleProgram(
            inputs={"I": 1},
            outputs={"A": 1, "B": 1},
            rules=[
                Rule(Atom("A", ("v",)), (Atom("I", ("v",)),)),
                Rule(Atom("B", ("v",)), (Atom("I", ("v",)), Atom("A", ("v",), negated=True))),
            ],
        )
        assert stratify(p) == [["A"], ["B"]]

    def test_mutual_recursion_one_unit(self):
        p = RuleProgram(
            inputs={"E": 2},
            outputs={"P": 2, "Q": 2},
            rules=[
                Rule(Atom("P", ("x", "y")), (Atom("E", ("x", "y")),)),
                Rule(Atom("P", ("x", "y")), (Atom("E", ("x", "z")), Atom("Q", ("z", "y")))),
                Rule(Atom("Q", ("x", "y")), (Atom("P", ("x", "y")),)),
            ],
        )
        assert stratify(p) == [["P", "Q"]]

    def test_safety_violations(self):
        with pytest.raises(ValidationError):
            RuleProgram(
                inputs={"E": 2}, outputs={"R": 1}, rules=[Rule(Atom("R", ("q",)), (Atom("E", ("x", "y")),))]
            ).validate()
        with pytest.raises(ValidationError):
            RuleProgram(
                inputs={"E": 1},
                outputs={"R": 1},
                rules=[Rule(Atom("R", ("x",)), (Atom("E", ("x",)), Atom("E", ("y",), negated=True)))],
            ).validate()
        with pytest.raises(ValidationError):
            RuleProgram(inputs={"E": 2}, outputs={"R": 2}, rules=[]).validate()


class TestFixpointCircuits:
    def test_known_graph(self):
        edges = {(1, 2), (2, 3)}
        want = zset_of(closure_with_self_loops(edges))
        assert want == zset_of({(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3)})
        for build in (build_naive, build_seminaive):
            c = build(tc_program())
            assert as_z(c.step({"E": zset_of(edges)})["R"]) == want

    def test_empty_graph(self):
        for build in (build_naive, build_seminaive):
            c = build(tc_program())
            assert as_z(c.step({"E": ZSet()})["R"]).is_zero()

    def test_chain_iteration_count(self):
        # 5-edge chain: fixpoint within diameter + 1 inner iterations
        edges = {(i, i + 1) for i in range(5)}
        for build in (build_naive, build_seminaive):
            c = build(tc_program())
            c.step({"E": zset_of(edges)})
            assert c.metrics.iterations <= 6

    def test_seminaive_bodies_hold_no_unread_node(self):
        """The semi-naive body drops what its walk leaves unread: the delays
        of the entry's I and the loop's D, whose plus nodes the bracket row
        replaced by their inputs.  So do the loop-incrementalized bodies of
        every while-loop."""
        bodies = [n.meta["inner"] for n in build_seminaive(tc_program()).nodes if n.kind == "nested"]
        for make in _WHILE_BODIES.values():
            (block,) = [n for n in build_while(make()).nodes if n.kind == "nested"]
            bodies.append(loop_incrementalize(block.meta["inner"]))
        for body in bodies:
            read = {i for n in body.nodes for i in n.inputs} | {body.sum_id}
            assert [n for n in body.nodes if n.id not in read] == []

    def test_nested_bodies_count_on_the_parents_metrics(self):
        def bodies(c):
            for n in c.nodes:
                if n.kind == "nested":
                    yield n.meta["inner"]
                    yield from bodies(n.meta["inner"])

        edges = {(i, i + 1) for i in range(5)}
        for build in (build_naive, build_seminaive):
            c = build(tc_program())
            assert list(bodies(c)) and all(b.metrics is c.metrics for b in bodies(c))
            c.step({"E": zset_of(edges)})
            # semi-naive: the parent's own 104 tuples plus its loop body's 320,
            # and 139 rows that plus nodes clone (1478 + 292 for naive)
            assert c.metrics.tuples == {build_naive: 1770, build_seminaive: 563}[build]

    def test_random_graphs_match_oracle(self):
        rng = random.Random(100)
        naive = build_naive(tc_program())
        semi = build_seminaive(tc_program())
        for _ in range(100):
            edges = random_edges(rng, rng.randrange(2, 13), rng.randrange(0, 20))
            want = zset_of(closure_with_self_loops(edges))
            got_n = as_z(naive.step({"E": zset_of(edges)})["R"])
            got_s = as_z(semi.step({"E": zset_of(edges)})["R"])
            assert got_n == want
            assert got_s == want

    def test_monotone_inner_stream(self):
        # the distinct-output iterates grow monotonically to the fixpoint
        c = build_naive(tc_program())
        blk = next(n.id for n in c.nodes if n.kind == "nested")
        inner = c.nodes[blk].meta["inner"]
        sum_in = inner.nodes[inner.sum_id].inputs[0]  # loop differentiate
        o_node = inner.nodes[sum_in].inputs[0]  # packed distinct output
        c.probe_nested(blk, o_node)
        edges = {(0, 1), (1, 2), (2, 3)}
        c.step({"E": zset_of(edges)})
        vals = [as_z(v) for v in c.nested_probe_values(blk)]
        assert len(vals) >= 3
        from deltaflow import is_positive

        for prev, cur in zip(vals, vals[1:]):
            assert is_positive(cur - prev)  # monotone
        assert vals[-1] == vals[-2]  # converged

    def test_iteration_cap(self):
        # ever-growing integer domain: hits the cap
        p = RuleProgram(
            inputs={"E": 1},
            outputs={"N": 1},
            rules=[
                Rule(Atom("N", ("x",)), (Atom("E", ("x",)),)),
            ],
        )
        # build a growing program via arithmetic in a while loop instead
        inner = Circuit()
        s = inner.add_source("x")
        from deltaflow.expr import BinOp, Col, Const, MapFunc
        from deltaflow.relational import build_map, build_union

        grown = build_map(inner, s, MapFunc([BinOp("+", Col(0), Const(1))]))
        inner.add_sink(build_union(inner, s, grown), "x")
        w = build_while(inner, cap=100)
        with pytest.raises(NonTerminationError):
            w.step({"x": ZSet({(0,): 1})})


class TestIncrementalRecursive:
    def test_insertions_then_more(self):
        c = build_incremental_recursive(tc_program())
        out0 = as_z(c.step({"E": zset_of({(1, 2), (2, 3)})})["R"])
        assert out0 == zset_of(closure_with_self_loops({(1, 2), (2, 3)}))
        out1 = as_z(c.step({"E": zset_of({(3, 4)})})["R"])
        for t in ((1, 4), (2, 4), (3, 4), (4, 4)):
            assert out1[t] == 1

    def test_empty_transaction_is_silent(self):
        c = build_incremental_recursive(tc_program())
        c.step({"E": zset_of({(1, 2), (2, 3)})})
        assert as_z(c.step({"E": ZSet()})["R"]).is_zero()

    def test_deletion_retracts(self):
        c = build_incremental_recursive(tc_program())
        c.step({"E": zset_of({(1, 2), (2, 3)})})
        out = as_z(c.step({"E": ZSet({(2, 3): -1})})["R"])
        assert out[(1, 3)] == -1
        assert out[(2, 3)] == -1

    def test_random_traces_match_oracle(self):
        rng = random.Random(77)
        c = build_incremental_recursive(tc_program())
        for _ in range(50):
            c.reset()
            cur, acc = set(), ZSet()
            for _tick in range(5):
                ins = random_edges(rng, 7, rng.randrange(0, 4)) - cur
                dels = {e for e in cur if rng.random() < 0.3}
                delta = ZSet([(e, 1) for e in ins] + [(e, -1) for e in dels])
                cur = (cur | ins) - dels
                acc = acc + as_z(c.step({"E": delta})["R"])
                assert acc == zset_of(closure_with_self_loops(cur))

    def test_work_scales_with_delta(self):
        # one new edge on a bigger graph touches far fewer tuples than a rerun
        rng = random.Random(8)
        edges = random_edges(rng, 60, 70)
        fresh = next(iter(random_edges(rng, 60, 200) - edges))
        inc = build_incremental_recursive(tc_program())
        inc.step({"E": zset_of(edges)})
        t0 = inc.metrics.tuples
        inc.step({"E": zset_of({fresh})})
        inc_cost = inc.metrics.tuples - t0

        ref = build_seminaive(tc_program())
        ref.step({"E": zset_of(edges)})
        r0 = ref.metrics.tuples
        ref.step({"E": zset_of(edges | {fresh})})
        ref_cost = ref.metrics.tuples - r0
        assert inc_cost < ref_cost


class TestStratifiedNegation:
    def test_antijoin_semantics(self):
        p = RuleProgram(
            inputs={"I1": 2, "I2": 1},
            outputs={"O": 2},
            rules=[Rule(Atom("O", ("v", "z")), (Atom("I1", ("v", "z")), Atom("I2", ("v",), negated=True)))],
        )
        c = build_seminaive(p)
        out = as_z(c.step({"I1": zset_of({(1, 2), (3, 4)}), "I2": zset_of({(1,)})})["O"])
        assert out == zset_of({(3, 4)})

    def test_unreachable(self):
        # pairs (s, t) where t is NOT reachable from s
        p = RuleProgram(
            inputs={"E": 2},
            outputs={
                "R": 2,
                "node": 1,
                "U": 2,
            },
            rules=[
                Rule(Atom("node", ("x",)), (Atom("E", ("x", "_")),)),
                Rule(Atom("node", ("x",)), (Atom("E", ("_", "x")),)),
                Rule(Atom("R", ("x", "y")), (Atom("E", ("x", "y")),)),
                Rule(Atom("R", ("x", "y")), (Atom("E", ("x", "z")), Atom("R", ("z", "y")))),
                Rule(
                    Atom("U", ("x", "y")),
                    (Atom("node", ("x",)), Atom("node", ("y",)), Atom("R", ("x", "y"), negated=True)),
                ),
            ],
        )
        rng = random.Random(4)
        c = build_seminaive(p)
        for _ in range(20):
            edges = random_edges(rng, 6, rng.randrange(0, 9))
            nodes = {a for a, _ in edges} | {b for _, b in edges}
            reach = closure_with_self_loops(edges) - {(x, x) for x in nodes}
            reach |= {(a, b) for (a, b) in closure_with_self_loops(edges) if a != b}
            full_reach = set()
            # oracle: pairs reachable by >=1 edge path
            adj = {}
            for a, b in edges:
                adj.setdefault(a, set()).add(b)
            for s in nodes:
                seen, stack = set(), [s]
                while stack:
                    v = stack.pop()
                    for w in adj.get(v, ()):
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                full_reach |= {(s, t) for t in seen}
            want = {(x, y) for x in nodes for y in nodes if (x, y) not in full_reach}
            got = as_z(c.step({"E": zset_of(edges)})["U"])
            assert got == zset_of(want)


class TestMutualRecursion:
    def test_even_odd_paths(self):
        # distance-parity reachability via two mutually recursive relations
        p = RuleProgram(
            inputs={"E": 2},
            outputs={"Ev": 2, "Od": 2},
            rules=[
                Rule(Atom("Od", ("x", "y")), (Atom("E", ("x", "y")),)),
                Rule(Atom("Od", ("x", "y")), (Atom("E", ("x", "z")), Atom("Ev", ("z", "y")))),
                Rule(Atom("Ev", ("x", "y")), (Atom("E", ("x", "z")), Atom("Od", ("z", "y")))),
            ],
        )
        rng = random.Random(13)
        semi = build_seminaive(p)
        inc = build_incremental_recursive(p)

        def oracle(edges):
            odd, even = set(edges), set()
            changed = True
            while changed:
                changed = False
                for a, b in edges:
                    for (s, t) in list(odd):
                        if s == b and (a, t) not in even:
                            even.add((a, t))
                            changed = True
                    for (s, t) in list(even):
                        if s == b and (a, t) not in odd:
                            odd.add((a, t))
                            changed = True
            return odd, even

        for _ in range(15):
            edges = random_edges(rng, 5, rng.randrange(0, 7))
            odd, even = oracle(edges)
            out = semi.step({"E": zset_of(edges)})
            assert as_z(out["Od"]) == zset_of(odd)
            assert as_z(out["Ev"]) == zset_of(even)

        inc_acc_od, inc_acc_ev, cur = ZSet(), ZSet(), set()
        for _ in range(6):
            ins = random_edges(rng, 5, rng.randrange(0, 3)) - cur
            dels = {e for e in cur if rng.random() < 0.3}
            cur = (cur | ins) - dels
            out = inc.step({"E": ZSet([(e, 1) for e in ins] + [(e, -1) for e in dels])})
            inc_acc_od = inc_acc_od + as_z(out["Od"])
            inc_acc_ev = inc_acc_ev + as_z(out["Ev"])
            odd, even = oracle(cur)
            assert inc_acc_od == zset_of(odd)
            assert inc_acc_ev == zset_of(even)


class TestWhile:
    def _growing_query(self):
        # Q(x) = x union (successors of x capped below 4)
        from deltaflow.expr import BinOp, Col, Const, MapFunc
        from deltaflow.relational import build_map, build_union

        q = Circuit()
        s = q.add_source("x")
        nxt = build_map(q, s, MapFunc([BinOp("+", Col(0), Const(1))]))
        capped = build_filter(q, nxt, BinOp("<", Col(0), Const(4)))
        q.add_sink(build_union(q, s, capped), "x")
        return q

    def test_identity_body(self):
        q = Circuit()
        s = q.add_source("x")
        q.add_sink(q.add_lifted(_ident(), [s]), "x")
        w = build_while(q)
        z = ZSet({(1,): 1})
        assert as_z(w.step({"x": z})["x"]) == z
        assert w.metrics.iterations == 2  # value, then the terminating zero change

    def test_closure_style_fixpoint(self):
        w = build_while(self._growing_query())
        out = as_z(w.step({"x": ZSet({(0,): 1})})["x"])
        assert out == zset_of({(0,), (1,), (2,), (3,)})

    def test_incremental_while(self):
        from deltaflow import incrementalize_query

        w = build_while(self._growing_query())
        inc = incrementalize_query(build_while(self._growing_query()))
        acc = ZSet()
        snapshots = [ZSet({(0,): 1}), ZSet({(0,): 1, (2,): 1}), ZSet({(2,): 1})]
        prev = ZSet()
        for snap in snapshots:
            delta = snap - prev
            prev = snap
            acc = acc + as_z(inc.step({"x": delta})["x"])
            w2 = build_while(self._growing_query())
            assert acc == as_z(w2.step({"x": snap})["x"])

    def test_incremental_while_with_a_join(self):
        """A join in a while-loop body keeps one two-axis trace per side on
        the parent clock, read at slot u by the one probing join."""
        from deltaflow import incrementalize_query
        from deltaflow.relational import IncJoinFn, build_equijoin, build_projection, build_union

        def closure_body():
            q = Circuit()
            s = q.add_source("x")
            hops = build_projection(q, build_equijoin(q, s, s, KeyFunc([1]), KeyFunc([0])), [0, 3])
            q.add_sink(build_union(q, s, hops), "x")
            return q

        inc = incrementalize_query(build_while(closure_body()))
        inner = next(n.meta["inner"] for n in inc.nodes if n.kind == "nested")
        joins = [n for n in inner.nodes if isinstance(n.fn, IncJoinFn)]
        assert len(joins) == 1
        assert all(inner.nodes[i].kind == "trace" and inner.nodes[i].depth == inner.level - 1 for i in joins[0].inputs)
        rng = random.Random(23)
        prev = ZSet()
        for _ in range(12):
            snap = zset_of(random_edges(rng, 5, rng.randrange(1, 8)))
            got = as_z(inc.step({"x": snap - prev})["x"])
            want = as_z(build_while(closure_body()).step({"x": snap})["x"]) - as_z(
                build_while(closure_body()).step({"x": prev})["x"]
            )
            assert got == want
            prev = snap

    def test_closure_step_body_matches_recursive_builder(self):
        # Q(x) = distinct(x + base + joins through a captured edge set):
        # iterating it reaches the same fixpoint the rule compiler computes
        rng = random.Random(17)
        for _ in range(10):
            edges = random_edges(rng, 6, rng.randrange(1, 10))
            E = zset_of(edges)

            def step_fn(x, _E=E):
                from deltaflow.groupval import as_zset
                from deltaflow.relational import JoinFn, project_fn
                from deltaflow.zset import distinct as _distinct
                from deltaflow.expr import KeyFunc

                x = as_zset(x)
                touched = {v for e, _ in _E.raw_items() for v in e}
                base = ZSet({(v, v): 1 for v in touched})
                hops = project_fn([0, 3])(JoinFn(KeyFunc([1]), KeyFunc([0]))(_E, x))
                return _distinct(x + _E + base + hops)

            step_fn.arity = 1
            q = Circuit()
            s = q.add_source("x")
            q.add_sink(q.add_lifted(step_fn, [s]), "x")
            w = build_while(q)
            got = as_z(w.step({"x": ZSet()})["x"])
            want = as_z(build_naive(tc_program()).step({"E": E})["R"])
            assert got == want

    @pytest.mark.parametrize(
        "body, snapshots",
        [
            # a tick that runs past every earlier one: (4,) and (5,) once only
            ("successors", [{(4,)}, {(0,), (4,)}]),
            # 9 rows at the third tick, 3 of them emitted before, at the parent
            ("closure", [{(2, 3)}, {(2, 3), (3, 1)}, {(2, 3), (3, 1), (1, 2)}]),
            # the aggregate's parent-clock integral read as zero past the
            # earlier runs: MIN over a negative Z-set raised
            ("min", [{(2,)}, {(6,)}]),
        ],
        ids=["successors", "closure", "min"],
    )
    def test_incremental_while_runs_past_earlier_ticks(self, body, snapshots):
        assert _while_mismatch(_WHILE_BODIES[body], [zset_of(s) for s in snapshots]) is None

    @pytest.mark.parametrize("body", ["successors", "closure", "grouped_min", "grouped_count", "joined_count"])
    def test_incremental_while_matches_snapshots(self, body):
        """Random snapshots, with rows both added and removed, against the
        difference of two non-incremental loops at every tick."""
        rng = random.Random(41)
        rows = _WHILE_ROWS[body]
        for _ in range(40):
            snapshots = [zset_of(rows(rng)) for _ in range(6)]
            assert _while_mismatch(_WHILE_BODIES[body], snapshots) is None, snapshots

    def test_plain_join_in_a_nested_body_takes_the_general_rule(self):
        """A nested body whose loop is not incrementalized first (no "i"
        bracket) carries snapshots along its loop clock, so its join and
        distinct have no trace form: the whole domain runs over the integral
        of its input, as in the reference, and matches it tick for tick."""
        from deltaflow.relational import build_distinct, build_equijoin, build_projection
        from deltaflow.rewrite import compile_query

        # R := distinct(E + project[0, 3](R join E on R.1 = E.0)), where E,
        # the unmarked integral of the entry, is the snapshot at every u
        c = Circuit()
        block, inner = c.add_nested(c.add_source("x"))
        e = inner.add_integrate(inner.add_delta0())
        fb = inner.add_feedback(depth=inner.level)
        hops = build_projection(inner, build_equijoin(inner, fb, e, KeyFunc([1]), KeyFunc([0])), [0, 3])
        r = build_distinct(inner, inner.add_plus([e, hops]))
        inner.connect_feedback(r, fb)
        inner.add_stream_sum(inner.add_differentiate(r), max_iterations=50)
        c.add_sink(block, "x")
        reference, inc = compile_query(c)
        assert runs_whole(inc)
        rng = random.Random(23)
        prev = ZSet()
        for t in range(12):
            snap = zset_of(random_edges(rng, 5, rng.randrange(1, 7)))
            delta = snap - prev
            got, want = inc.step({"x": delta})["x"], reference.step({"x": delta})["x"]
            assert as_z(got) == as_z(want), t
            prev = snap

    def test_body_must_be_stateless(self):
        from deltaflow.relational import AggregateFn, build_inc_aggregate

        # an integral, and an own-clock trace probed by an incremental COUNT
        for stateful in (Circuit.add_integrate, lambda q, s: build_inc_aggregate(q, s, AggregateFn("count"))):
            q = Circuit()
            s = q.add_source("x")
            q.add_sink(stateful(q, s), "x")
            with pytest.raises(CircuitError, match="stateless"):
                build_while(q)


def _ident():
    fn = lambda x: x
    fn.arity = 1
    return fn


def _successors_below_6():
    # Q(x) = x union {v + 1 : v + 1 < 6}
    from deltaflow.expr import BinOp, Col, Const, MapFunc
    from deltaflow.relational import build_map, build_union

    q = Circuit()
    s = q.add_source("x")
    nxt = build_map(q, s, MapFunc([BinOp("+", Col(0), Const(1))]))
    q.add_sink(build_union(q, s, build_filter(q, nxt, BinOp("<", Col(0), Const(6)))), "x")
    return q


def _closure_body():
    # Q(x) = x union project[0, 3](x join x on x.1 = x.0)
    from deltaflow.relational import build_equijoin, build_projection, build_union

    q = Circuit()
    s = q.add_source("x")
    hops = build_projection(q, build_equijoin(q, s, s, KeyFunc([1]), KeyFunc([0])), [0, 3])
    q.add_sink(build_union(q, s, hops), "x")
    return q


def _aggregate_body(kind, group):
    """Q(x) = x union the rows an aggregate of x feeds back: MIN(x) - 1 while
    it is >= 0, or with group [0], (g, MIN - 1) the same way or (g, COUNT)
    while the count is below 5."""
    from deltaflow.expr import BinOp, Col, Const, MapFunc
    from deltaflow.relational import build_aggregate, build_map, build_union

    def build():
        q = Circuit()
        s = q.add_source("x")
        a = build_aggregate(q, s, kind, 1 if group else 0, group)
        v = Col(1 if group else 0)
        if kind == "min":
            a = build_map(q, a, MapFunc(([Col(0)] if group else []) + [BinOp("-", v, Const(1))]))
            keep = BinOp(">=", v, Const(0))
        else:
            keep = BinOp("<", v, Const(5))
        q.add_sink(build_union(q, s, build_filter(q, a, keep)), "x")
        return q

    return build


def _joined_count_body():
    # Q(x) = x union (g, COUNT) of project[0, 3](x join x on x.0 = x.0)
    # while the count is below 5: a map folded into a join, then aggregated
    from deltaflow.expr import BinOp, Col, Const
    from deltaflow.relational import build_aggregate, build_equijoin, build_projection, build_union

    q = Circuit()
    s = q.add_source("x")
    pairs = build_projection(q, build_equijoin(q, s, s, KeyFunc([0]), KeyFunc([0])), [0, 3])
    counts = build_aggregate(q, pairs, "count", 1, [0])
    q.add_sink(build_union(q, s, build_filter(q, counts, BinOp("<", Col(1), Const(5)))), "x")
    return q


_WHILE_BODIES = {
    "successors": _successors_below_6,
    "closure": _closure_body,
    "joined_count": _joined_count_body,
    "min": _aggregate_body("min", None),
    "grouped_min": _aggregate_body("min", [0]),
    "grouped_count": _aggregate_body("count", [0]),
}

_WHILE_ROWS = {
    "successors": lambda rng: {(rng.randrange(6),) for _ in range(rng.randrange(3))},
    "closure": lambda rng: random_edges(rng, 5, rng.randrange(1, 6)),
    "grouped_min": lambda rng: {(rng.randrange(3), rng.randrange(5)) for _ in range(rng.randrange(3))},
    "grouped_count": lambda rng: {(rng.randrange(3), rng.randrange(5)) for _ in range(rng.randrange(3))},
    "joined_count": lambda rng: {(rng.randrange(3), rng.randrange(5)) for _ in range(rng.randrange(3))},
}


def _while_mismatch(body, snapshots):
    """The first tick at which the incremental while-loop over body emits
    other than the difference of the non-incremental loop's results on this
    snapshot and the one before, as (tick, got, want); None if none does."""
    from deltaflow import incrementalize_query

    inc = incrementalize_query(build_while(body()))
    prev = ZSet()
    for t, snap in enumerate(snapshots):
        got = as_z(inc.step({"x": snap - prev})["x"])
        want = as_z(build_while(body()).step({"x": snap})["x"]) - as_z(build_while(body()).step({"x": prev})["x"])
        if got != want:
            return t, got, want
        prev = snap
    return None
