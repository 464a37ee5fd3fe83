"""Circuit runtime: stream operator semantics, feedback, nested domains."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row_elements, zsets
from deltaflow import Circuit, CircuitError, NonTerminationError, StreamVector, ValidationError, ZSet, lift_circuit
from deltaflow.circuit import LINEAR
from deltaflow.groupval import ZERO, gv_eq, gv_is_zero
from deltaflow.relational import DistinctDeltaFn, FilterFn, IncJoinFn, MapFn
from deltaflow.runner import _closure_spec, compile_circuits
from oracles import as_z, list_differentiate, list_integrate


def id_stream(n=5):
    return list(range(n))


def run_unary(build, inputs):
    c = Circuit()
    s = c.add_source("s", sort="any")
    c.add_sink(build(c, s), "o")
    return [c.step({"s": x})["o"] for x in inputs]


class Doubler:
    arity = 1

    def __call__(self, x):
        return 2 * x


class TestStreamGoldens:
    def test_integrate_id(self):
        assert run_unary(lambda c, s: c.add_integrate(s), id_stream()) == [0, 1, 3, 6, 10]

    def test_differentiate_id(self):
        assert run_unary(lambda c, s: c.add_differentiate(s), id_stream()) == [0, 1, 1, 1, 1]

    def test_delay_id(self):
        assert run_unary(lambda c, s: c.add_delay(s), id_stream()) == [0, 0, 1, 2, 3]

    def test_lifted_double(self):
        assert run_unary(lambda c, s: c.add_lifted(Doubler(), [s], klass=LINEAR), id_stream()) == [0, 2, 4, 6, 8]

    def test_lift_identity(self):
        ident = lambda x: x
        ident.arity = 1
        assert run_unary(lambda c, s: c.add_lifted(ident, [s]), id_stream()) == id_stream()

    def test_delay_impulse(self):
        assert run_unary(lambda c, s: c.add_delay(s), [5, 0, 0, 0]) == [0, 5, 0, 0]

    def test_delay_zero_stream(self):
        outs = run_unary(lambda c, s: c.add_delay(s), [ZSet()] * 4)
        assert all(as_z(o).is_zero() for o in outs)

    def test_lifted_pointwise_zset_add(self):
        addfn = lambda a, b: as_z(a) + as_z(b)
        addfn.arity = 2
        c = Circuit()
        a = c.add_source("a")
        b = c.add_source("b")
        c.add_sink(c.add_lifted(addfn, [a, b], klass=LINEAR), "o")
        xs = [ZSet({"p": 1}), ZSet({"q": -2})]
        ys = [ZSet({"p": 2}), ZSet({"q": 2})]
        outs = [c.step({"a": x, "b": y})["o"] for x, y in zip(xs, ys)]
        assert outs[0] == ZSet({"p": 3})
        assert outs[1].is_zero()


class TestFeedback:
    def test_integrator_loop(self):
        c = Circuit()
        s = c.add_source("s", sort="any")
        fb = c.add_feedback()
        p = c.add_plus([s, fb])
        c.connect_feedback(p, fb)
        c.add_sink(p, "o")
        assert [c.step({"s": t})["o"] for t in id_stream()] == [0, 1, 3, 6, 10]

    def test_cycle_only_through_a_feedback_stub(self):
        """A cycle closes only through a feedback stub, a delay: closing
        one through any other node is rejected."""
        c = Circuit()
        s = c.add_source("s", sort="any")
        p = c.add_plus([s])
        q = c.add_plus([p])
        with pytest.raises(CircuitError, match="is not a feedback stub"):
            c.connect_feedback(q, p)

    def test_feedback_through_lifted_delay_in_nested_domain(self):
        c = Circuit()
        s = c.add_source("s", sort="any")
        blk, inner = c.add_nested(s)
        e = inner.add_delta0()
        fb = inner.add_feedback(depth=inner.level)
        p = inner.add_plus([e, fb])
        inner.connect_feedback(p, fb)
        inner.add_stream_sum(p, max_iterations=64)
        c.add_sink(blk, "o")
        # the loop replays the entry forever; cap triggers
        with pytest.raises(NonTerminationError):
            c.step({"s": 1})

    def test_unconnected_stub_rejected(self):
        c = Circuit()
        s = c.add_source("s", sort="any")
        fb = c.add_feedback()
        c.add_sink(c.add_plus([s, fb]), "o")
        with pytest.raises(CircuitError):
            c.step({"s": 1})

    def test_determinism(self):
        def build():
            c = Circuit()
            s = c.add_source("s")
            fb = c.add_feedback()
            p = c.add_plus([s, fb])
            c.connect_feedback(p, fb)
            c.add_sink(p, "o")
            return c

        trace = [ZSet({("a", i % 3): 1}) for i in range(6)]
        c = build()
        first = [as_z(c.step({"s": x})["o"]) for x in trace]
        c.reset()
        second = [as_z(c.step({"s": x})["o"]) for x in trace]
        c2 = build()
        third = [as_z(c2.step({"s": x})["o"]) for x in trace]
        assert first == second == third


class TestConstructionErrors:
    def test_duplicate_source(self):
        c = Circuit()
        c.add_source("E")
        with pytest.raises(CircuitError):
            c.add_source("E")

    def test_sink_on_missing_node(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.add_sink(7, "o")

    def test_duplicate_sink(self):
        c = Circuit()
        s = c.add_source("E")
        c.add_sink(s, "o")
        with pytest.raises(CircuitError):
            c.add_sink(s, "o")

    def test_arity_mismatch(self):
        c = Circuit()
        s = c.add_source("E")
        with pytest.raises(CircuitError):
            c.add_lifted(Doubler(), [s, s])

    def test_missing_input(self):
        c = Circuit()
        c.add_source("E")
        with pytest.raises(ValidationError):
            c.step({})

    def test_wrong_typed_input(self):
        c = Circuit()
        s = c.add_source("E")
        c.add_sink(s, "o")
        with pytest.raises(ValidationError):
            c.step({"E": 3})

    def test_delta0_outside_nested_domain(self):
        c = Circuit()
        with pytest.raises(CircuitError):
            c.add_delta0()
        with pytest.raises(CircuitError):
            c.add_stream_sum(0)


class TestNestedDomains:
    def test_delta0_impulse(self):
        # delta0(5) emits the value once, zero afterwards
        c = Circuit()
        s = c.add_source("s", sort="any")
        blk, inner = c.add_nested(s)
        e = inner.add_delta0()
        inner.add_stream_sum(e)
        c.probe_nested(blk, e)
        c.add_sink(blk, "o")
        assert c.step({"s": 5})["o"] == 5
        assert c.nested_probe_values(blk) == [5, 0]  # terminating zero observed

    def test_sum_of_delta0_is_identity(self):
        c = Circuit()
        s = c.add_source("s", sort="any")
        blk, inner = c.add_nested(s)
        e = inner.add_delta0()
        inner.add_stream_sum(e)
        c.add_sink(blk, "o")
        for v in (5, 0, 7):
            assert c.step({"s": v})["o"] == v
        c2 = Circuit()
        s2 = c2.add_source("s")
        blk2, inner2 = c2.add_nested(s2)
        inner2.add_stream_sum(inner2.add_delta0())
        c2.add_sink(blk2, "o")
        z = ZSet({"a": 1})
        assert c2.step({"s": z})["o"] == z

    def test_zero_input_one_iteration(self):
        c = Circuit()
        s = c.add_source("s")
        blk, inner = c.add_nested(s)
        inner.add_stream_sum(inner.add_delta0())
        c.add_sink(blk, "o")
        c.step({"s": ZSet()})
        assert c.metrics.iterations == 1

    def test_finite_sum(self):
        # inner stream [3,2,0,...] built from one entry: 3*e + shift(2*e)
        c = Circuit()
        s = c.add_source("s", sort="any")
        blk, inner = c.add_nested(s)
        e = inner.add_delta0()
        three = inner.add_lifted(_scale(3), [e], klass=LINEAR)
        two = inner.add_lifted(_scale(2), [e], klass=LINEAR)
        shifted = inner.add_delay(two, depth=inner.level)
        inner.add_stream_sum(inner.add_plus([three, shifted]))
        c.add_sink(blk, "o")
        assert c.step({"s": 1})["o"] == 5
        assert c.metrics.iterations == 3  # 3, 2, then the terminating zero

    def test_iteration_cap_exceeded(self):
        c = Circuit()
        s = c.add_source("s", sort="any")
        blk, inner = c.add_nested(s)
        e = inner.add_delta0()
        fb = inner.add_feedback(depth=inner.level)
        p = inner.add_plus([e, fb])
        inner.connect_feedback(p, fb)
        inner.add_stream_sum(p, max_iterations=100)
        c.add_sink(blk, "o")
        with pytest.raises(NonTerminationError):
            c.step({"s": 1})

    def test_boundary_invariants_enforced(self):
        c = Circuit()
        s = c.add_source("s")
        blk, inner = c.add_nested(s)
        with pytest.raises(CircuitError):
            c.step({"s": ZSet()})  # no delta0/sum yet
        e = inner.add_delta0()
        with pytest.raises(CircuitError):
            inner.add_delta0()
        inner.add_stream_sum(e)
        with pytest.raises(CircuitError):
            inner.add_stream_sum(e)

    def test_zero_preservation_of_bracketed_domain(self):
        # time-invariant inner body => zero in, zero out
        c = Circuit()
        s = c.add_source("s")
        blk, inner = c.add_nested(s)
        e = inner.add_delta0()
        d = inner.add_differentiate(e, depth=inner.level)
        inner.add_stream_sum(d)
        c.add_sink(blk, "o")
        assert as_z(c.step({"s": ZSet()})["o"]).is_zero()

    def test_a_loop_nested_two_deep_counts_its_work_after_clone(self):
        """clone() points every nested body, at any depth, at the clone's
        counter: a loop counting to 3 inside a domain counts the same tuples
        as at top level, before and after the copy."""

        def count_to_3(c, x):
            # the change at inner tick u is {(u + 1,)} while u + 1 <= 3
            blk, inner = c.add_nested(x)
            fb = inner.add_feedback(depth=inner.level)
            d = inner.add_plus([inner.add_delta0(), inner.add_lifted(_successor_to(3), [fb], klass=LINEAR)])
            inner.connect_feedback(d, fb)
            inner.add_stream_sum(d)
            return blk

        flat = Circuit()
        flat.add_sink(count_to_3(flat, flat.add_source("s")), "o")
        deep = Circuit()
        blk, mid = deep.add_nested(deep.add_source("s"))
        mid.add_stream_sum(count_to_3(mid, mid.add_delta0()))
        deep.add_sink(blk, "o")
        one = ZSet({(1,): 1})
        want = ZSet({(1,): 1, (2,): 1, (3,): 1})
        for c in (flat, deep, deep.clone()):
            assert as_z(c.step({"s": one})["o"]) == want
            # 1 -> 2 and 2 -> 3 scan and emit a row each; 3 -> nothing scans
            # one; the exit's plus clones its sum of 1, then of 2 rows
            assert c.metrics.tuples == 8


def _successor_to(n):
    def fn(x):
        return ZSet({(v + 1,): w for (v,), w in x.raw_items() if v < n})

    fn.arity = 1
    return fn


def _record(into):
    def fn(x):
        into.append(x)
        return x

    fn.arity = 1
    return fn


def _scale(k):
    def fn(x):
        return ZERO if x is ZERO else k * x

    fn.arity = 1
    return fn


# Z-sets with deletions and weights up to 3
_small_weight_zsets = st.dictionaries(row_elements, st.integers(-3, 3).filter(bool), max_size=4).map(ZSet)


def _identities(depth=None):
    """Sinks D(I s), I(D s) and I(s), on the clock depth picks."""
    c = Circuit()
    s = c.add_source("s", sort="any")
    c.add_sink(c.add_differentiate(c.add_integrate(s, depth), depth), "di")
    c.add_sink(c.add_integrate(c.add_differentiate(s, depth), depth), "id")
    c.add_sink(c.add_integrate(s, depth), "i")
    return c


class TestStreamProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(zsets, min_size=1, max_size=12))
    def test_inversion(self, xs):
        # I(D(s)) == D(I(s)) == s on random prefixes
        c = Circuit()
        s = c.add_source("s")
        c.add_sink(c.add_differentiate(c.add_integrate(s)), "di")
        c.add_sink(c.add_integrate(c.add_differentiate(s)), "id")
        for x in xs:
            out = c.step({"s": x})
            assert as_z(out["di"]) == x
            assert as_z(out["id"]) == x

    @settings(max_examples=40, deadline=None)
    @given(st.lists(zsets, min_size=1, max_size=10))
    def test_time_invariance(self, xs):
        # S(z(s)) == z(S(s)) for the built-in stateful operators
        for build in (
            lambda c, s: c.add_integrate(s),
            lambda c, s: c.add_differentiate(s),
            lambda c, s: c.add_delay(s),
        ):
            left = run_unary(lambda c, s: build(c, c.add_delay(s)), xs)
            right = run_unary(lambda c, s: c.add_delay(build(c, s)), xs)
            assert all(gv_eq(l, r) for l, r in zip(left, right))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(zsets, min_size=2, max_size=8), st.lists(zsets, min_size=2, max_size=8))
    def test_causality(self, xs, ys):
        # identical prefixes => identical outputs, regardless of the future
        cut = min(len(xs), len(ys)) // 2
        merged = xs[:cut] + ys[cut:]
        a = run_unary(lambda c, s: c.add_integrate(c.add_delay(s)), xs)
        b = run_unary(lambda c, s: c.add_integrate(c.add_delay(s)), merged)
        for i in range(cut):
            assert gv_eq(a[i], b[i])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(_small_weight_zsets, min_size=1, max_size=6), min_size=1, max_size=3))
    def test_integrate_and_differentiate_identities_on_every_clock(self, rows):
        """D(I x) = x, I(D x) = x and I(x)[t] = x[0] + ... + x[t], with I and
        D built from delays and plus nodes: along the own clock (the rows'
        ticks in turn), along the vector clock (each row one tick's vector)
        and through lift_circuit."""
        xs = [x for row in rows for x in row]
        c = _identities()
        for t, x in enumerate(xs):
            out = c.step({"s": x})
            assert (as_z(out["di"]), as_z(out["id"]), as_z(out["i"])) == (x, x, sum(xs[: t + 1], ZSet())), t
        for c in (_identities(depth=1), lift_circuit(_identities())):
            for row in rows:
                out = c.step({"s": StreamVector(row)})
                prefix = StreamVector([sum(row[: u + 1], ZSet()) for u in range(len(row))])
                assert (out["di"], out["id"], out["i"]) == (StreamVector(row), StreamVector(row), prefix)

    def test_matches_list_oracle(self):
        rng = random.Random(4)
        xs = [rng.randrange(-5, 6) for _ in range(20)]
        assert run_unary(lambda c, s: c.add_integrate(s), xs) == list_integrate(xs)
        got = run_unary(lambda c, s: c.add_differentiate(s), xs)
        want = list_differentiate(xs)
        assert got == want


# A closure trace of inserts, deletions and a weight-2 edge, and the per-tick
# work the engine did on it before the step program existed: skipping
# operators that have no work must not change `tuples` or `iterations`.
# Folding the rule's head map into the nested join removes that map's rows,
# and the join rows it merges, from `tuples`: CLOSURE_TUPLES_FLOORED and
# CLOSURE_ITERATIONS_FLOORED are the dispatching engine's counts less exactly
# those rows, counted per tick.  Each run was then floored at the longest
# earlier run; it now visits only the inner ticks its traces hold, so ticks
# 13-19 run shorter, and ticks 14-19 scan fewer rows.  `tuples` now also
# counts the rows each plus clones (I's and the fixpoint exit's copies):
# CLOSURE_COPIED per tick, on top of the operator work CLOSURE_TUPLES.
CLOSURE_TICKS = [
    {(0, 1): 1, (1, 2): 1, (2, 3): 1},
    {(3, 4): 1},
    {(4, 5): 2},
    {(5, 6): 1},
    {(2, 3): -1},
    {(2, 3): 1},
    {(6, 0): 1},
    {(7, 8): 1},
    {(6, 7): 1},
    {(4, 5): -1},
    {(4, 5): -1},
    {(4, 5): 1},
    {(1, 2): -1},
    {},
    {(8, 1): 1},
    {(0, 1): -1},
    {(0, 1): 2},
    {(3, 4): -1},
    {(3, 4): 1, (5, 6): -1},
    {(6, 0): -1},
]
CLOSURE_TUPLES_FLOORED = [267, 133, 163, 195, 309, 309, 493, 108, 396, 1, 826, 826, 682, 0, 122, 275, 275, 405, 498, 123]
CLOSURE_ITERATIONS_FLOORED = [4, 5, 6, 7, 7, 7, 7, 7, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9]
CLOSURE_TUPLES = [267, 133, 163, 195, 309, 309, 493, 108, 396, 1, 826, 826, 682, 0, 104, 250, 250, 341, 354, 78]
CLOSURE_ITERATIONS = [4, 5, 6, 7, 7, 7, 7, 7, 9, 9, 9, 9, 9, 7, 7, 8, 8, 7, 5, 4]
CLOSURE_COPIED = [23, 15, 21, 28, 40, 39, 45, 10, 61, 9, 116, 115, 94, 0, 12, 23, 22, 42, 38, 14]


def _closure():
    return compile_circuits(_closure_spec(), "incremental").incremental


def _run_counted(c, ticks):
    """Outputs and per-tick (tuples, iterations) of c over the ticks."""
    m = c.metrics
    outs, work = [], []
    for t in ticks:
        t0, i0 = m.tuples, m.iterations
        outs.append(as_z(c.step({"E": ZSet(t)})["R"]))
        work.append((m.tuples - t0, m.iterations - i0))
    return outs, work


class _PassThrough:
    """Operator wrapper as a tracer installs it: attributes read through to
    fn, and each call records whether the skip rules allowed skipping it."""

    def __init__(self, fn, node, calls):
        self._fn, self._node, self._calls = fn, node, calls

    def __getattr__(self, attr):
        return getattr(self._fn, attr)

    def __call__(self, *args):
        rows_in = getattr(self._fn, "rows_in", None)
        if rows_in is not None:
            skippable = rows_in(*args) == 0
        else:
            skippable = self._node.klass == LINEAR and all(gv_is_zero(x) for x in args)
        self._calls.append(skippable)
        return self._fn(*args)


def _wrap_fns(c, calls):
    for node in c.nodes:
        if node.kind == "lifted":
            node.fn = _PassThrough(node.fn, node, calls)
        elif node.kind == "nested":
            _wrap_fns(node.meta["inner"], calls)


class TestStepProgram:
    def test_closure_work_matches_the_dispatching_engine(self):
        outs, work = _run_counted(_closure(), CLOSURE_TICKS)
        ops = [t - copied for (t, _), copied in zip(work, CLOSURE_COPIED)]
        assert ops == CLOSURE_TUPLES
        assert [i for _, i in work] == CLOSURE_ITERATIONS
        assert all(t <= old for t, old in zip(ops, CLOSURE_TUPLES_FLOORED))
        assert all(i <= old for (_, i), old in zip(work, CLOSURE_ITERATIONS_FLOORED))
        reference = compile_circuits(_closure_spec(), "reference").reference
        for t, out in zip(CLOSURE_TICKS, outs):
            assert as_z(reference.step({"E": ZSet(t)})["R"]) == out

    def test_wrapper_installed_before_the_first_step_sees_every_call(self, monkeypatch):
        made = []
        for cls in (FilterFn, MapFn, DistinctDeltaFn, IncJoinFn):
            call = cls.__call__
            monkeypatch.setattr(cls, "__call__", lambda self, *a, _call=call: (made.append(self), _call(self, *a))[1])
        plain = _run_counted(_closure(), CLOSURE_TICKS)
        made.clear()
        calls = []
        wrapped = _closure()
        _wrap_fns(wrapped, calls)
        assert _run_counted(wrapped, CLOSURE_TICKS) == plain
        assert len(calls) == len(made) > 0
        assert not any(calls)

    def test_clone_of_a_stepped_circuit_steps_on_its_own(self):
        expected = _run_counted(_closure(), CLOSURE_TICKS)
        c = _closure()
        first = _run_counted(c, CLOSURE_TICKS[:10])
        d = c.clone()
        assert _run_counted(d, CLOSURE_TICKS) == expected
        rest = _run_counted(c, CLOSURE_TICKS[10:])
        assert (first[0] + rest[0], first[1] + rest[1]) == expected

    def test_adding_a_node_after_a_step_rebuilds_the_program(self):
        c = Circuit()
        s = c.add_source("s", sort="any")
        c.add_sink(s, "o")
        assert c.step({"s": 1}) == {"o": 1}
        c.add_sink(c.add_lifted(Doubler(), [s], klass=LINEAR), "d")
        assert c.step({"s": 3}) == {"o": 3, "d": 6}

    def test_connecting_a_feedback_stub_after_a_step_rebuilds_the_program(self):
        c = Circuit()
        s = c.add_source("s", sort="any")
        c.add_sink(s, "o")
        assert c.step({"s": 1}) == {"o": 1}
        fb = c.add_feedback()
        p = c.add_plus([s, fb])
        c.add_sink(p, "sum")
        with pytest.raises(CircuitError, match="unconnected"):
            c.step({"s": 1})
        c.connect_feedback(p, fb)
        assert [c.step({"s": t})["sum"] for t in id_stream()] == [0, 1, 3, 6, 10]
