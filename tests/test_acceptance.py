"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured runtime.  Tolerances are exact equality unless stated."""

import random
import time

from deltaflow import (
    Circuit,
    IndexedZSet,
    StreamVector,
    ZSet,
    build_incremental_recursive,
    build_naive,
    build_seminaive,
    build_while,
    count_aggregate,
    distinct,
    flatmap,
    group_by,
    incrementalize_naive,
    indexed_aggregate,
    is_positive,
    is_set,
    optimize,
    incrementalize_query,
)
from deltaflow.circuit import LINEAR
from deltaflow.expr import BinOp, Col, Const, KeyFunc, MapFunc
from deltaflow.groupval import as_vector
from deltaflow.relational import (
    JoinFn,
    WindowSpec,
    build_clock,
    build_distinct,
    build_equijoin,
    build_filter,
    build_inc_distinct,
    build_inc_join,
    build_map,
    build_projection,
    build_union,
    build_window,
)
from deltaflow.runner import bench_closure, bench_join
from oracles import as_z, brute_incremental, closure_with_self_loops, zset_of
from test_datalog import tc_program
from test_rewrite import _fig_query, rand_trace


def report(n, text, started):
    print(f"\nACCEPTANCE {n}: PASS ({time.perf_counter() - started:.2f}s) {text}")


def test_criterion_1_scalar_stream_goldens():
    t0 = time.perf_counter()

    def run(build, inputs):
        c = Circuit()
        s = c.add_source("s", sort="any")
        c.add_sink(build(c, s), "o")
        return [c.step({"s": x})["o"] for x in inputs]

    ident = list(range(5))
    assert run(lambda c, s: c.add_integrate(s), ident) == [0, 1, 3, 6, 10]
    assert run(lambda c, s: c.add_differentiate(s), ident) == [0, 1, 1, 1, 1]
    assert run(lambda c, s: c.add_delay(s), ident) == [0, 0, 1, 2, 3]
    doubler = lambda x: 2 * x
    doubler.arity = 1
    assert run(lambda c, s: c.add_lifted(doubler, [s], klass=LINEAR), ident) == [0, 2, 4, 6, 8]

    c = Circuit()
    s = c.add_source("s", sort="any")
    blk, inner = c.add_nested(s)
    e = inner.add_delta0()
    inner.add_stream_sum(e, termination=lambda v: False, max_iterations=5)
    c.probe_nested(blk, e)
    try:
        c.step({"s": 5})
    except Exception:
        pass
    assert c.nested_probe_values(blk) == [5, 0, 0, 0, 0]

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "scalar stream operator goldens exact on 5-tick prefixes", t0)


def test_criterion_2_nested_stream_goldens():
    t0 = time.perf_counter()
    rows = [StreamVector(tuple(col + 2 * r for col in range(4))) for r in range(4)]

    def run(build):
        c = Circuit()
        s = c.add_source("s", sort="any")
        c.add_sink(build(c, s), "o")
        return [as_vector(c.step({"s": r})["o"]).prefix(4, pad=0) for r in rows]

    cases = [
        (lambda c, s: c.add_integrate(s), [[0, 1, 2, 3], [2, 4, 6, 8], [6, 9, 12, 15], [12, 16, 20, 24]]),
        (lambda c, s: c.add_integrate(s, depth=1), [[0, 1, 3, 6], [2, 5, 9, 14], [4, 9, 15, 22], [6, 13, 21, 30]]),
        (lambda c, s: c.add_differentiate(s), [[0, 1, 2, 3], [2, 2, 2, 2], [2, 2, 2, 2], [2, 2, 2, 2]]),
        (lambda c, s: c.add_differentiate(s, depth=1), [[0, 1, 1, 1], [2, 1, 1, 1], [4, 1, 1, 1], [6, 1, 1, 1]]),
        (lambda c, s: c.add_delay(s), [[0, 0, 0, 0], [0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]]),
        (lambda c, s: c.add_delay(s, depth=1), [[0, 0, 1, 2], [0, 2, 3, 4], [0, 4, 5, 6], [0, 6, 7, 8]]),
        (
            lambda c, s: c.add_delay(c.add_delay(s), depth=1),
            [[0, 0, 0, 0], [0, 0, 1, 2], [0, 2, 3, 4], [0, 4, 5, 6]],
        ),
        (
            lambda c, s: c.add_differentiate(c.add_differentiate(s, depth=1)),
            [[0, 1, 1, 1], [2, 0, 0, 0], [2, 0, 0, 0], [2, 0, 0, 0]],
        ),
        (
            lambda c, s: c.add_integrate(c.add_integrate(s), depth=1),
            [[0, 1, 3, 6], [2, 6, 12, 20], [6, 15, 27, 42], [12, 28, 48, 72]],
        ),
    ]
    for build, want in cases:
        assert run(build) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "all nine nested-stream matrices exact on the 4x4 prefix", t0)


def test_criterion_3_zset_goldens():
    t0 = time.perf_counter()
    R = ZSet({"joe": 1, "anne": -1})
    assert distinct(R) == ZSet({"joe": 1})
    assert is_set(R) is False
    assert is_positive(R) is False
    first = lambda s: s[0]
    g = group_by(first, R)
    assert g == IndexedZSet({"j": ZSet({"joe": 1}), "a": ZSet({"anne": -1})})
    assert indexed_aggregate(count_aggregate, g) == ZSet({("j", 1): 1, ("a", -1): 1})
    assert flatmap(g) == ZSet({("j", "joe"): 1, ("a", "anne"): -1})
    report(3, "printed Z-set, grouping, and aggregation values exact", t0)


def test_criterion_4_inversion_thousand_streams():
    t0 = time.perf_counter()
    c = Circuit()
    s = c.add_source("s")
    c.add_sink(c.add_differentiate(c.add_integrate(s)), "di")
    c.add_sink(c.add_integrate(c.add_differentiate(s)), "id")
    rng = random.Random(42)
    for _ in range(1000):
        c.reset()
        for _tick in range(20):
            x = ZSet([((rng.randrange(6), rng.randrange(6)), rng.choice([1, 1, -1])) for _ in range(rng.randrange(4))])
            out = c.step({"s": x})
            assert as_z(out["di"]) == x
            assert as_z(out["id"]) == x
    report(4, "I(D(s)) == D(I(s)) == s exact on 1000 random 20-tick streams", t0)


def test_criterion_5_rewrite_calculus_rules():
    t0 = time.perf_counter()
    rng = random.Random(7)
    TRACES = 200

    def deltas(n=10, arity=2):
        return [
            ZSet([(tuple(rng.randrange(4) for _ in range(arity)), rng.choice([1, 1, -1])) for _ in range(rng.randrange(4))])
            for _ in range(n)
        ]

    # linear pass-through: optimized linear op == D(Q(I)) and == Q itself
    lin = Circuit()
    s = lin.add_source("s")
    lin.add_sink(build_projection(lin, s, [1]), "o")
    lin_inc = optimize(incrementalize_naive(lin))
    assert not any(n.kind == "delay" for n in lin_inc.nodes)
    from deltaflow.relational import project_fn

    for _ in range(TRACES):
        ds = deltas()
        lin_inc.reset()
        got = [as_z(lin_inc.step({"s": d})["o"]) for d in ds]
        assert got == brute_incremental(project_fn([1]), ds)

    # bilinear expansion
    fn = JoinFn(KeyFunc([0]), KeyFunc([0]))
    bi = Circuit()
    a = bi.add_source("a")
    b = bi.add_source("b")
    bi.add_sink(build_inc_join(bi, a, b, None, None, fn=fn), "o")
    for _ in range(TRACES):
        das, dbs = deltas(), deltas()
        bi.reset()
        got = [as_z(bi.step({"a": x, "b": y})["o"]) for x, y in zip(das, dbs)]
        assert got == brute_incremental(fn, das, dbs)

    # incremental distinct
    dc = Circuit()
    d_in = dc.add_source("s")
    dc.add_sink(build_inc_distinct(dc, d_in), "o")
    for _ in range(TRACES):
        ds = deltas()
        dc.reset()
        got = [as_z(dc.step({"s": d})["o"]) for d in ds]
        assert got == brute_incremental(distinct, ds)

    # chain rule: (join o distinct)^inc as one pipeline == composed pieces
    def composed():
        c = Circuit()
        s = c.add_source("s")
        dd = build_distinct(c, s)
        c.add_sink(build_equijoin(c, dd, dd, KeyFunc([0]), KeyFunc([0])), "o")
        return c

    whole = optimize(incrementalize_naive(composed()))
    manual = Circuit()
    s2 = manual.add_source("s")
    dd2 = build_inc_distinct(manual, s2)
    manual.add_sink(build_inc_join(manual, dd2, dd2, KeyFunc([0]), KeyFunc([0])), "o")
    naive_chain = incrementalize_naive(composed())
    for _ in range(TRACES):
        ds = deltas()
        whole.reset()
        manual.reset()
        naive_chain.reset()
        o1 = [as_z(whole.step({"s": d})["o"]) for d in ds]
        o2 = [as_z(manual.step({"s": d})["o"]) for d in ds]
        o3 = [as_z(naive_chain.step({"s": d})["o"]) for d in ds]
        assert o1 == o2 == o3

    # add rule
    def summed():
        c = Circuit()
        s = c.add_source("s")
        q1 = build_filter(c, s, BinOp("==", BinOp("%", Col(0), Const(2)), Const(0)))
        q2 = build_distinct(c, s)
        c.add_sink(c.add_plus([q1, q2]), "o")
        return c

    sum_inc = optimize(incrementalize_naive(summed()))
    sum_naive = incrementalize_naive(summed())
    for _ in range(TRACES):
        ds = deltas()
        sum_inc.reset()
        sum_naive.reset()
        assert [as_z(sum_inc.step({"s": d})["o"]) for d in ds] == [
            as_z(sum_naive.step({"s": d})["o"]) for d in ds
        ]

    # cycle rule on the integrator shape
    def loop():
        c = Circuit()
        s = c.add_source("s")
        fb = c.add_feedback()
        p = c.add_plus([s, fb])
        body = build_filter(c, p, BinOp("<", Col(0), Const(99)))
        c.connect_feedback(c.add_delay(body), fb)
        c.add_sink(body, "o")
        return c

    loop_inc = optimize(incrementalize_naive(loop()))
    loop_naive = incrementalize_naive(loop())
    for _ in range(TRACES):
        ds = deltas()
        loop_inc.reset()
        loop_naive.reset()
        assert [as_z(loop_inc.step({"s": d})["o"]) for d in ds] == [
            as_z(loop_naive.step({"s": d})["o"]) for d in ds
        ]

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"six rewrite rules exact against D(Q(I)) on {TRACES} traces each", t0)


def test_criterion_6_algorithm_end_to_end():
    t0 = time.perf_counter()
    inc = incrementalize_query(_fig_query())
    cen = inc.census()
    integrals = sum(1 for n in inc.nodes if n.meta.get("feedback"))  # I(x) = x + z(I(x))
    traces = sum(v for (k, _), v in cen.items() if k == "trace")
    joins = sum(v for (_, l), v in cen.items() if l == "join")
    hs = sum(v for (_, l), v in cen.items() if l == "distinct_delta")
    # the distinct's integral, one trace per join side, one probing join
    assert (integrals, traces, joins, hs) == (1, 2, 1, 1)

    from deltaflow import consolidate_distinct

    ref = incrementalize_naive(consolidate_distinct(_fig_query()))
    for seed in range(50):
        rng = random.Random(seed)
        trace = rand_trace(rng, ["t1", "t2"], ticks=5, arity=3)
        inc.reset()
        ref.reset()
        for t in trace:
            assert as_z(inc.step(t)["V"]) == as_z(ref.step(t)["V"])
    report(6, "node census (1 integral, 2 traces, 1 join, 1 distinct-delta) and 50-trace compare", t0)


def test_criterion_7_recursion():
    t0 = time.perf_counter()
    p = tc_program()
    naive = build_naive(p)
    semi = build_seminaive(p)
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(2, 13)
        edges = set()
        for _ in range(rng.randrange(0, 2 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((a, b))
        want = zset_of(closure_with_self_loops(edges))
        assert as_z(naive.step({"E": zset_of(edges)})["R"]) == want
        assert as_z(semi.step({"E": zset_of(edges)})["R"]) == want

    inc = build_incremental_recursive(p)
    for _ in range(50):
        inc.reset()
        cur, acc = set(), ZSet()
        for _tick in range(5):
            ins = set()
            for _ in range(rng.randrange(0, 4)):
                a, b = rng.randrange(8), rng.randrange(8)
                if a != b and (a, b) not in cur:
                    ins.add((a, b))
            dels = {e for e in cur if rng.random() < 0.3}
            cur = (cur | ins) - dels
            delta = ZSet([(e, 1) for e in ins] + [(e, -1) for e in dels])
            acc = acc + as_z(inc.step({"E": delta})["R"])
            assert acc == zset_of(closure_with_self_loops(cur))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, "naive == seminaive == oracle (100 graphs); incremental == oracle (50 traces)", t0)


def test_criterion_8_performance():
    t0 = time.perf_counter()
    join = bench_join(100_000, 1, seed=3)
    assert join["speedup"] >= 5.0, join
    closure = bench_closure(200, 1, seed=3)
    assert closure["incremental_tuples"] < closure["reference_tuples"], closure
    report(
        8,
        f"join speedup {join['speedup']:.0f}x (>=5); closure tuples {closure['incremental_tuples']}"
        f" < {closure['reference_tuples']}",
        t0,
    )


def test_criterion_9_window_streamjoin_while():
    t0 = time.perf_counter()
    rng = random.Random(23)

    # window against the direct filter-over-integral oracle
    c = Circuit()
    s = c.add_source("s")
    th = c.add_source("clk", event=True)
    c.add_sink(build_window(c, s, build_clock(c, th), WindowSpec(0, 7)), "o")
    for _ in range(10):
        c.reset()
        acc, clock = ZSet(), 0
        for _tick in range(10):
            delta = ZSet({(clock + rng.randrange(10), rng.randrange(4)): 1 for _ in range(rng.randrange(3))})
            clock += rng.randrange(4)
            acc = acc + delta
            got = as_z(c.step({"s": delta, "clk": ZSet({(clock,): 1})})["o"])
            want = ZSet({x: w for x, w in acc.raw_items() if x[0] >= clock - 7})
            assert got == want

    # stream join against the integrate-then-join oracle
    sj = Circuit()
    s2 = sj.add_source("s")
    t2 = sj.add_source("t", event=True)
    sj.add_sink(build_inc_join(sj, s2, t2, KeyFunc([0]), KeyFunc([0])), "o")
    fn = JoinFn(KeyFunc([0]), KeyFunc([0]))
    for _ in range(10):
        sj.reset()
        acc = ZSet()
        for _tick in range(10):
            ds = ZSet({(rng.randrange(4), rng.randrange(9)): rng.choice([1, 1, -1]) for _ in range(rng.randrange(3))})
            ev = ZSet({(rng.randrange(4), "e%d" % rng.randrange(5)): 1 for _ in range(rng.randrange(3))})
            acc = acc + ds
            assert as_z(sj.step({"s": ds, "t": ev})["o"]) == fn(acc, ev)

    # while loop against the iterated-query oracle
    def q_circuit():
        q = Circuit()
        x = q.add_source("x")
        nxt = build_map(q, x, MapFunc([BinOp("%", BinOp("+", Col(0), Const(1)), Const(6))]))
        q.add_sink(build_union(q, x, nxt), "x")
        return q

    w = build_while(q_circuit())

    def while_oracle(start):
        cur = set(start)
        while True:
            nxt = cur | {((v + 1) % 6,) for (v,) in cur}
            if nxt == cur:
                return cur
            cur = nxt

    for _ in range(10):
        w.reset()
        for _tick in range(3):
            start = {(rng.randrange(6),) for _ in range(rng.randrange(1, 3))}
            got = as_z(w.step({"x": zset_of(start)})["x"])
            assert got == zset_of(while_oracle(start))
    report(9, "window, stream-join, and while circuits match their oracles", t0)
