"""The undo oracle: Z-set streams form a group, so a trace followed by its
inverse puts every integral back where it began.  The incremental state must
follow, and so must the work of a later tick.  For every golden and perfbench
spec, at small sizes: step a base, a seeded trace, then the trace's
transactions negated in reverse order; every own-clock trace and summary,
integral, delay and parent-clock trace then holds exactly what it held after
the base, and a probe tick costs the same `tuples` and `iterations` as on a
fresh circuit that took the base alone.

A window's clock cannot go back, so the streams golden's window is held to
its bound instead: it keeps exactly the base rows inside the window at the
clock the trace left, and the fresh circuit it is compared with takes the
base and a tick that moves its clock there."""

import random

import pytest
from deltaflow import ZSet
from deltaflow.circuit import STATE_KINDS
from deltaflow.runner import compile_circuits
from deltaflow.specfile import compile_spec
from oracles import as_z
from test_census import _spec_docs
from test_fixpoint_state import _plain

BASE_ROWS = 8
TRACE_TX = 12
FLOATS = (0.5, 1.25, 2.0, 3.5)


def _value(rng, typ):
    if typ == "str":
        return rng.choice("abc")
    if typ == "float":
        return rng.choice(FLOATS)
    return rng.randrange(6)


def _row(rng, decl):
    types = decl.schema.types or ("int",) * decl.schema.arity
    return tuple(_value(rng, t) for t in types)


def _workload(spec, seed):
    """A base tick, a seeded trace of table changes and events, the trace
    negated in reverse order, and a probe tick, as source -> Z-set dicts.
    Table weights stay positive, as MIN and MAX need; the window clock, when
    there is one, only moves forward and is left out of the undo."""
    rng = random.Random(seed)
    tables = [d for d in spec.relations.values() if d.kind == "table"]
    streams = [d for d in spec.relations.values() if d.kind == "stream"]
    live = {d.name: {} for d in tables}
    clock = [0]

    def tick(changes, events=True):
        inputs = {name: ZSet() for name in spec.relations}
        for name, change in changes.items():
            inputs[name] = ZSet({r: w for r, w in change.items() if w})
        if events:
            for d in streams:
                if d.schema.arity == 1:  # a window clock
                    clock[0] += rng.randrange(4)
                    inputs[d.name] = ZSet({(clock[0],): 1})
                else:
                    inputs[d.name] = ZSet({_row(rng, d): rng.choice([1, 2])})
        return inputs

    def change_of(d, n):
        rows, change = live[d.name], {}
        for _ in range(n):
            if rows and rng.random() < 0.5:
                r = rng.choice(sorted(rows, key=repr))
                w = -rows[r] if rng.random() < 0.5 else rng.choice([1, 2])
            else:
                r, w = _row(rng, d), rng.choice([1, 2])
            if r in change:
                continue
            change[r] = w
            rows[r] = rows.get(r, 0) + w
            if not rows[r]:
                del rows[r]
        return change

    base = tick({d.name: change_of(d, BASE_ROWS) for d in tables})
    txs = [{d.name: change_of(d, rng.randrange(1, 3)) for d in tables} for _ in range(TRACE_TX)]
    trace = [tick(tx) for tx in txs]
    negated = [{name: {r: -w for r, w in ch.items()} for name, ch in tx.items()} for tx in reversed(txs)]
    undo = [tick(tx, events=False) for tx in negated]
    fresh_rows = random.Random(seed + 1)
    probe = tick({d.name: {_row(fresh_rows, d): 1} for d in tables}, events=False)
    return base, trace, undo, probe, clock[0]


def _cost(c, inputs):
    m = c.metrics
    t0, i0 = m.tuples, m.iterations
    out = {name: as_z(v) for name, v in c.step(inputs).items()}
    return out, m.tuples - t0, m.iterations - i0


def _window_nodes(c):
    """The state nodes of the window rule: each window's fold, and the
    delay of its output's D, which latches the window's content."""
    state = {n.id for n in c.nodes if n.meta["rule"] == "window" and n.kind in STATE_KINDS}
    folds = {nid for nid in state if c.nodes[nid].kind == "window_fold"}
    return folds, state - folds


@pytest.mark.parametrize("name", sorted(_spec_docs()))
@pytest.mark.parametrize("seed", [3, 4])
def test_state_and_work_return_with_the_data(name, seed):
    spec = compile_spec(_spec_docs()[name])
    base, trace, undo, probe, clock = _workload(spec, seed)
    c, fresh = (compile_circuits(spec, "incremental").incremental for _ in range(2))
    c.step(base)
    fresh.step(base)
    at_base = _plain(dict(c._state))
    for inputs in trace + undo:
        c.step(inputs)
    folds, contents = _window_nodes(c)
    windowed = folds | contents
    assert _plain({k: v for k, v in c._state.items() if k not in windowed}) == {
        k: v for k, v in at_base.items() if k not in windowed
    }
    if folds:
        # bounded by the window: the base rows inside it at the last clock
        (fold,) = [c.nodes[i] for i in folds]
        window, source = fold.meta["window"], c.nodes[fold.inputs[0]]
        assert source.kind == "source"
        now, content = c._state[fold.id]
        assert now == clock
        inside = {r: w for r, w in base[source.name].raw_items() if r[window.ts_column] >= clock - window.width}
        assert dict(content.raw_items()) == inside
        assert all(_plain(c._state[k]) == inside for k in contents)
        move = {name: ZSet() for name in spec.relations}
        (clk,) = [d.name for d in spec.relations.values() if d.kind == "stream" and d.schema.arity == 1]
        move[clk] = ZSet({(clock,): 1})
        fresh.step(move)
    assert _cost(c, probe) == _cost(fresh, probe)


@pytest.mark.parametrize("probe, iterations, tuples", [({(1000, 1001): 1}, 3, 76), ({(3, 4): 1}, 4, 105)])
def test_a_long_path_added_and_deleted_leaves_no_work_behind(probe, iterations, tuples):
    """The closure golden's base, a 200-edge path added in one tick and
    deleted in the next: its fixpoint ran 201 iterations, and a later tick,
    an isolated edge or one that extends the base, costs what it costs on a
    fresh circuit (it cost 201 iterations when each run was floored at the
    longest earlier run)."""
    spec = compile_spec(_spec_docs()["closure"])
    base = {"E": ZSet({(1, 2): 1, (2, 3): 1})}
    path = {(100 + i, 101 + i): 1 for i in range(200)}
    c, fresh = (compile_circuits(spec, "incremental").incremental for _ in range(2))
    c.step(base)
    fresh.step(base)
    at_base = _plain(dict(c._state))
    c.step({"E": ZSet(path)})
    assert c.metrics.iterations >= 201
    c.step({"E": ZSet({e: -w for e, w in path.items()})})
    assert _plain(dict(c._state)) == at_base
    got, want = _cost(c, {"E": ZSet(probe)}), _cost(fresh, {"E": ZSet(probe)})
    assert got == want and got[1:] == (tuples, iterations)
