"""Execution engine behind the CLI: incremental / reference / compare runs
over a change trace, plus the built-in benchmark workloads."""

import random
import time
from dataclasses import dataclass

from .errors import DivergenceError, NonTerminationError, ValidationError, WeightOverflowError
from .groupval import ZERO
from .rewrite import compile_query
from .zset import ZSet

MODES = ("incremental", "reference", "compare")


@dataclass
class CompiledSpec:
    spec: object
    incremental: object = None
    reference: object = None


def compile_circuits(spec, mode="compare", max_iterations=None):
    """Build the run pipelines with compile_query.

    Both modes share the consolidated form, so compare mode checks the
    incrementalization itself and stays exact even on traces that push
    multiplicities outside set semantics.
    """
    cs = CompiledSpec(spec=spec)
    reference, incremental = compile_query(spec.circuit)
    if mode in ("incremental", "compare"):
        cs.incremental = incremental
        _apply_cap(cs.incremental, max_iterations)
    if mode in ("reference", "compare"):
        cs.reference = reference
        _apply_cap(cs.reference, max_iterations)
    return cs


def _apply_cap(circuit, cap):
    if cap is None:
        return
    for n in circuit.nodes:
        if "cap" in n.meta:  # a nested domain's exit
            n.meta["cap"] = cap
        elif n.kind == "nested":
            _apply_cap(n.meta["inner"], cap)


def _tick_inputs(spec, t):
    empty = ZSet()
    inputs = {name: empty for name in spec.relations}
    for rel, z in t.changes.items():
        inputs[rel] = z
    return inputs


def _step_circuit(circuit, inputs, tx):
    m = circuit.metrics
    t0, i0 = m.tuples, m.iterations
    start = time.perf_counter_ns()
    try:
        out = circuit.step(inputs)
    except (ValidationError, NonTerminationError, WeightOverflowError) as e:
        views = _views_reading(circuit, e.node) if isinstance(e, ValidationError) else []
        where = f" (in view{'s' if len(views) > 1 else ''} {', '.join(map(repr, views))})" if views else ""
        raise type(e)(f"tx {tx}: {e}{where}") from e
    wall = time.perf_counter_ns() - start
    return out, {"tuples": m.tuples - t0, "iterations": m.iterations - i0, "wall_ns": wall}


def _views_reading(circuit, nid):
    """The sorted names of the sinks on node nid or on a node that reads it."""
    reach, size = {nid}, 0
    while size < len(reach):
        size = len(reach)
        reach.update(n.id for n in circuit.nodes if reach.intersection(n.inputs))
    return sorted(name for name, top in circuit.sinks.items() if top in reach)


class RunReport:
    """A run of a trace in one of the three modes, stepped as it is iterated.

    Each iteration steps one transaction and yields (tx, {view: ZSet},
    metrics).  The report keeps only the running totals and, in compare
    mode, the verdict on the first divergence, so a run holds operator
    state and one transaction's output whatever the trace's length.
    """

    def __init__(self, cs, trace, mode):
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}")
        self.cs, self.trace, self.mode = cs, trace, mode
        self.totals = {"total_tuples": 0, "total_iterations": 0, "total_wall_ns": 0}
        self.verdict = {"equal": True} if mode == "compare" else None

    def summary(self):
        """The totals line: running sums, plus the verdict in compare mode."""
        return self.totals if self.verdict is None else {**self.totals, "compare": self.verdict}

    def __iter__(self):
        cs, mode, totals, views = self.cs, self.mode, self.totals, self.cs.spec.view_names
        for t in self.trace:
            inputs = _tick_inputs(cs.spec, t)
            metrics = {"tx": t.tx}
            if mode != "reference":
                out_inc, m = _step_circuit(cs.incremental, inputs, t.tx)
                metrics.update(m)
            if mode != "incremental":
                out_ref, m = _step_circuit(cs.reference, inputs, t.tx)
                metrics.update(m if mode == "reference" else {f"reference_{k}": v for k, v in m.items()})
            primary = out_ref if mode == "reference" else out_inc
            changes = {view: _as_zset_out(primary[view]) for view in views}
            if mode == "compare" and self.verdict["equal"]:
                for view in views:
                    a, b = changes[view], _as_zset_out(out_ref[view])
                    if a != b:
                        self.verdict = {
                            "equal": False,
                            "tx": t.tx,
                            "view": view,
                            "incremental": [[list(r) if type(r) is tuple else [r], w] for r, w in a.items()],
                            "reference": [[list(r) if type(r) is tuple else [r], w] for r, w in b.items()],
                        }
                        break
            for k in ("tuples", "iterations", "wall_ns"):
                totals[f"total_{k}"] += metrics[k]
            yield t.tx, changes, metrics


def check_verdict(report):
    v = report.verdict
    if v is not None and not v["equal"]:
        raise DivergenceError(
            f"first divergence at tx {v['tx']} in view {v['view']!r}",
            tick=v["tx"],
            view=v["view"],
            expected=v["reference"],
            actual=v["incremental"],
        )


def _as_zset_out(v):
    if isinstance(v, ZSet):
        return v
    if v is ZERO:
        return ZSet()
    raise ValidationError(f"view produced a non-relational value: {type(v).__name__}")


# -- benchmark workloads -----------------------------------------------------------


def _join_bench_spec():
    from .specfile import compile_spec

    return compile_spec(
        {
            "relations": [
                {"name": "orders", "columns": ["id", "cust"]},
                {"name": "customers", "columns": ["id", "region"]},
            ],
            "views": [
                {
                    "name": "enriched",
                    "query": {
                        "op": "join",
                        "left": {"op": "rel", "name": "orders"},
                        "right": {"op": "rel", "name": "customers"},
                        "left_key": [1],
                        "right_key": [0],
                    },
                }
            ],
        }
    )


def bench_join(base_size, delta_size, seed, ticks=8):
    """Large accumulated join, small per-tick deltas: wall-time ratio of
    reference recompute over incremental step."""
    from .trace import Transaction

    rng = random.Random(seed)
    spec = _join_bench_spec()
    cs = compile_circuits(spec, mode="compare")
    base_orders = ZSet([((i, i % (base_size // 2 + 1)), 1) for i in range(base_size)])
    base_cust = ZSet([((i, f"r{i % 7}"), 1) for i in range(base_size // 2 + 1)])
    txs = [Transaction(tx=0, changes={"orders": base_orders, "customers": base_cust})]
    next_id = base_size
    for k in range(1, ticks + 1):
        rows = ZSet([((next_id + j, rng.randrange(base_size // 2 + 1)), 1) for j in range(delta_size)])
        next_id += delta_size
        txs.append(Transaction(tx=k, changes={"orders": rows}))
    report = RunReport(cs, txs, "compare")
    metrics = [m for _, _, m in report][1:]
    check_verdict(report)
    inc = sum(m["wall_ns"] for m in metrics) / ticks
    ref = sum(m["reference_wall_ns"] for m in metrics) / ticks
    return {
        "workload": "join",
        "base_size": base_size,
        "delta_size": delta_size,
        "ticks": ticks,
        "incremental_ns_per_tick": int(inc),
        "reference_ns_per_tick": int(ref),
        "speedup": ref / inc if inc else float("inf"),
    }


def _closure_spec():
    from .specfile import compile_spec

    return compile_spec(
        {
            "relations": [{"name": "E", "columns": ["h", "t"]}],
            "recursive": {
                "relations": [{"name": "R", "columns": ["s", "t"]}],
                "rules": [
                    {"head": {"rel": "R", "terms": ["x", "x"]}, "body": [{"rel": "E", "terms": ["x", "_"]}]},
                    {"head": {"rel": "R", "terms": ["x", "x"]}, "body": [{"rel": "E", "terms": ["_", "x"]}]},
                    {"head": {"rel": "R", "terms": ["x", "y"]}, "body": [{"rel": "E", "terms": ["x", "y"]}]},
                    {
                        "head": {"rel": "R", "terms": ["x", "y"]},
                        "body": [{"rel": "E", "terms": ["x", "z"]}, {"rel": "R", "terms": ["z", "y"]}],
                    },
                ],
            },
        }
    )


def random_graph(n_nodes, n_edges, rng):
    edges = set()
    while len(edges) < n_edges:
        a = rng.randrange(n_nodes)
        b = rng.randrange(n_nodes)
        if a != b:
            edges.add((a, b))
    return edges


def bench_closure(n_nodes, delta_edges, seed):
    """Transitive closure under a small edge delta: wall time, inner-loop
    tuple counts and iterations of the delta tick, incremental versus
    reference recompute."""
    from .trace import Transaction

    rng = random.Random(seed)
    spec = _closure_spec()
    cs = compile_circuits(spec, mode="compare")
    edges = random_graph(n_nodes, n_nodes, rng)
    base = Transaction(tx=0, changes={"E": ZSet([(e, 1) for e in edges])})
    fresh = [e for e in random_graph(n_nodes, n_nodes + delta_edges, rng) if e not in edges][:delta_edges]
    report = RunReport(cs, [base, Transaction(tx=1, changes={"E": ZSet([(e, 1) for e in fresh])})], "compare")
    m = [m for _, _, m in report][1]
    check_verdict(report)
    return {
        "workload": "closure",
        "nodes": n_nodes,
        "delta_edges": delta_edges,
        "incremental_ns_per_tick": m["wall_ns"],
        "reference_ns_per_tick": m["reference_wall_ns"],
        "incremental_tuples": m["tuples"],
        "reference_tuples": m["reference_tuples"],
        "incremental_iterations": m["iterations"],
        "reference_iterations": m["reference_iterations"],
    }
