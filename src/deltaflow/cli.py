"""Batch command line: run / compare / validate / explain / bench.

Exit codes: 0 success, 2 validation error, 3 divergence, 4 iteration cap,
5 weight overflow.  `run` and `compare` read the trace line by line and write
each transaction's output and metrics lines as it is stepped, so a failure
keeps every line of the transactions before it.
"""

import argparse
import contextlib
import json
import sys

from .circuit import STATE_KINDS
from .errors import DeltaflowError, ValidationError
from .runner import RunReport, bench_closure, bench_join, check_verdict, compile_circuits
from .specfile import load_spec
from .trace import dump_metrics, dump_transaction, load_trace


def _build_parser():
    p = argparse.ArgumentParser(prog="deltaflow", description="Incremental view maintenance over Z-set circuits")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, trace_required=True):
        sp.add_argument("--spec", required=True, help="circuit spec (JSON)")
        if trace_required:
            sp.add_argument("--trace", required=True, help="change trace (NDJSON, one transaction per line)")
        sp.add_argument("--max-iterations", type=int, default=None, help="cap on nested fixpoint iterations")
        sp.add_argument("--metrics-out", default=None, help="write per-tick metrics (NDJSON)")
        sp.add_argument("--out", default=None, help="write output deltas here instead of stdout")

    run = sub.add_parser("run", help="run a trace through the circuits")
    common(run)
    run.add_argument("--mode", choices=["incremental", "reference", "compare"], default="incremental")

    cmp_ = sub.add_parser("compare", help="run both pipelines and assert equality")
    common(cmp_)

    val = sub.add_parser("validate", help="check a spec (and optionally a trace) without running")
    val.add_argument("--spec", required=True)
    val.add_argument("--trace", default=None)

    exp = sub.add_parser("explain", help="print the incremental circuit with the rewrite rule of each node")
    exp.add_argument("--spec", required=True)

    bench = sub.add_parser("bench", help="built-in workloads measuring incremental advantage")
    bench.add_argument("--workload", choices=["join", "closure"], required=True)
    bench.add_argument("--base", type=int, default=100_000, help="base rows (join) or graph nodes (closure)")
    bench.add_argument("--delta", type=int, default=1, help="delta rows/edges per tick")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None)
    return p


def _emit(text, path):
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _open(path, default=None):
    return open(path, "w") if path else contextlib.nullcontext(default)


def _cmd_run(args, mode):
    if args.max_iterations is not None and args.max_iterations < 1:
        raise ValidationError(f"--max-iterations must be at least 1, got {args.max_iterations}")
    spec = load_spec(args.spec)
    cs = compile_circuits(spec, mode=mode, max_iterations=args.max_iterations)
    report = RunReport(cs, load_trace(args.trace, spec.relations), mode)
    with _open(args.out, sys.stdout) as out, _open(args.metrics_out) as met:
        for tx, changes, metrics in report:
            out.write(dump_transaction(tx, changes))
            out.flush()
            if met:
                met.write(dump_metrics(metrics))
                met.flush()
        if met:
            met.write(dump_metrics(report.summary()))
    check_verdict(report)
    return 0


def _cmd_validate(args):
    spec = load_spec(args.spec)
    if args.trace:
        for _ in load_trace(args.trace, spec.relations):
            pass
    sys.stdout.write(
        json.dumps(
            {
                "ok": True,
                "relations": sorted(spec.relations),
                "views": spec.view_names,
                "nodes": len(spec.circuit.nodes),
            },
            sort_keys=True,
        )
        + "\n"
    )
    return 0


def _cmd_explain(args):
    inc = compile_circuits(load_spec(args.spec), mode="incremental").incremental
    sys.stdout.write("".join(_explain_lines(inc, "")))
    return 0


def _explain_lines(c, indent):
    """One line per node of circuit c: its id, kind, label (or its fn's
    op_name, or a source's name), depth, the rewrite rule that built it,
    `state` for a state kind and the views it is the sink of; each nested
    body is indented under its node."""
    views = {}
    for name, nid in c.sinks.items():
        views.setdefault(nid, []).append(name)
    for n in c.nodes:
        label = getattr(n.fn, "op_name", None) or n.label or n.name
        fields = [str(n.id), n.kind, label, f"depth={n.depth}", f"rule={n.meta['rule']}"]
        fields += ["state"] if n.kind in STATE_KINDS else []
        fields += [f"view={v}" for v in views.get(n.id, ())]
        yield indent + " ".join(f for f in fields if f) + "\n"
        if n.kind == "nested":
            yield from _explain_lines(n.meta["inner"], indent + "  ")


def _cmd_bench(args):
    if args.workload == "join":
        result = bench_join(args.base, args.delta, args.seed)
    else:
        result = bench_closure(args.base, args.delta, args.seed)
    _emit(json.dumps(result, sort_keys=True) + "\n", args.out)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, args.mode)
        if args.command == "compare":
            return _cmd_run(args, "compare")
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise AssertionError(args.command)
    except DeltaflowError as e:
        sys.stderr.write(f"deltaflow: {e}\n")
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
