"""Batch command line: run / compare / validate / bench.

Exit codes: 0 success, 2 validation error, 3 divergence, 4 iteration cap,
5 weight overflow.  `run` and `compare` read the trace line by line and write
each transaction's output and metrics lines as it is stepped, so a failure
keeps every line of the transactions before it.
"""

import argparse
import contextlib
import json
import sys

from .errors import DeltaflowError
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
        if args.command == "bench":
            return _cmd_bench(args)
        raise AssertionError(args.command)
    except DeltaflowError as e:
        sys.stderr.write(f"deltaflow: {e}\n")
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
