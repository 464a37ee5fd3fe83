"""deltaflow benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload join-point --seed 1 --seconds 20 --trace 0

Generates the workload's spec and NDJSON change trace from the seed, replays
the trace in a fresh single-threaded process (a closed loop with one client,
see replay.py), checks the output against the reference circuit, and prints
every metric with its unit and sample count.  The last stdout line is the
result object: {"correct", "attempted", "failed", "metrics"}.

End-to-end times are at the host's reference speed: each transaction's
wall-clock latency is scaled by how fast a fixed calibration loop ran just
before and after it (replay.host_speed), so that other tenants slowing the
shared host do not read as the program slowing.  The wall-clock figures are
in the report line before the result.

`--trace 0` reports the end-to-end metrics.  `--trace 1` replays half as long
untraced, then the same transactions traced, and reports the per-layer
metrics; it also checks that tracing leaves the output bytes and the
circuit's work counters unchanged, and that the replay's output equals
`deltaflow run --mode incremental` on a prefix of the trace.

Exits 1 when a correctness check fails.  Exits nonzero without a result line
when the program cannot be found or set up, when the trace runs out before
the clock, or when the circuit has an operator label the benchmark does not
list.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# setup_s is the median, at reference speed, of the run's own set-up and
# SETUP_RUNS set-up-only processes.
SETUP_RUNS = 4
# Compare mode recomputes every view from the full snapshot on each line (about
# a second per line on join-point), so it checks tx 0 and two changes only.
COMPARE_PREFIX = 3
CLI_PREFIX = 50  # lines whose output must equal `deltaflow run --mode incremental`
CHILD_TIMEOUT_S = 150


class SetupError(Exception):
    """The benchmark cannot measure the program: no result is printed."""


def _cmd(args, module=None):
    return [sys.executable] + (["-m", module] if module else [os.path.join(HERE, "replay.py")]) + args


def _env():
    return dict(os.environ, PYTHONPATH=SRC)


def _replay(work, name, seconds=0.0, max_tx=None, spans=False):
    paths = {k: os.path.join(work, f"{name}.{k}") for k in ("out", "result", "spans")}
    args = ["--spec", os.path.join(work, "spec.json"), "--trace", os.path.join(work, "trace.ndjson")]
    args += ["--out", paths["out"], "--result", paths["result"], "--seconds", str(seconds)]
    if max_tx is not None:
        args += ["--max-tx", str(max_tx)]
    if spans:
        args += ["--spans", paths["spans"]]
    proc = subprocess.run(_cmd(args), cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SetupError(f"replay {name} exited {proc.returncode}:\n{proc.stderr}")
    with open(paths["result"]) as f:
        result = json.load(f)
    if result.get("exhausted"):
        raise SetupError(f"replay {name}: the trace ran out after {result['tx']} transactions; raise gen.TX_PER_SECOND")
    result["out_path"] = paths["out"]
    return result


def _head(path, n):
    with open(path) as f:
        return "".join(line for _, line in zip(range(n), f))


def _rows(lines):
    """Sum the changes of NDJSON transaction lines: {(relation, row): weight}."""
    total = {}
    for line in lines:
        for rel, values, w in json.loads(line)["changes"]:
            key = (rel, tuple(values))
            w += total.pop(key, 0)
            if w:
                total[key] = w
    return total


def _start_cli(work, name, n_lines, args):
    """Start `deltaflow <args>` on the first n_lines of the trace, writing to <name>.out."""
    prefix = os.path.join(work, f"{name}.ndjson")
    with open(prefix, "w") as f:
        f.write(_head(os.path.join(work, "trace.ndjson"), n_lines))
    out = os.path.join(work, f"{name}.out")
    args = args + ["--spec", os.path.join(work, "spec.json"), "--trace", prefix, "--out", out]
    proc = subprocess.Popen(_cmd(args, module="deltaflow.cli"), cwd=ROOT, env=_env(), stderr=subprocess.PIPE, text=True)
    return proc, out


def _wait_cli(proc, errors):
    _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        errors.append(err.strip())
    return proc.returncode == 0


def _final_state(work, n_lines):
    """Sum the emitted deltas and compare them with one step of the reference
    circuit fed the input relations integrated over the same transactions.
    Returns (equal, rows in the final views)."""
    from deltaflow.groupval import ZERO
    from deltaflow.runner import compile_circuits
    from deltaflow.specfile import load_spec
    from deltaflow.trace import dump_transaction, parse_transaction
    from deltaflow.zset import ZSet

    trace_path = os.path.join(work, "trace.ndjson")
    spec = load_spec(os.path.join(work, "spec.json"))
    final = {name: {} for name in spec.relations}
    with open(trace_path) as f:
        for index, line in zip(range(n_lines), f):
            t = parse_transaction(json.loads(line), spec.relations, f"{trace_path}:{index + 1}")
            for rel, z in t.changes.items():
                acc = final[rel]
                for row, w in z.raw_items():
                    acc[row] = acc.get(row, 0) + w
    reference = compile_circuits(spec, "reference").reference
    views = reference.step({rel: ZSet(acc) for rel, acc in final.items()})
    expected = _rows([dump_transaction(0, {v: ZSet() if views[v] is ZERO else views[v] for v in spec.view_names})])
    with open(os.path.join(work, "main.out")) as f:
        return _rows(f) == expected, len(expected)


def check_output(work, n_lines, cli_lines=None):
    """Correctness gate over the first n_lines of the trace, which main.out answers.

    * final_state: see _final_state;
    * compare_prefix: compare mode agrees on a short prefix of the trace;
    * cli_equivalent (when cli_lines is given): main.out starts with the
      bytes `deltaflow run --mode incremental` writes for that many lines.

    The CLI runs go in the background while the final state is checked.
    Returns ({check: passed}, rows in the final views, error messages).
    """
    from deltaflow.errors import DeltaflowError

    errors = []
    compare = _start_cli(work, "compare", min(COMPARE_PREFIX, n_lines), ["compare"])
    cli = _start_cli(work, "cli", cli_lines, ["run", "--mode", "incremental"]) if cli_lines else None
    try:
        try:
            final_ok, view_rows = _final_state(work, n_lines)
        except DeltaflowError as e:
            final_ok, view_rows = False, 0
            errors.append(f"reference: {e}")
        checks = {"final_state": final_ok, "compare_prefix": _wait_cli(compare[0], errors)}
        if cli:
            checks["cli_equivalent"] = _wait_cli(cli[0], errors) and _read(cli[1]) == _head(os.path.join(work, "main.out"), cli_lines)
    finally:
        for proc, _ in filter(None, (compare, cli)):
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return checks, view_rows, errors


def _read(path):
    with open(path) as f:
        return f.read()


def _percentile(values, q):
    """(q-th percentile, samples above it)."""
    v = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return v, sum(1 for x in values if x > v)


def end_to_end(work, seconds):
    """One untraced replay for `seconds`, then SETUP_RUNS set-up-only replays."""
    run = _replay(work, "main", seconds=seconds)
    setups = [run] + [_replay(work, "setup") for _ in range(SETUP_RUNS)]
    n = run["tx"]
    ref_ms = [ns / 1e6 for ns in run["ref_latencies_ns"]]
    wall_ms = [ns / 1e6 for ns in run["latencies_ns"]]

    def latency(values, q):
        value, beyond = _percentile(values, q)
        return value, "ms", n, beyond

    metrics = {
        "tx_per_s": (n / (sum(ref_ms) / 1e3), "1/s", n, None),
        "tx_latency_p50_ms": latency(ref_ms, 50),
        "tx_latency_p90_ms": latency(ref_ms, 90),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1, None),
        "setup_s": (statistics.median(r["setup_ref_s"] for r in setups), "s", len(setups), None),
    }
    # p99 goes to the report only: join-batch and agg-groups, at ~50 ms per
    # transaction, leave only a few samples beyond it in a run.
    report_only = {
        "tx_latency_p99_ms": latency(ref_ms, 99),
        "wall_clock.tx_per_s": (n / (sum(wall_ms) / 1e3), "1/s", n, None),
        "wall_clock.tx_latency_p50_ms": latency(wall_ms, 50),
        "wall_clock.tx_latency_p90_ms": latency(wall_ms, 90),
        "wall_clock.setup_s": (statistics.median(r["setup_s"] for r in setups), "s", len(setups), None),
        "host_speed": (sum(ref_ms) / sum(wall_ms), "ratio", n, None),
    }
    return run, metrics, {}, report_only


# Operator labels the workloads' compiled circuits contain; each gets
# ms, calls, rows_in and rows_out per transaction (0 where a workload lacks it).
RELATIONAL_LABELS = (
    "filter",
    "project",
    "join",
    "distinct_delta",
    "aggregate",
    "map",
    "nested.filter",
    "nested.map",
    "nested.join",
    "nested.distinct_delta",
)


def per_layer(work, seconds):
    """Untraced replay for half of `seconds`, then the same transactions traced."""
    run = _replay(work, "main", seconds=seconds / 2)
    n = run["tx"]
    traced = _replay(work, "traced", max_tx=n, spans=True)
    checks = {
        "traced_output_identical": _read(run["out_path"]) == _read(traced["out_path"]),
        "traced_counters_identical": (traced["tuples"], traced["iterations"]) == (run["tuples"], run["iterations"]),
    }
    setup, steady = traced["spans"]["setup"], traced["spans"]["steady"]

    def per_tx(name, field, unit):
        scale = 1e-6 if unit == "ms" else 1
        return steady.get(name, [0, 0, 0, 0])[field] * scale / n, unit

    relational_ns = sum(v[0] for k, v in steady.items() if k.startswith("relational."))
    # Step time outside operator spans, less what counting the Z-set
    # additions made there cost.
    self_ns = steady.get("circuit.step", [0])[0] - relational_ns - traced["spans"]["state_adds"] * traced["spans"]["add_cost_ns"]
    metrics = {
        "specfile.load_s": (setup.get("specfile.load", 0) / 1e9, "s"),
        "rewrite.compile_s": (setup.get("rewrite.compile", 0) / 1e9, "s"),
        "rewrite.nodes": (traced["nodes"][0], "count"),
        "rewrite.state_nodes": (traced["nodes"][1], "count"),
        "trace.parse_ms_per_tx": per_tx("trace.parse", 0, "ms"),
        "trace.dump_ms_per_tx": per_tx("trace.dump", 0, "ms"),
        "trace.out_rows_per_tx": (traced["out_rows"] / n, "count"),
        "circuit.load_s": (setup.get("circuit.step", 0) / 1e9, "s"),
        "circuit.step_ms_per_tx": per_tx("circuit.step", 0, "ms"),
        "circuit.self_ms_per_tx": (self_ns / 1e6 / n, "ms"),
        "circuit.tuples_per_tx": (traced["tuples"] / n, "count"),
        "circuit.iterations_per_tx": (traced["iterations"] / n, "count"),
        "zset.add_calls_per_tx": per_tx("zset.add", 1, "count"),
        "zset.add_ms_per_tx": per_tx("zset.add", 0, "ms"),
        "zset.add_rows_copied_per_tx": per_tx("zset.add", 2, "count"),
        "trace_overhead_ratio": (sum(run["ref_latencies_ns"]) / sum(traced["ref_latencies_ns"]), "ratio"),
    }
    unknown = {k[len("relational."):] for k in steady if k.startswith("relational.")} - set(RELATIONAL_LABELS)
    if unknown:
        raise SetupError(f"operator labels {sorted(unknown)} are not in RELATIONAL_LABELS: add them to the benchmark")
    for label in RELATIONAL_LABELS:
        for field, (what, unit) in enumerate((("ms", "ms"), ("calls", "count"), ("rows_in", "count"), ("rows_out", "count"))):
            metrics[f"relational.{label}.{what}_per_tx"] = per_tx("relational." + label, field, unit)
    return run, {k: (v, u, n, None) for k, (v, u) in metrics.items()}, checks, {}


def _described(metrics):
    out = {}
    for name, (value, unit, samples, beyond) in metrics.items():
        out[name] = {"value": value, "unit": unit, "samples": samples}
        if beyond is not None:
            out[name]["samples_beyond"] = beyond
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description="deltaflow benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "deltaflow", "__init__.py")):
        sys.stderr.write(f"perfbench: no deltaflow sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import gen

    if args.workload not in gen.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}\n")
        return 2
    work_root = os.path.join(ROOT, ".perfbench-work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    spans = os.path.join(work_root, f"{args.workload}.spans.ndjson")  # kept: the last traced run's spans
    try:
        longest_replay_s = args.seconds / 2 if args.trace else args.seconds
        inputs = gen.write(args.workload, args.seed, longest_replay_s, os.path.join(work, "spec.json"), os.path.join(work, "trace.ndjson"))
        measure = per_layer if args.trace else end_to_end
        run, metrics, checks, report_only = measure(work, args.seconds)
        n_lines = run["tx"] + 1
        gate, view_rows, errors = check_output(work, n_lines, min(CLI_PREFIX, n_lines) if args.trace else None)
        checks.update(gate)
        if args.trace:
            os.replace(os.path.join(work, "traced.spans"), spans)
    except (SetupError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(checks.values())
    attempted = run["tx"]
    failed = run["failed"] if correct else attempted
    inputs["view_rows"] = view_rows
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "load": "closed loop, 1 client",
        "inputs": inputs,
        "tx_attempted": attempted,
        "tx_failed": failed,
        "tx_failed_ratio": failed / attempted,
        "checks": checks,
        "errors": ([run["error"]] if run["error"] else []) + errors,
        "metrics": _described(metrics),
        "report_only": _described(report_only),
    }
    if args.trace:
        report["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m[0], "unit": m[1]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
