"""Closed-loop replay of one change trace by a single client.

Composes only public calls, the same ones `deltaflow run --mode incremental`
makes: `load_spec`, `compile_circuits(spec, "incremental")`, then for each
trace line `json.loads` + `parse_transaction` -> `Circuit.step` ->
`dump_transaction` -> write.  Unlike the CLI it streams one transaction at a
time, so each transaction's latency can be observed.  Run in a fresh process:

    python3 perfbench/replay.py --spec S --trace T --out O --result R --seconds 10

Every transaction's latency is also reported at the host's reference speed
(see host_speed), and so is the set-up time.

`--seconds 0` stops after set-up (the base snapshot, tx 0).  `--max-tx N`
replays exactly N transactions after tx 0 whatever the time.  `--spans P`
turns on tracing and writes the spans to P.  The result's `exhausted` is true
when the trace ended before the clock or N did.
"""

import argparse
import gc
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from deltaflow import runner, specfile  # noqa: E402
from deltaflow import trace as tracefile  # noqa: E402
from deltaflow.circuit import Circuit  # noqa: E402
from deltaflow.groupval import ZERO  # noqa: E402
from deltaflow.zset import ZSet  # noqa: E402

_STATE_KINDS = ("integrate", "delay", "differentiate")

# The host is shared with other tenants, and its speed swings by up to 1.5x,
# for a fraction of a second or for minutes.  A fixed pure-Python loop that
# does not use deltaflow is timed every CALIBRATE_EVERY_NS between
# transactions; REFERENCE_NS is its time when no other tenant slows the host
# (Intel Xeon KVM guest, 2 vCPUs, Python 3.11).
CALIBRATE_EVERY_NS = 25_000_000
REFERENCE_NS = 750_000


def _calibration_loop():
    d = {}
    for i in range(3000):
        k = (i % 97, i)
        d[k] = d.get(k, 0) + 1
    s = 0
    for k, v in d.items():
        s += k[0] * v
    return s


def host_speed():
    """REFERENCE_NS over the least of five timings of the calibration loop:
    about 1.0 when no other tenant slows the host, lower while one does.  The
    garbage collector is paused, so the program's heap does not enter the
    timing."""
    gc.disable()
    try:
        best = None
        for _ in range(5):
            t0 = time.perf_counter_ns()
            _calibration_loop()
            ns = time.perf_counter_ns() - t0
            best = ns if best is None else min(best, ns)
    finally:
        gc.enable()
    return REFERENCE_NS / best


def node_counts(circuit):
    """(all nodes, integrate/delay/differentiate nodes), nested domains included."""
    census = circuit.census()
    return sum(census.values()), sum(n for (kind, _), n in census.items() if kind in _STATE_KINDS)


def peak_rss_mb():
    """Peak resident set of this process (VmHWM).  Unlike ru_maxrss, it does
    not start from the parent's size, which Linux carries across exec."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def replay(spec_path, trace_path, out_path, seconds, max_tx, tracer):
    load_spec, compile_circuits = specfile.load_spec, runner.compile_circuits
    loads, parse, step, dump = json.loads, tracefile.parse_transaction, Circuit.step, tracefile.dump_transaction
    if tracer is not None:
        load_spec = tracer.wrap("specfile.load", load_spec)
        compile_circuits = tracer.wrap("rewrite.compile", compile_circuits)
        loads = tracer.wrap("trace.parse", loads)
        parse = tracer.wrap("trace.parse", parse)
        step = tracer.wrap("circuit.step", step)
        dump = tracer.wrap("trace.dump", dump)

    now = time.perf_counter_ns
    speed = host_speed()
    t_setup = now()
    spec = load_spec(spec_path)
    circuit = compile_circuits(spec, "incremental").incremental
    if tracer is not None:
        tracer.wrap_circuit(circuit)
        tracer.install_zset()
    relations, views = spec.relations, spec.view_names
    no_change = {name: ZSet() for name in relations}

    with open(trace_path) as src, open(out_path, "w") as out:

        def run_tx(line, index):
            t = parse(loads(line), relations, f"{trace_path}:{index + 1}")
            inputs = dict(no_change)
            inputs.update(t.changes)
            outputs = step(circuit, inputs)
            changes = {v: ZSet() if outputs[v] is ZERO else outputs[v] for v in views}
            out.write(dump(t.tx, changes))
            return sum(len(z) for z in changes.values())

        if tracer is not None:
            run_tx = tracer.wrap_tx(run_tx)
        run_tx(src.readline(), 0)
        setup_s = (now() - t_setup) / 1e9
        speed = (speed + host_speed()) / 2
        result = {"setup_s": setup_s, "setup_ref_s": setup_s * speed, "nodes": node_counts(circuit)}
        if seconds == 0 and max_tx is None:
            return result

        metrics = circuit.metrics
        tuples0, iterations0 = metrics.tuples, metrics.iterations
        latencies, failed, out_rows, error = [], 0, 0, None
        # speeds[calibrated[k]] was measured just before transaction k, and
        # speeds[calibrated[k] + 1] after it: its reference latency is its
        # wall-clock latency times their mean.
        speeds, calibrated = [], []
        exhausted = True
        limit = now() + int(seconds * 1e9)
        next_calibration = 0
        for index, line in enumerate(src, start=1):
            if now() >= next_calibration:
                speeds.append(host_speed())
                next_calibration = now() + CALIBRATE_EVERY_NS
            calibrated.append(len(speeds) - 1)
            t0 = now()
            try:
                out_rows += run_tx(line, index)
            except Exception:  # a failed transaction is counted, and the loop goes on
                failed += 1
                error = error or traceback.format_exc()
            t1 = now()
            latencies.append(t1 - t0)
            if index == max_tx or (max_tx is None and t1 >= limit):
                exhausted = False
                break
        speeds.append(host_speed())
    ref_latencies = [ns * (speeds[i] + speeds[i + 1]) / 2 for ns, i in zip(latencies, calibrated)]
    result.update(
        tx=len(latencies),
        exhausted=exhausted,
        failed=failed,
        error=error,
        latencies_ns=latencies,
        ref_latencies_ns=ref_latencies,
        peak_rss_mb=peak_rss_mb(),
        tuples=metrics.tuples - tuples0,
        iterations=metrics.iterations - iterations0,
        out_rows=out_rows,
    )
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spec", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True, help="output deltas (NDJSON)")
    p.add_argument("--result", required=True, help="where to write the run's measurements (JSON)")
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--max-tx", type=int, default=None)
    p.add_argument("--spans", default=None, help="trace the run and write its spans here (NDJSON)")
    args = p.parse_args(argv)

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
    result = replay(args.spec, args.trace, args.out, args.seconds, args.max_tx, tracer)
    if tracer is not None:
        result["spans"] = tracer.summary()
        tracer.write(args.spans)
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
