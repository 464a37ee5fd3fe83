"""Spec/trace loading, the batch CLI, report round-trips, exit codes."""

import copy
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from deltaflow import DivergenceError, ValidationError, ZSet, load_spec, load_trace
from deltaflow.cli import main
from conftest import run_all
from deltaflow.circuit import Circuit
from deltaflow.expr import BinOp, Col, Const
from deltaflow.relational import Schema, build_filter, build_projection
from deltaflow.runner import RunReport, check_verdict, compile_circuits
from deltaflow.specfile import CircuitSpec, RelationDecl, compile_spec
from deltaflow.trace import DUMP_BATCH_ROWS, Transaction, _json_value, dump_transaction

GOLDENS = Path(__file__).parent / "goldens"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def jline(obj):
    return json.dumps(obj) + "\n"


FIG_SPEC = GOLDENS / "filtered_join.spec.json"
FIG_TRACE = GOLDENS / "filtered_join.trace.ndjson"


class TestLoadSpec:
    def test_seven_node_scalar_circuit(self):
        spec = load_spec(str(FIG_SPEC))
        ops = [n for n in spec.circuit.nodes if n.kind != "source"]
        assert len(ops) == 7
        labels = sorted(n.label for n in ops)
        assert labels == ["distinct", "filter", "filter", "join", "project", "project", "project"]

    def test_parse_error_position(self, tmp_path):
        p = write(tmp_path, "bad.json", '{"relations": [,]}')
        with pytest.raises(ValidationError) as e:
            load_spec(p)
        assert "line 1" in str(e.value)

    def test_unknown_relation_in_view(self, tmp_path):
        p = write(
            tmp_path,
            "s.json",
            json.dumps({"relations": [], "views": [{"name": "v", "query": {"op": "rel", "name": "nope"}}]}),
        )
        with pytest.raises(ValidationError):
            load_spec(p)

    def test_column_out_of_range(self, tmp_path):
        doc = {
            "relations": [{"name": "r", "columns": ["a"]}],
            "views": [
                {"name": "v", "query": {"op": "filter", "predicate": [">", ["col", 3], ["const", 0]], "input": {"op": "rel", "name": "r"}}}
            ],
        }
        with pytest.raises(ValidationError) as e:
            compile_spec(doc)
        assert "view 'v'" in str(e.value)

    def test_spec_without_views_rejected(self):
        with pytest.raises(ValidationError):
            compile_spec({"relations": [{"name": "r", "columns": ["a"]}]})


class TestLoadTrace:
    def test_empty_trace(self, tmp_path):
        spec = load_spec(str(FIG_SPEC))
        p = write(tmp_path, "t.ndjson", "\n")
        assert list(load_trace(p, spec.relations)) == []

    def test_arity_mismatch_names_relation_and_line(self, tmp_path):
        spec = load_spec(str(FIG_SPEC))
        p = write(tmp_path, "t.ndjson", jline({"tx": 0, "changes": [["t1", [1, 2], 1]]}))
        with pytest.raises(ValidationError) as e:
            list(load_trace(p, spec.relations))
        msg = str(e.value)
        assert "t1" in msg and ":1" in msg

    def test_rejects_nan_null_zero_weight(self, tmp_path):
        spec = load_spec(str(FIG_SPEC))
        cases = [
            {"tx": 0, "changes": [["t1", [1, 2, None], 1]]},
            {"tx": 0, "changes": [["t1", [1, 2, float("nan")], 1]]},
            {"tx": 0, "changes": [["t1", [1, 2, 3], 0]]},
        ]
        for case in cases:
            p = write(tmp_path, "t.ndjson", json.dumps(case) + "\n")
            with pytest.raises(ValidationError):
                list(load_trace(p, spec.relations))

    def test_type_checking(self, tmp_path):
        spec = load_spec(str(FIG_SPEC))
        p = write(tmp_path, "t.ndjson", jline({"tx": 0, "changes": [["t1", [1, "x", 3], 1]]}))
        with pytest.raises(ValidationError):
            list(load_trace(p, spec.relations))

    def test_tx_must_increase(self, tmp_path):
        spec = load_spec(str(FIG_SPEC))
        p = write(
            tmp_path,
            "t.ndjson",
            jline({"tx": 1, "changes": []}) + jline({"tx": 1, "changes": []}),
        )
        with pytest.raises(ValidationError):
            list(load_trace(p, spec.relations))

    def test_parse_error_line_number(self, tmp_path):
        spec = load_spec(str(FIG_SPEC))
        p = write(tmp_path, "t.ndjson", jline({"tx": 0, "changes": []}) + "{oops\n")
        with pytest.raises(ValidationError) as e:
            list(load_trace(p, spec.relations))
        assert ":2" in str(e.value)


class TestGoldenRuns:
    @pytest.mark.parametrize("name", ["filtered_join", "closure", "aggregates", "streams"])
    def test_byte_exact(self, name, tmp_path, capsys):
        out = tmp_path / "out.ndjson"
        rc = main(
            [
                "run",
                "--spec",
                str(GOLDENS / f"{name}.spec.json"),
                "--trace",
                str(GOLDENS / f"{name}.trace.ndjson"),
                "--mode",
                "compare",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == (GOLDENS / f"{name}.expected.ndjson").read_bytes()

    @pytest.mark.parametrize("mode", ["incremental", "compare"])
    def test_large_changes(self, mode, tmp_path):
        """The batch_join golden: multi-row changes with rows repeated and
        cancelling within a line, deletions and weights above 1, strings JSON
        escapes, an untyped relation, an AVG emitting fractions, and joins
        read by a merging project and by an arithmetic map.  Compare mode
        exits 0 only when both circuits agree on every tx."""
        out = tmp_path / "out.ndjson"
        args = ["--spec", str(GOLDENS / "batch_join.spec.json"), "--trace", str(GOLDENS / "batch_join.trace.ndjson")]
        assert main(["run", *args, "--mode", mode, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDENS / "batch_join.expected.ndjson").read_bytes()

    @pytest.mark.parametrize("mode", ["incremental", "reference"])
    def test_modes_agree_with_golden(self, mode, tmp_path):
        out = tmp_path / "o.ndjson"
        rc = main(
            ["run", "--spec", str(FIG_SPEC), "--trace", str(FIG_TRACE), "--mode", mode, "--out", str(out)]
        )
        assert rc == 0
        assert out.read_bytes() == (GOLDENS / "filtered_join.expected.ndjson").read_bytes()

    def test_determinism(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"o{i}.ndjson"
            met = tmp_path / f"m{i}.ndjson"
            rc = main(
                ["run", "--spec", str(GOLDENS / "closure.spec.json"), "--trace", str(GOLDENS / "closure.trace.ndjson"),
                 "--mode", "incremental", "--out", str(out), "--metrics-out", str(met)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestRoundTrip:
    def test_report_reingests_identically(self, tmp_path):
        spec = load_spec(str(FIG_SPEC))
        trace = load_trace(str(FIG_TRACE), spec.relations)
        cs = compile_circuits(spec, mode="incremental")
        _, ticks = run_all(cs, trace, "incremental")
        text = "".join(dump_transaction(tx, changes) for tx, changes, _ in ticks)
        p = write(tmp_path, "replay.ndjson", text)
        replayed = list(load_trace(p))  # view deltas re-read as a change trace
        assert len(replayed) == len(ticks)
        for got, (_, want, _) in zip(replayed, ticks):
            assert got.changes.get("v", ZSet()) == want["v"]
        # serializing again is byte-identical
        again = "".join(dump_transaction(t.tx, t.changes) for t in replayed)
        assert again == text


def one_shot_dump(tx, changes):
    """The transaction line encoded by a single json.dumps call."""
    out = [[rel, list(row) if type(row) is tuple else [row], w] for rel in sorted(changes) for row, w in changes[rel].items()]
    return json.dumps({"tx": tx, "changes": out}, sort_keys=True, separators=(",", ":"), default=_json_value) + "\n"


class TestBatchedDump:
    """dump_transaction encodes DUMP_BATCH_ROWS rows at a time; its line is
    byte for byte the one a single json.dumps of every row gives."""

    @pytest.mark.parametrize("n", [1, DUMP_BATCH_ROWS - 1, DUMP_BATCH_ROWS, DUMP_BATCH_ROWS + 1, 3 * DUMP_BATCH_ROWS + 7])
    def test_rows_spanning_batches(self, n):
        changes = {"r": ZSet({(i, f"s{i % 17}"): (-1) ** i * (1 + i % 3) for i in range(n)})}
        assert dump_transaction(n, changes) == one_shot_dump(n, changes)

    def test_values_and_relations(self):
        names = ["Zoë", "日本語", "𝄞 clef", 'say "hi"', "back\\slash", "tab\there", "new\nline", "\x00\x1f", "", "a/b"]
        changes = {
            "text": ZSet({(i, s): 1 + i for i, s in enumerate(names * 60)}),
            "exact": ZSet({(Fraction(4, 2),): 1, (Fraction(1, 3),): -2, (Fraction(-7, 1), Fraction(5, 4)): 3}),
            "floats": ZSet({(1.5,): 1, (-0.0, 2): -1, (1e300, -2.5e-300): 4, (0.1,): -9}),
            "scalars": ZSet({5: 1, "x": -3, 2.5: 2, Fraction(9, 3): -1}),
            "empty": ZSet(),
            "big": ZSet({(i,): 2**62 if i % 2 else -(2**62) for i in range(2 * DUMP_BATCH_ROWS + 3)}),
        }
        for tx in (0, 7, 2**40):
            assert dump_transaction(tx, changes) == one_shot_dump(tx, changes)
        assert dump_transaction(3, {"empty": ZSet()}) == one_shot_dump(3, {"empty": ZSet()}) == '{"changes":[],"tx":3}\n'
        assert dump_transaction(4, {}) == '{"changes":[],"tx":4}\n'

    def test_memory_is_bounded_by_the_line(self):
        changes = {"r": ZSet({(i, f"name-{i}", i % 13): (-1) ** i for i in range(10**4)})}
        dump_transaction(0, changes)  # warm the encoder
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            line = dump_transaction(1, changes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(line), (peak, len(line))


def run_lines(tmp_path, lines, *extra):
    """Run deltaflow on the batch_join spec over the given trace lines."""
    tp = write(tmp_path, "t.ndjson", "".join(lines))
    return main(["run", "--spec", str(GOLDENS / "batch_join.spec.json"), "--trace", tp, *extra])


class TestStreamingRun:
    """run and compare write each transaction's lines as it is stepped: a
    failure at line k keeps exactly the lines of the transactions before it."""

    TRACE = (GOLDENS / "batch_join.trace.ndjson").read_text().splitlines(keepends=True)
    EXPECTED = (GOLDENS / "batch_join.expected.ndjson").read_text().splitlines(keepends=True)
    K = 20  # 1-based number of the failing line

    def bad_lines(self, kind):
        bad = {"malformed": "{oops\n", "overflow": jline({"tx": 100, "changes": [["c", [1, "a", "b"], 2**63]]})}[kind]
        return self.TRACE[: self.K - 1] + [bad] + self.TRACE[self.K :]

    @pytest.mark.parametrize("kind, code", [("malformed", 2), ("overflow", 5)])
    def test_failure_keeps_the_lines_before_it(self, kind, code, tmp_path):
        out, met = tmp_path / "o", tmp_path / "m"
        assert run_lines(tmp_path, self.bad_lines(kind), "--out", str(out), "--metrics-out", str(met)) == code
        assert out.read_text() == "".join(self.EXPECTED[: self.K - 1])
        metrics = [json.loads(line) for line in met.read_text().splitlines()]
        assert [m["tx"] for m in metrics] == [json.loads(line)["tx"] for line in self.TRACE[: self.K - 1]]

    @pytest.mark.parametrize("kind, code", [("malformed", 2), ("overflow", 5)])
    def test_failure_keeps_the_lines_before_it_on_stdout(self, kind, code, tmp_path, capsys):
        met = tmp_path / "m"
        assert run_lines(tmp_path, self.bad_lines(kind), "--metrics-out", str(met)) == code
        out, err = capsys.readouterr()
        assert out == "".join(self.EXPECTED[: self.K - 1])
        assert len(met.read_text().splitlines()) == self.K - 1
        assert err.startswith(f"deltaflow: {tmp_path / 't.ndjson'}:{self.K}: ")

    def test_totals_line_ends_a_finished_run(self, tmp_path):
        out, met = tmp_path / "o", tmp_path / "m"
        assert run_lines(tmp_path, self.TRACE, "--mode", "compare", "--out", str(out), "--metrics-out", str(met)) == 0
        assert out.read_text() == "".join(self.EXPECTED)
        metrics = [json.loads(line) for line in met.read_text().splitlines()]
        assert len(metrics) == len(self.TRACE) + 1
        total = metrics[-1]
        assert total["compare"] == {"equal": True}
        assert total["total_tuples"] == sum(m["tuples"] for m in metrics[:-1])

    def test_divergent_compare_writes_every_line_then_exits_3(self, monkeypatch, tmp_path, capsys):
        sabotage_incremental(monkeypatch)
        trace = FIG_TRACE.read_text().splitlines(keepends=True)
        out, met = tmp_path / "o", tmp_path / "m"
        rc = main(["compare", "--spec", str(FIG_SPEC), "--trace", str(FIG_TRACE), "--out", str(out), "--metrics-out", str(met)])
        assert rc == 3
        assert "first divergence at tx 0" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == len(trace)
        metrics = [json.loads(line) for line in met.read_text().splitlines()]
        assert len(metrics) == len(trace) + 1
        assert metrics[-1]["compare"]["equal"] is False


class TestEmptyTrace:
    def test_empty_trace_empty_report(self):
        spec = load_spec(str(FIG_SPEC))
        cs = compile_circuits(spec, mode="compare")
        report, ticks = run_all(cs, [], "compare")
        assert ticks == []
        assert report.summary() == {"total_tuples": 0, "total_iterations": 0, "total_wall_ns": 0, "compare": {"equal": True}}


def sabotage_incremental(monkeypatch):
    """Make the CLI's incremental circuit route view v to a wrong node."""
    import deltaflow.cli as cli_mod

    def compile_wrong(spec, mode, max_iterations=None):
        cs = compile_circuits(spec, mode, max_iterations)
        cs.incremental.sinks["v"] = next(n.id for n in cs.incremental.nodes if n.label == "filter")
        return cs

    monkeypatch.setattr(cli_mod, "compile_circuits", compile_wrong)


class TestCompareVerdict:
    def test_injected_fault_detected(self):
        spec = load_spec(str(FIG_SPEC))
        trace = load_trace(str(FIG_TRACE), spec.relations)
        cs = compile_circuits(spec, mode="compare")
        # sabotage the incremental pipeline: route the view to a wrong node
        filt = next(n.id for n in cs.incremental.nodes if n.label == "filter")
        cs.incremental.sinks["v"] = filt
        report, _ = run_all(cs, trace, "compare")
        assert report.verdict["equal"] is False
        assert report.verdict["tx"] == 0 and report.verdict["view"] == "v"
        with pytest.raises(DivergenceError):
            check_verdict(report)

    def test_clean_compare_is_equal(self):
        spec = load_spec(str(FIG_SPEC))
        trace = load_trace(str(FIG_TRACE), spec.relations)
        cs = compile_circuits(spec, mode="compare")
        report, _ = run_all(cs, trace, "compare")
        assert report.verdict == {"equal": True}

    def test_except_view_is_equal(self, tmp_path):
        """An except view's negate is a plus that subtracts its input, a
        LINEAR node, so the rewrite keeps it as it is; its outputs equal the
        reference's on a trace with deletions and weights above 1."""
        rel = lambda name: {"op": "rel", "name": name}  # noqa: E731
        doc = {
            "relations": [{"name": "a", "columns": ["x"]}, {"name": "b", "columns": ["x"]}],
            "views": [{"name": "v", "query": {"op": "except", "left": rel("a"), "right": rel("b")}}],
        }
        spec = compile_spec(doc)
        cs = compile_circuits(spec, mode="compare")
        for c in (spec.circuit, cs.incremental):
            negates = [n for n in c.nodes if n.label == "minus"]
            assert [(n.kind, n.klass, len(n.inputs)) for n in negates] == [("plus", "linear", 1)]
        assert not any(n.kind == "negate" or n.label == "negate" for n in cs.reference.nodes)
        tp = write(
            tmp_path,
            "t.ndjson",
            jline({"tx": 0, "changes": [["a", [1], 1], ["a", [2], 2], ["a", [3], 1], ["b", [2], 1]]})
            + jline({"tx": 1, "changes": [["a", [1], -1], ["b", [2], 1]]})
            + jline({"tx": 2, "changes": [["a", [4], 3], ["b", [3], 1]]}),
        )
        report, ticks = run_all(cs, load_trace(tp, spec.relations), "compare")
        assert report.verdict == {"equal": True}
        assert [out["v"] for _, out, _ in ticks] == [
            ZSet({(1,): 1, (2,): 1, (3,): 1}),
            ZSet({(1,): -1, (2,): -1}),
            ZSet({(3,): -1, (4,): 1}),
        ]


_R = [{"name": "r", "columns": ["a"]}, {"name": "clock", "columns": ["t"], "kind": "stream"}]
_REL_R = {"op": "rel", "name": "r"}


def _window(**width):
    """A window query over r on the clock stream, with the given width or none."""
    return {"op": "window", "theta": "clock", "input": _REL_R, **width}


# t(a, b) beside the clock stream: a column index True reads column 1 and -1
# the last column, so both must be rejected, not read.
_T = [{"name": "t", "columns": ["a", "b"]}, _R[1]]
_REL_T = {"op": "rel", "name": "t"}


def _over_t(op, **fields):
    """A query node of kind op over t."""
    return {"op": op, "input": _REL_T, **fields}


def _join_t(left_key, right_key):
    return {"op": "join", "left": _REL_T, "right": _REL_T, "left_key": left_key, "right_key": right_key}


# t joined with the clock's events: an event stream, which only a window's
# clock or a stream join's right side may read.
_STREAM_JOIN_T = {**_join_t([0], [0]), "op": "stream_join", "right": {"op": "rel", "name": "clock"}}


# A valid spec with every kind of field: relation types, a recursive block,
# a map, an aggregate, a join, a filter over a projection, and a window.
_FULL_SPEC = {
    "relations": [
        {"name": "e", "columns": ["a", "b"], "types": ["int", "int"]},
        {"name": "clock", "columns": ["t"], "types": ["int"], "kind": "stream"},
    ],
    "recursive": {
        "relations": [{"name": "p", "columns": ["a", "b"]}],
        "rules": [{"head": {"rel": "p", "terms": ["x", "y"]}, "body": [{"rel": "e", "terms": ["x", "y"]}]}],
    },
    "views": [
        {"name": "m", "query": {"op": "map", "exprs": [["+", ["col", 0], ["const", 1]]], "input": {"op": "rel", "name": "p"}}},
        {"name": "s", "query": {"op": "aggregate", "agg": "sum", "column": 1, "group_by": [0], "input": {"op": "rel", "name": "e"}}},
        {"name": "j", "query": {"op": "join", "left_key": [0], "right_key": [1],
                                "left": {"op": "rel", "name": "e"}, "right": {"op": "rel", "name": "p"}}},
        {"name": "f", "query": {"op": "filter", "predicate": [">", ["col", 0], ["const", 1]],
                                "input": {"op": "project", "columns": [1, 0], "input": {"op": "rel", "name": "e"}}}},
        {"name": "w", "query": {"op": "window", "theta": "clock", "ts_column": 0, "width": 5, "input": {"op": "rel", "name": "e"}}},
    ],
}
# Fields that must be lists (or, for agg, a known name): no replacement by
# another JSON value is a valid spec, except a relation without types.
_SHAPE_FIELDS = {"types", "relations", "rules", "body", "terms", "exprs", "agg"}


def _field_paths(node, prefix=()):
    """The path of every field and list item under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _field_paths(v, prefix + (k,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return doc


# t(g int, v float) with the SUM and AVG of v grouped by g.
_FLOAT_SPEC = {
    "relations": [{"name": "t", "columns": ["g", "v"], "types": ["int", "float"]}],
    "views": [
        {"name": kind, "query": {"op": "aggregate", "agg": kind, "column": 1, "group_by": [0], "input": {"op": "rel", "name": "t"}}}
        for kind in ("sum", "avg")
    ],
}


class TestFloatAggregates:
    def test_float_sum_does_not_depend_on_row_order(self, tmp_path):
        """The same float rows in two orders, in one transaction or one per
        transaction: SUM and AVG add them exactly and round once, so both
        orders end on the same rows, in both modes."""
        sp = write(tmp_path, "s.json", json.dumps(_FLOAT_SPEC))
        rows = [["t", [1, v], 1] for v in (0.1, 0.2, 0.3)]
        for split in (False, True):
            ends = set()
            for order in (rows, rows[::-1]):
                txs = [[r] for r in order] if split else [order]
                tp = write(tmp_path, "t.ndjson", "".join(jline({"tx": i, "changes": c}) for i, c in enumerate(txs)))
                for mode in ("incremental", "reference"):
                    out = tmp_path / "o.ndjson"
                    assert main(["run", "--spec", sp, "--trace", tp, "--mode", mode, "--out", str(out)]) == 0
                    last = json.loads(out.read_text().splitlines()[-1])["changes"]
                    ends.add(json.dumps([c for c in last if c[2] == 1]))
            assert ends == {'[["avg", [1, 0.2], 1], ["sum", [1, 0.6], 1]]'}, split


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        p = write(tmp_path, "bad.json", "{")
        assert main(["validate", "--spec", p]) == 2

    def test_flag_overrides_cap(self, tmp_path):
        rc = main(
            ["run", "--spec", str(GOLDENS / "closure.spec.json"), "--trace", str(GOLDENS / "closure.trace.ndjson"),
             "--max-iterations", "2", "--out", str(tmp_path / "o")]
        )
        assert rc == 4

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_max_iterations_below_one_is_2(self, command, cap, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(
            [command, "--spec", str(GOLDENS / "closure.spec.json"), "--trace", str(GOLDENS / "closure.trace.ndjson"),
             "--max-iterations", cap, "--out", str(out)]
        )
        assert rc == 2
        assert "--max-iterations" in capsys.readouterr().err
        assert not out.exists()

    def test_overflow_is_5(self, tmp_path):
        spec = {
            "relations": [{"name": "r", "columns": ["a"]}],
            "views": [{"name": "v", "query": {"op": "rel", "name": "r"}}],
        }
        sp = write(tmp_path, "s.json", json.dumps(spec))
        big = 2**62
        tp = write(
            tmp_path,
            "t.ndjson",
            jline({"tx": 0, "changes": [["r", [1], big]]}) + jline({"tx": 1, "changes": [["r", [1], big]]}),
        )
        assert main(["run", "--spec", sp, "--trace", tp, "--mode", "reference"]) == 5

    @pytest.mark.parametrize(
        "line",
        [
            {"tx": 0, "changes": 5},
            {"tx": 0, "changes": [["t1", 5, 1]]},
            {"tx": 0, "changes": [["t1", "abc", 1]]},
            {"tx": 0, "changes": [[["t1"], [1, 2, 3], 1]]},
            {"tx": 0, "changes": [["t1", [float("inf"), 2, 3], 1]]},
            {"tx": 0, "changes": [["t1", [1, float("-inf"), 3], 1]]},
        ],
    )
    def test_malformed_change_is_2(self, line, tmp_path, capsys):
        tp = write(tmp_path, "t.ndjson", jline(line))
        assert main(["run", "--spec", str(FIG_SPEC), "--trace", tp, "--out", str(tmp_path / "o")]) == 2
        assert f"{tp}:1:" in capsys.readouterr().err
        with pytest.raises(ValidationError):
            list(load_trace(tp))  # no declared relations

    @pytest.mark.parametrize(
        "relations, recursive, view, query, named",
        [
            (_R, None, "v", _window(), "view 'v'"),
            (_R, None, "v", _window(width="5"), "view 'v'"),
            (_R, None, "v", _window(width=True), "view 'v'"),
            ([{"name": "r", "columns": 3}], None, "v", _REL_R, "relation 'r'"),
            ([{"name": ["r"], "columns": ["a"]}], None, "v", _REL_R, "['r']"),
            (_R, {"relations": [{"name": ["p"], "columns": ["a"]}], "rules": []}, "v", _REL_R, "['p']"),
            (_R, None, ["v"], _REL_R, "['v']"),
            (_R, None, "v", {"op": "rel", "name": ["r"]}, "view 'v'"),
            (
                _R,
                {
                    "relations": [{"name": "p", "columns": ["a"]}],
                    "rules": [{"head": {"rel": "p", "terms": ["x"]}, "body": [{"rel": ["r"], "terms": ["x"]}]}],
                },
                "v",
                _REL_R,
                "['r']",
            ),
            (_T, None, "v", _over_t("filter", predicate=[">", ["col", -1], ["const", 5]]), "view 'v'"),
            (_T, None, "v", _over_t("filter", predicate=[">", ["col", True], ["const", 5]]), "view 'v'"),
            (_T, None, "v", _over_t("filter", predicate=[">", ["col", 0], ["const", None]]), "view 'v'"),
            (_T, None, "v", _over_t("filter", predicate=["==", ["col", 0], ["const", ["x"]]]), "view 'v'"),
            (_T, None, "v", _over_t("filter", predicate=["==", ["col", 0], ["const", True]]), "view 'v'"),
            (_T, None, "v", _over_t("map", exprs=[["+", ["const", False], ["col", 0]]]), "view 'v'"),
            (_T, None, "v", _over_t("filter", predicate=["<", ["col", 0], ["const", float("inf")]]), "view 'v'"),
            (_T, None, "v", _over_t("map", exprs=[["+", ["col", 0], ["const", {"a": 1}]]]), "view 'v'"),
            (_T, None, "v", _over_t("project", columns=[True]), "view 'v'"),
            (_T, None, "v", _over_t("aggregate", agg="count", group_by=[True]), "view 'v'"),
            (_T, None, "v", _over_t("aggregate", agg="sum", column=True), "view 'v'"),
            (_T, None, "v", _over_t("window", theta="clock", ts_column=True, width=5), "view 'v'"),
            (_T, None, "v", _join_t([True], [0]), "view 'v'"),
            (_T, None, "v", _join_t([0], [-1]), "view 'v'"),
            (
                _T,
                {
                    "relations": [{"name": "p", "columns": ["a", "b"]}],
                    "rules": [{"head": {"rel": "p", "terms": ["x", {"const": [1]}]},
                               "body": [{"rel": "t", "terms": ["x", "y"]}]}],
                },
                "v",
                {"op": "rel", "name": "p"},
                "bad rule term",
            ),
            (_T, None, "v", {**_over_t("distinct"), "input": {"op": "rel", "name": "clock"}}, "input cannot be an event"),
            (_T, None, "v", {**_join_t([0], [0]), "op": "stream_join"}, "right must be an event stream"),
            (_T, None, "v", _over_t("aggregate", agg="count", input=_STREAM_JOIN_T), "input cannot be an event"),
            (_T, None, "v", _over_t("window", theta="t", ts_column=0, width=5), "must be an event-stream relation"),
        ],
        ids=["window-no-width", "window-str-width", "window-bool-width", "columns-int", "relation-name-list",
             "derived-name-list", "view-name-list", "rel-node-name-list", "atom-name-list", "col-negative",
             "col-bool", "const-null", "const-list", "const-bool-compared", "const-bool-added", "const-infinite",
             "const-object", "project-bool", "group-by-bool",
             "aggregate-column-bool", "ts-column-bool", "join-key-bool", "join-key-negative", "rule-const-list",
             "distinct-over-events", "stream-join-of-tables", "aggregate-over-stream-join", "window-clock-table"],
    )
    def test_malformed_spec_is_2(self, relations, recursive, view, query, named, tmp_path, capsys):
        doc = {"relations": relations, "views": [{"name": view, "query": query}]}
        if recursive is not None:
            doc["recursive"] = recursive
        assert main(["validate", "--spec", write(tmp_path, "s.json", json.dumps(doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("deltaflow: ") and named in err, err

    def test_bool_constant_under_and_or_not_is_valid(self, tmp_path):
        pred = ["or", ["not", ["const", False]], ["and", ["const", True], [">", ["col", 0], ["const", 1]]]]
        doc = {"relations": _T, "views": [{"name": "v", "query": _over_t("filter", predicate=pred)}]}
        assert main(["validate", "--spec", write(tmp_path, "s.json", json.dumps(doc))]) == 0

    @pytest.mark.parametrize(
        "expr",
        [["==", ["col", 0], ["const", 2]], ["and", ["col", 0], ["col", 1]], ["not", ["col", 0]], ["const", True]],
        ids=["comparison", "and", "not", "bool-const"],
    )
    def test_boolean_map_value_is_2_in_every_mode(self, expr, tmp_path, capsys):
        """A map value that is a boolean, which no trace can hold, exits 2
        before tx 0 in validate, run and compare, naming the view."""
        query = {"op": "map", "exprs": [["col", 1], expr], "input": {"op": "rel", "name": "t"}}
        doc = {"relations": [{"name": "t", "columns": ["g", "v"]}], "views": [{"name": "m", "query": query}]}
        sp = write(tmp_path, "s.json", json.dumps(doc))
        tp = write(tmp_path, "t.ndjson", jline({"tx": 0, "changes": [["t", [2, 5], 1]]}))
        out = tmp_path / "o.ndjson"
        for argv in (["validate"], ["run", "--trace", tp, "--out", str(out)], ["compare", "--trace", tp, "--out", str(out)]):
            assert main([*argv, "--spec", sp]) == 2, argv
            assert "view 'm': map value" in capsys.readouterr().err, argv
        assert not out.exists()

    def test_arithmetic_over_a_comparison_is_a_valid_map_value(self, tmp_path):
        query = {"op": "map", "exprs": [["+", ["==", ["col", 0], ["const", 2]], ["const", 1]]], "input": _REL_T}
        sp = write(tmp_path, "s.json", json.dumps({"relations": _T, "views": [{"name": "m", "query": query}]}))
        tp = write(tmp_path, "t.ndjson", jline({"tx": 0, "changes": [["t", [2, 5], 1]]}))
        out = tmp_path / "o.ndjson"
        assert main(["compare", "--spec", sp, "--trace", tp, "--out", str(out)]) == 0
        assert out.read_text() == '{"changes":[["m",[2],1]],"tx":0}\n'

    def test_float_sum_out_of_range_is_2_in_both_modes(self, tmp_path, capsys):
        sp = write(tmp_path, "s.json", json.dumps(_FLOAT_SPEC))
        tp = write(tmp_path, "t.ndjson", jline({"tx": 0, "changes": [["t", [1, 1e308], 3], ["t", [2, 1.0], 1]]}))
        for mode in ("incremental", "reference"):
            assert main(["run", "--spec", sp, "--trace", tp, "--mode", mode, "--out", str(tmp_path / mode)]) == 2
            err = capsys.readouterr().err
            assert "tx 0: SUM over column 1 is outside the float range" in err, (mode, err)

    @pytest.mark.parametrize("bad", [3, "5", ["x"], {"a": 1}, None, True, -1, 1.5], ids=repr)
    def test_every_field_replaced_is_valid_or_exits_2(self, bad, tmp_path, capsys):
        """Each field of a valid spec in turn replaced by a JSON value of
        another shape: the spec is valid or exits 2 with a message, never a
        traceback; a field that must be a list always exits 2."""
        p = tmp_path / "s.json"
        for path in _field_paths(_FULL_SPEC):
            p.write_text(json.dumps(_replaced(_FULL_SPEC, path, bad)))
            rc = main(["validate", "--spec", str(p)])
            err = capsys.readouterr().err
            assert rc in (0, 2), (path, rc)
            assert rc == 0 or err.startswith("deltaflow: "), (path, err)
            if path[-1] in _SHAPE_FIELDS and not (path[-1] == "types" and bad is None):
                assert rc == 2, path

    def test_validate_ok(self, capsys):
        assert main(["validate", "--spec", str(FIG_SPEC), "--trace", str(FIG_TRACE)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["ok"] is True

    def test_divergence_is_3(self, monkeypatch, tmp_path):
        sabotage_incremental(monkeypatch)
        rc = main(["compare", "--spec", str(FIG_SPEC), "--trace", str(FIG_TRACE), "--out", str(tmp_path / "o")])
        assert rc == 3


class TestErrorContext:
    """A cap hit or an overflow in the middle of a trace names its tx."""

    def test_cap_hit_names_tx(self, tmp_path, capsys):
        rc = main(
            ["run", "--spec", str(GOLDENS / "closure.spec.json"), "--trace", str(GOLDENS / "closure.trace.ndjson"),
             "--max-iterations", "2", "--out", str(tmp_path / "o")]
        )
        assert rc == 4
        assert "deltaflow: tx 0: nested domain exceeded 2 iterations" in capsys.readouterr().err

    def test_overflow_names_tx(self, tmp_path, capsys):
        sp = write(tmp_path, "s.json", json.dumps(
            {"relations": [{"name": "r", "columns": ["a"]}], "views": [{"name": "v", "query": {"op": "rel", "name": "r"}}]}
        ))
        row = ["r", [1], 2**62]
        tp = write(tmp_path, "t.ndjson", jline({"tx": 0, "changes": [row]}) + jline({"tx": 1, "changes": [row]}))
        assert main(["run", "--spec", sp, "--trace", tp, "--mode", "reference"]) == 5
        assert "deltaflow: tx 1: weight" in capsys.readouterr().err


class TestBench:
    def test_join_bench_smoke(self, tmp_path):
        out = tmp_path / "b.json"
        rc = main(["bench", "--workload", "join", "--base", "2000", "--delta", "1", "--seed", "1", "--out", str(out)])
        assert rc == 0
        r = json.loads(out.read_text())
        assert r["workload"] == "join" and r["speedup"] > 1

    def test_closure_bench_smoke(self, tmp_path):
        out = tmp_path / "b.json"
        rc = main(["bench", "--workload", "closure", "--base", "40", "--delta", "1", "--seed", "1", "--out", str(out)])
        assert rc == 0
        r = json.loads(out.read_text())
        assert r["incremental_tuples"] < r["reference_tuples"]
        assert r["incremental_ns_per_tick"] > 0 and r["reference_ns_per_tick"] > 0

    def test_runs_as_a_module_from_a_checkout(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        cmd = [sys.executable, "-m", "deltaflow", "bench", "--workload", "join", "--base", "2000"]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["workload"] == "join"


class TestOperatorCoverage:
    def test_all_view_operators_compare_clean(self, tmp_path):
        doc = {
            "relations": [
                {"name": "a", "columns": ["k", "v"]},
                {"name": "b", "columns": ["k", "w"]},
            ],
            "recursive": {
                "relations": [{"name": "link", "columns": ["x", "y"]}],
                "rules": [
                    {"head": {"rel": "link", "terms": ["x", "y"]}, "body": [{"rel": "a", "terms": ["x", "y"]}]},
                    {
                        "head": {"rel": "link", "terms": ["x", "y"]},
                        "body": [{"rel": "a", "terms": ["x", "z"]}, {"rel": "link", "terms": ["z", "y"]}],
                    },
                ],
            },
            "views": [
                {"name": "mapped", "query": {"op": "map", "exprs": [["+", ["col", 0], ["col", 1]], ["col", 0]],
                                             "input": {"op": "rel", "name": "a"}}},
                {"name": "totals", "query": {"op": "aggregate", "agg": "sum", "column": 1, "group_by": [0],
                                             "input": {"op": "rel", "name": "a"}}},
                {"name": "ncount", "query": {"op": "aggregate", "agg": "count",
                                             "input": {"op": "rel", "name": "a"}}},
                {"name": "both", "query": {"op": "intersect", "left": {"op": "rel", "name": "a"},
                                           "right": {"op": "rel", "name": "b"}}},
                {"name": "only_a", "query": {"op": "except", "left": {"op": "rel", "name": "a"},
                                             "right": {"op": "rel", "name": "b"}}},
                {"name": "everything", "query": {"op": "union_all", "left": {"op": "rel", "name": "a"},
                                                 "right": {"op": "rel", "name": "b"}}},
                {"name": "pairs", "query": {"op": "cartesian", "left": {"op": "project", "columns": [0], "input": {"op": "rel", "name": "a"}},
                                            "right": {"op": "project", "columns": [0], "input": {"op": "rel", "name": "b"}}}},
                {"name": "far", "query": {"op": "filter", "predicate": [">", ["col", 1], ["const", 2]],
                                          "input": {"op": "rel", "name": "link"}}},
                {"name": "no_link", "query": {"op": "antijoin", "left": {"op": "rel", "name": "a"},
                                              "right": {"op": "rel", "name": "link"}, "left_key": [0], "right_key": [0]}},
            ],
        }
        sp = write(tmp_path, "s.json", json.dumps(doc))
        import random

        rng = random.Random(6)
        lines = []
        for tx in range(6):
            changes = []
            for _ in range(rng.randrange(4)):
                changes.append(["a", [rng.randrange(4), rng.randrange(4)], rng.choice([1, 1, -1])])
            for _ in range(rng.randrange(3)):
                changes.append(["b", [rng.randrange(4), rng.randrange(4)], rng.choice([1, 1, -1])])
            lines.append(jline({"tx": tx, "changes": changes}))
        tp = write(tmp_path, "t.ndjson", "".join(lines))
        assert main(["compare", "--spec", sp, "--trace", tp, "--out", str(tmp_path / "o")]) == 0

    def test_recursive_only_spec_defaults_views(self):
        doc = {
            "relations": [{"name": "E", "columns": ["h", "t"]}],
            "recursive": {
                "relations": [{"name": "R", "columns": ["s", "t"]}],
                "rules": [
                    {"head": {"rel": "R", "terms": ["x", "y"]}, "body": [{"rel": "E", "terms": ["x", "y"]}]}
                ],
            },
        }
        spec = compile_spec(doc)
        assert spec.view_names == ["R"]

    def test_unknown_relation_in_trace(self, tmp_path):
        spec = load_spec(str(FIG_SPEC))
        p = write(tmp_path, "t.ndjson", jline({"tx": 0, "changes": [["ghost", [1], 1]]}))
        with pytest.raises(ValidationError):
            list(load_trace(p, spec.relations))


class TestTypedErrors:
    """Values of clashing types in an untyped relation end in exit 2 with a
    message naming the operator and the tx, not in a Python traceback."""

    def run_cli(self, tmp_path, query, rows):
        spec = {"relations": [{"name": "r", "columns": ["a", "b"]}], "views": [{"name": "v", "query": query}]}
        sp = write(tmp_path, "s.json", json.dumps(spec))
        tp = write(tmp_path, "t.ndjson", "".join(jline({"tx": tx, "changes": [["r", row, 1]]}) for tx, row in rows))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        cmd = [sys.executable, "-m", "deltaflow.cli", "compare", "--spec", sp, "--trace", tp]
        return subprocess.run(cmd, capture_output=True, text=True, env=env)

    def test_comparison_of_str_and_int(self, tmp_path):
        pred = {"op": "filter", "predicate": [">", ["col", 0], ["const", 1]], "input": {"op": "rel", "name": "r"}}
        proc = self.run_cli(tmp_path, pred, [(0, [2, 1]), (5, ["x", 1])])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "tx 5" in proc.stderr and "operator 'filter'" in proc.stderr

    def test_map_folded_into_a_join(self, tmp_path):
        # the incremental circuit runs the map inside the join's probe loop
        joined = {"op": "join", "left": {"op": "rel", "name": "r"}, "right": {"op": "rel", "name": "r"},
                  "left_key": [0], "right_key": [0]}
        query = {"op": "map", "exprs": [["col", 0], ["+", ["col", 1], ["const", 1]]], "input": joined}
        proc = self.run_cli(tmp_path, query, [(0, [1, 5]), (4, [2, "x"])])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "tx 4" in proc.stderr and "operator 'join+map'" in proc.stderr

    def test_min_over_mixed_column(self, tmp_path):
        agg = {"op": "aggregate", "agg": "min", "column": 1, "input": {"op": "rel", "name": "r"}}
        proc = self.run_cli(tmp_path, agg, [(0, [1, 5]), (3, [2, "x"])])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "tx 3" in proc.stderr and "operator 'aggregate'" in proc.stderr


class TestStepErrorsNameTheView:
    """An operator error at a tx names the tx, the operator and every view
    that reads the failing node (sorted); the run exits 2 and keeps the
    lines of the transactions before it."""

    BIG = {"op": "filter", "predicate": [">", ["col", 0], ["const", 1]], "input": {"op": "rel", "name": "t"}}
    SPEC = {
        "relations": [{"name": "t", "columns": ["a"], "types": ["str"]}, {"name": "u", "columns": ["a"]}],
        "views": [{"name": "big", "query": BIG}, {"name": "all_u", "query": {"op": "rel", "name": "u"}}],
    }

    @pytest.mark.parametrize("mode", ["incremental", "reference", "compare"])
    def test_cli_names_the_view(self, mode, tmp_path, capsys):
        sp = write(tmp_path, "s.json", json.dumps(self.SPEC))
        rows = [(0, "u", [1]), (1, "t", ["x"]), (2, "u", [2])]
        tp = write(tmp_path, "t.ndjson", "".join(jline({"tx": tx, "changes": [[r, row, 1]]}) for tx, r, row in rows))
        assert main(["validate", "--spec", sp, "--trace", tp]) == 0
        capsys.readouterr()
        out = tmp_path / "o.ndjson"
        assert main(["run", "--mode", mode, "--spec", sp, "--trace", tp, "--out", str(out)]) == 2
        assert out.read_text() == '{"changes":[["all_u",[1],1]],"tx":0}\n'
        assert capsys.readouterr().err == (
            "deltaflow: tx 1: operator 'filter': '>' not supported between instances of 'str' and 'int'"
            " (in view 'big')\n"
        )

    WINDOW = {
        "relations": [{"name": "t", "columns": ["k", "ts"]}, {"name": "clk", "columns": ["now"], "kind": "stream"}],
        "views": [{"name": "w", "query": {
            "op": "window", "input": {"op": "rel", "name": "t"}, "ts_column": 1, "width": 5, "theta": "clk"}}],
    }

    @pytest.mark.parametrize("mode", ["incremental", "reference", "compare"])
    @pytest.mark.parametrize(
        "changes, clash",
        [
            ([["t", [2, "a"], 1]], "timestamp column 1 against clock 4: '>=' not supported"),
            ([["clk", ["x"], 1]], "clock values of mixed types: '<' not supported"),
        ],
        ids=["str_timestamp", "str_clock"],
    )
    def test_window_type_clash(self, mode, changes, clash, tmp_path, capsys):
        sp = write(tmp_path, "s.json", json.dumps(self.WINDOW))
        first = {"tx": 0, "changes": [["t", [1, 3], 1], ["clk", [4], 1]]}
        tp = write(tmp_path, "t.ndjson", jline(first) + jline({"tx": 1, "changes": changes}))
        assert main(["validate", "--spec", sp, "--trace", tp]) == 0
        capsys.readouterr()
        out = tmp_path / "o.ndjson"
        assert main(["run", "--mode", mode, "--spec", sp, "--trace", tp, "--out", str(out)]) == 2
        assert out.read_text() == '{"changes":[["w",[1,3],1]],"tx":0}\n'
        err = capsys.readouterr().err
        assert err.startswith(f"deltaflow: tx 1: operator 'window': {clash}") and err.endswith(" (in view 'w')\n")

    @pytest.mark.parametrize("mode", ["incremental", "reference"])
    def test_a_shared_node_names_every_view_that_reads_it(self, mode):
        c = Circuit()
        t, u = c.add_source("t"), c.add_source("u")
        big = build_filter(c, t, BinOp(">", Col(0), Const(1)))
        c.add_sink(build_projection(c, big, [0, 0]), "wide")
        c.add_sink(big, "big")
        c.add_sink(u, "all_u")
        relations = {name: RelationDecl(name, Schema(("a",))) for name in ("t", "u")}
        spec = CircuitSpec(relations=relations, view_names=["wide", "big", "all_u"], circuit=c)
        txs = [Transaction(0, {"u": ZSet({(1,): 1})}), Transaction(1, {"t": ZSet({("x",): 1})})]
        report = iter(RunReport(compile_circuits(spec, mode), txs, mode))
        assert next(report)[0] == 0
        with pytest.raises(ValidationError, match=r"^tx 1: operator 'filter': '>' .* \(in views 'big', 'wide'\)$"):
            next(report)


class TestNonFiniteOutput:
    """A map may compute an infinity or a NaN, which JSON cannot encode: the
    run exits 2 naming the tx and the view, and keeps the lines before it."""

    BIG = ["*", ["col", 1], ["const", 1e308]]

    @pytest.mark.parametrize("mode", ["incremental", "reference"])
    @pytest.mark.parametrize("expr", [BIG, ["-", BIG, BIG]], ids=["inf", "nan"])
    def test_exit_2_after_the_lines_before_it(self, expr, mode, tmp_path, capsys):
        query = {"op": "map", "exprs": [expr, ["col", 0]], "input": {"op": "rel", "name": "r"}}
        spec = {"relations": [{"name": "r", "columns": ["a", "b"]}], "views": [{"name": "v", "query": query}]}
        sp = write(tmp_path, "s.json", json.dumps(spec))
        rows = [(0, [1, 0]), (1, [2, 5]), (2, [3, 0])]
        tp = write(tmp_path, "t.ndjson", "".join(jline({"tx": tx, "changes": [["r", row, 1]]}) for tx, row in rows))
        out = tmp_path / "o.ndjson"
        assert main(["run", "--mode", mode, "--spec", sp, "--trace", tp, "--out", str(out)]) == 2
        assert out.read_text() == '{"changes":[["v",[0.0,1],1]],"tx":0}\n'
        assert capsys.readouterr().err.startswith("deltaflow: tx 1: view 'v' emits a non-finite number")


class TestEventViews:
    def test_stream_join_and_window_compare(self, tmp_path):
        doc = {
            "relations": [
                {"name": "acct", "columns": ["id", "region"]},
                {"name": "hits", "columns": ["id", "what"], "kind": "stream"},
                {"name": "clk", "columns": ["now"], "kind": "stream"},
            ],
            "views": [
                {"name": "hit_regions", "query": {
                    "op": "stream_join",
                    "left": {"op": "rel", "name": "acct"},
                    "right": {"op": "rel", "name": "hits"},
                    "left_key": [0], "right_key": [0]}},
                {"name": "recent", "query": {
                    "op": "window", "input": {"op": "rel", "name": "acct"}, "ts_column": 0, "width": 5, "theta": "clk"}},
            ],
        }
        sp = write(tmp_path, "s.json", json.dumps(doc))
        tp = write(
            tmp_path,
            "t.ndjson",
            jline({"tx": 0, "changes": [["acct", [1, "eu"], 1], ["clk", [1], 1]]})
            + jline({"tx": 1, "changes": [["hits", [1, "login"], 1], ["clk", [3], 1]]})
            + jline({"tx": 2, "changes": [["acct", [9, "us"], 1], ["hits", [9, "x"], 1], ["clk", [9], 1]]}),
        )
        out = tmp_path / "o.ndjson"
        rc = main(["compare", "--spec", sp, "--trace", tp, "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert ["hit_regions", [1, "eu", 1, "login"], 1] in lines[1]["changes"]
        assert ["hit_regions", [9, "us", 9, "x"], 1] in lines[2]["changes"]
        # window expiry: at clk 9 the account with ts 1 leaves
        assert ["recent", [1, "eu"], -1] in lines[2]["changes"]


class TestExplain:
    """`explain` prints the optimized incremental circuit, one line per
    node with the rule that built it, nested bodies indented."""

    CLOSURE = """\
    0 source E depth=0 rule=linear
    1 delay depth=0 rule=distinct state
    2 plus depth=0 rule=distinct
    3 lifted distinct_delta depth=0 rule=distinct
    4 lifted map depth=0 rule=linear
    5 plus depth=0 rule=linear
    6 nested depth=0 rule=nested
      0 delta0 depth=1 rule=linear
      1 delay depth=1 rule=linear state
      2 lifted filter depth=1 rule=linear
      3 lifted map depth=1 rule=linear
      4 lifted map depth=1 rule=linear
      5 lifted map depth=1 rule=linear
      6 lifted map depth=1 rule=linear
      7 lifted filter depth=1 rule=linear
      8 lifted map depth=1 rule=linear
      9 trace depth=0 rule=bilinear state
      10 trace depth=0 rule=bilinear state
      11 lifted join+map depth=1 rule=bilinear
      12 plus depth=1 rule=linear
      13 trace depth=0 rule=distinct state
      14 lifted distinct_delta depth=1 rule=distinct
      15 lifted map depth=1 rule=linear
      16 plus depth=1 rule=linear
      17 stream_sum depth=1 rule=linear state
    7 lifted filter depth=0 rule=linear
    8 lifted map depth=0 rule=linear view=R
"""

    AGGREGATES = """\
    0 source t depth=0 rule=linear
    1 source u depth=0 rule=linear
    2 trace depth=0 rule=linear aggregate state
    3 lifted aggregate depth=0 rule=linear aggregate view=t_count
    4 trace depth=0 rule=linear aggregate state
    5 lifted aggregate depth=0 rule=linear aggregate view=t_sum_i
    6 trace depth=0 rule=linear aggregate state
    7 lifted aggregate depth=0 rule=linear aggregate view=t_sum_f
    8 trace depth=0 rule=linear aggregate state
    9 lifted aggregate depth=0 rule=linear aggregate view=t_avg_i
    10 trace depth=0 rule=linear aggregate state
    11 lifted aggregate depth=0 rule=linear aggregate view=t_avg_f
    12 delay depth=0 rule=general state
    13 plus depth=0 rule=general
    14 lifted aggregate depth=0 rule=general
    15 delay depth=0 rule=general state
    16 plus minus depth=0 rule=general view=t_min_i
    17 lifted aggregate depth=0 rule=general
    18 delay depth=0 rule=general state
    19 plus minus depth=0 rule=general view=t_max_i
    20 lifted aggregate depth=0 rule=general
    21 delay depth=0 rule=general state
    22 plus minus depth=0 rule=general view=t_min_f
    23 lifted aggregate depth=0 rule=general
    24 delay depth=0 rule=general state
    25 plus minus depth=0 rule=general view=t_max_f
    26 lifted aggregate depth=0 rule=general
    27 delay depth=0 rule=general state
    28 plus minus depth=0 rule=general view=t_min_s
    29 lifted aggregate depth=0 rule=general
    30 delay depth=0 rule=general state
    31 plus minus depth=0 rule=general view=t_max_s
    32 trace depth=0 rule=linear aggregate state
    33 lifted aggregate depth=0 rule=linear aggregate view=t_sum_gs
    34 trace depth=0 rule=linear aggregate state
    35 lifted aggregate depth=0 rule=linear aggregate view=u_count
    36 trace depth=0 rule=linear aggregate state
    37 lifted aggregate depth=0 rule=linear aggregate view=u_sum
    38 trace depth=0 rule=linear aggregate state
    39 lifted aggregate depth=0 rule=linear aggregate view=u_sum_f
    40 delay depth=0 rule=general state
    41 plus depth=0 rule=general
    42 lifted aggregate depth=0 rule=general
    43 delay depth=0 rule=general state
    44 plus minus depth=0 rule=general view=u_min
    45 lifted aggregate depth=0 rule=general
    46 delay depth=0 rule=general state
    47 plus minus depth=0 rule=general view=u_max_s
    48 trace depth=0 rule=linear aggregate state
    49 lifted aggregate depth=0 rule=linear aggregate view=u_avg
    50 trace depth=0 rule=linear aggregate state
    51 lifted aggregate depth=0 rule=linear aggregate view=u_avg_f
"""

    @pytest.mark.parametrize("golden", ["closure", "aggregates"])
    def test_golden_output(self, golden, capsys):
        assert main(["explain", "--spec", str(GOLDENS / f"{golden}.spec.json")]) == 0
        assert capsys.readouterr().out == textwrap.dedent(getattr(self, golden.upper()))

    def test_bad_spec_is_2(self, tmp_path, capsys):
        assert main(["explain", "--spec", write(tmp_path, "bad.json", "{")]) == 2
        assert capsys.readouterr().err.startswith("deltaflow: ")
