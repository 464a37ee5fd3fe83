"""The rewrite's rule tables: every node of an incremental circuit names
the row that built it, and a node that no row names is an error."""

from collections import Counter

import pytest
from deltaflow import Circuit, CircuitError, WindowSpec, compile_query, incrementalize_naive, optimize
from deltaflow.datalog import build_while
from deltaflow.relational import build_aggregate, build_union, build_window
from deltaflow.rewrite import OWN_CLOCK, PARENT_CLOCK
from deltaflow.runner import compile_circuits
from deltaflow.specfile import compile_spec
from test_census import _spec_docs

ROWS = {name for name, _, _ in OWN_CLOCK + PARENT_CLOCK}

# The rules of every node, nested bodies included, per golden name or
# perfbench workload.
RULE_CENSUS = {
    "agg-groups": {"general": 5, "linear": 1, "linear aggregate": 2},
    "aggregates": {"general": 28, "linear": 2, "linear aggregate": 22},
    "batch_join": {"bilinear": 12, "linear": 4, "linear aggregate": 2},
    "closure": {"bilinear": 3, "distinct": 5, "linear": 18, "nested": 1},
    "closure-churn": {"bilinear": 3, "distinct": 5, "linear": 16, "nested": 1},
    "filtered_join": {"bilinear": 3, "distinct": 3, "linear": 6},
    "join-batch": {"bilinear": 3, "distinct": 3, "linear": 3},
    "join-point": {"bilinear": 3, "distinct": 3, "linear": 3},
    "streams": {"bilinear": 2, "events": 2, "linear": 1, "window": 3},
}


def _nodes(c):
    """Every node of c, nested bodies included."""
    for n in c.nodes:
        yield n
        if n.kind == "nested":
            yield from _nodes(n.meta["inner"])


def runs_whole(c):
    """Whether c runs a nested domain whole: every node but a source,
    nested bodies included, names the general rule."""
    nodes = [n for n in _nodes(c) if n.kind != "source"]
    return any(n.kind == "nested" for n in nodes) and {n.meta["rule"] for n in nodes} == {"general"}


def test_every_golden_and_workload_is_pinned():
    assert sorted(_spec_docs()) == sorted(RULE_CENSUS)


@pytest.mark.parametrize("name", sorted(RULE_CENSUS))
def test_every_node_names_a_row(name):
    inc = compile_circuits(compile_spec(_spec_docs()[name]), "incremental").incremental
    rules = Counter(n.meta.get("rule") for n in _nodes(inc))
    assert set(rules) <= ROWS, rules
    assert rules == RULE_CENSUS[name]


def test_a_node_no_row_names_is_an_error():
    """A window_fold reads changes already: no own-clock row names it."""
    c = Circuit()
    t, clk = c.add_source("t"), c.add_source("clk", event=True)
    c.add_sink(build_window(c, t, clk, WindowSpec(ts_column=0, width=5)), "w")
    with pytest.raises(CircuitError, match="no incremental rewrite for node kind 'window_fold'"):
        optimize(incrementalize_naive(c))


def test_a_domain_without_a_trace_form_is_general_throughout():
    """An aggregate in a while-loop body has no parent-clock row, so the
    whole domain, body included, takes the general rule."""
    q = Circuit()
    x = q.add_source("x")
    q.add_sink(build_union(q, x, build_aggregate(q, x, "sum", 0, [0])), "x")
    inc = compile_query(build_while(q))[1]
    # I(x) = x + z(I(x)) around the domain, D(y) = y - z(y) after it
    assert [(n.kind, n.label, n.meta["rule"]) for n in inc.nodes] == [
        ("source", "", "linear"),
        ("delay", "", "general"),
        ("plus", "", "general"),
        ("nested", "", "general"),
        ("delay", "", "general"),
        ("plus", "minus", "general"),
    ]
    assert runs_whole(inc)
