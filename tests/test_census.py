"""The incremental circuit of every golden spec and of every perfbench
workload's spec, pinned as a census of (kind, label) node counts: a change
to the compile pipeline that should leave these circuits alone must leave
this table alone too."""

import functools
import importlib.util
import json
from pathlib import Path

import pytest
from deltaflow.runner import compile_circuits
from deltaflow.specfile import compile_spec

ROOT = Path(__file__).parents[1]
GOLDENS = ROOT / "tests" / "goldens"

# "kind:label" -> count, per golden name or perfbench workload.
INCREMENTAL_CENSUS = {
    "aggregates": {"delay:": 10, "lifted:aggregate": 19, "plus:": 2, "plus:minus": 8, "source:": 2, "trace:": 11},
    "batch_join": {
        "lifted:aggregate": 1, "lifted:cartesian": 1, "lifted:join": 3, "lifted:project": 1, "source:": 3,
        "trace:": 9,
    },
    "closure": {
        "delay:": 2, "delta0:": 1, "lifted:distinct_delta": 2, "lifted:filter": 3,
        "lifted:join": 1, "lifted:map": 8, "nested:": 1, "plus:": 4, "source:": 1, "stream_sum:": 1,
        "trace:": 3,
    },
    "filtered_join": {
        "delay:": 1, "lifted:distinct_delta": 1, "lifted:filter": 2, "lifted:join": 1,
        "lifted:project": 2, "plus:": 1, "source:": 2, "trace:": 2,
    },
    "streams": {
        "delay:": 1, "lifted:stream_join": 1, "plus:minus": 1, "source:": 3, "trace:": 1,
        "window_fold:window": 1,
    },
    "join-point": {
        "delay:": 1, "lifted:distinct_delta": 1, "lifted:filter": 1, "lifted:join": 1, "plus:": 1,
        "source:": 2, "trace:": 2,
    },
    "join-batch": {
        "delay:": 1, "lifted:distinct_delta": 1, "lifted:filter": 1, "lifted:join": 1, "plus:": 1,
        "source:": 2, "trace:": 2,
    },
    "closure-churn": {
        "delay:": 2, "delta0:": 1, "lifted:distinct_delta": 2, "lifted:filter": 3,
        "lifted:join": 1, "lifted:map": 6, "nested:": 1, "plus:": 4, "source:": 1, "stream_sum:": 1,
        "trace:": 3,
    },
    "agg-groups": {"delay:": 2, "lifted:aggregate": 2, "plus:": 1, "plus:minus": 1, "source:": 1, "trace:": 1},
}


def _perfbench_gen():
    """perfbench/gen.py, loaded from its file (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@functools.lru_cache(maxsize=None)
def _spec_docs():
    docs = {p.name[: -len(".spec.json")]: json.loads(p.read_text()) for p in sorted(GOLDENS.glob("*.spec.json"))}
    gen = _perfbench_gen()
    for workload in gen.WORKLOADS:
        docs[workload] = gen.generate(workload, 1, 0, [])[0]
    return docs


def test_every_golden_and_workload_is_pinned():
    assert sorted(_spec_docs()) == sorted(INCREMENTAL_CENSUS)


@pytest.mark.parametrize("name", sorted(INCREMENTAL_CENSUS))
def test_incremental_census(name):
    inc = compile_circuits(compile_spec(_spec_docs()[name]), "incremental").incremental
    got = {f"{kind}:{label}": n for (kind, label), n in inc.census().items()}
    assert got == INCREMENTAL_CENSUS[name]
