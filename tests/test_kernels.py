"""The compiled per-row kernels against their plain definitions: canonical
order, expression closures, and join probes over every operand shape."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest
from deltaflow import Circuit, IndexedZSet, TypeMismatchError, ValidationError, ZSet, differential_check, group_by
from deltaflow.expr import BinOp, Col, Const, KeyFunc, MapFunc, Not
from deltaflow.relational import AggregateFn, FilterFn, JoinFn, build_antijoin, build_equijoin, build_projection, build_semijoin
from deltaflow.trace import dump_transaction
from deltaflow.zset import canonical_keys, sort_key
from oracles import eval_expr

# -- canonical order -------------------------------------------------------------

numbers = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)
mixed_scalars = st.one_of(numbers, st.text(alphabet="ab1", max_size=2))
mixed_elements = st.recursive(mixed_scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8)


class TestCanonicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(mixed_elements, max_size=12))
    def test_equals_sort_key_order(self, elems):
        d = dict.fromkeys(elems, 1)
        expected = sorted(d, key=sort_key)
        assert canonical_keys(d) == expected
        assert list(ZSet(d)) == expected
        assert [x for x, _ in ZSet(d).items()] == expected
        assert IndexedZSet({k: ZSet({0: 1}) for k in d}).keys() == expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(numbers, st.text(alphabet="ab", max_size=2)), max_size=12))
    def test_dump_follows_sort_key_order(self, rows):
        z = ZSet(dict.fromkeys(rows, 2))
        printed = [[float(v) if isinstance(v, Fraction) and v.denominator != 1 else v for v in row] for row in sorted(z, key=sort_key)]
        want = [["v", row, 2] for row in printed]
        assert json.loads(dump_transaction(0, {"v": z})) == {"changes": want, "tx": 0}

    def test_fraction_prints_as_number(self):
        z = ZSet({(Fraction(3, 2), Fraction(4, 2)): 1})
        assert dump_transaction(7, {"v": z}) == '{"changes":[["v",[1.5,2],1]],"tx":7}\n'


# -- expression closures ---------------------------------------------------------

columns = st.integers(min_value=-1, max_value=3)
leaves = st.one_of(columns.map(Col), st.integers(min_value=-3, max_value=3).map(Const))
ops = st.sampled_from(["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "and", "or"])
exprs = st.recursive(
    leaves,
    lambda inner: st.one_of(st.builds(BinOp, ops, inner, inner), inner.map(Not)),
    max_leaves=6,
)
scalar_values = st.one_of(st.integers(min_value=-3, max_value=3), st.text(alphabet="ab", min_size=1, max_size=2))
row_or_scalar = st.one_of(scalar_values, st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(tuple))


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as e:  # the exception class is part of the semantics
        return ("raises", type(e))


class TestCompiledExpressions:
    @settings(max_examples=400, deadline=None)
    @given(exprs, row_or_scalar)
    def test_expression_matches_tree(self, e, elem):
        assert outcome(e, elem) == outcome(eval_expr, e, elem)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(columns, exprs), max_size=4), row_or_scalar, st.sampled_from([KeyFunc, MapFunc]))
    def test_tuple_funcs_match_tree(self, items, elem, cls):
        f = cls(items)
        tree = [Col(i) if isinstance(i, int) else i for i in items]
        assert outcome(f, elem) == outcome(lambda x: tuple(eval_expr(t, x) for t in tree), elem)

    def test_scalar_column_zero_is_the_whole_scalar(self):
        assert Col(0)("abc") == "abc"
        assert KeyFunc([0])("abc") == ("abc",)
        assert KeyFunc([0, 0])("abc") == ("abc", "abc")
        assert MapFunc([Col(0), Const(1)])(7) == (7, 1)

    def test_out_of_range_columns(self):
        assert outcome(KeyFunc([2]), (1, 2)) == ("raises", IndexError)
        assert outcome(KeyFunc([0, 2]), (1, 2)) == ("raises", IndexError)
        assert outcome(KeyFunc([1]), "abc") == ("raises", ValidationError)
        assert outcome(BinOp("+", Col(1), Const(1)), 5) == ("raises", ValidationError)

    def test_host_callables_still_accepted(self):
        f = JoinFn(lambda x: x[0], lambda y: y[1])
        assert f(ZSet({(1, "a"): 2}), ZSet({("b", 1): 3})) == ZSet({(1, "a", "b", 1): 6})


# -- type clashes ------------------------------------------------------------------


def one_operator_circuit(fn, label):
    c = Circuit()
    c.add_sink(c.add_lifted(fn, [c.add_source("r")], label=label), "o")
    return c


class TestTypeClashes:
    def test_expression_clash_names_the_operator(self):
        c = one_operator_circuit(FilterFn(BinOp(">", Col(0), Const(1))), "filter")
        with pytest.raises(TypeMismatchError, match="operator 'filter': '>' not supported"):
            c.step({"r": ZSet({("x", 1): 1})})

    def test_min_over_mixed_column(self):
        c = one_operator_circuit(AggregateFn("min", column=1), "aggregate")
        with pytest.raises(TypeMismatchError, match="operator 'aggregate': MIN over column 1 of mixed types"):
            c.step({"r": ZSet({(1, 5): 1, (2, "x"): 1})})

    def test_host_callable_type_error_passes_through(self):
        def bad(x):
            return x[0] > 1

        c = one_operator_circuit(FilterFn(bad), "filter")
        with pytest.raises(TypeError) as info:
            c.step({"r": ZSet({("x", 1): 1})})
        assert not isinstance(info.value, ValidationError)


# -- join probes -------------------------------------------------------------------

weights = st.integers(min_value=-3, max_value=3).filter(bool)
join_rows = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.integers(0, 3)),
    st.integers(0, 3),
)
weighted = st.dictionaries(join_rows, weights, max_size=6).map(ZSet)


def first(x):
    return (x[0] if type(x) is tuple else x,)


def nested_loop_join(a, b, semi):
    out = {}
    for x, wx in a.raw_items():
        for y, wy in b.raw_items():
            if first(x) == first(y):
                row = x if semi else (x if type(x) is tuple else (x,)) + (y if type(y) is tuple else (y,))
                out[row] = out.get(row, 0) + wx * wy
    return ZSet({r: w for r, w in out.items() if w})


class TestJoinProbes:
    @settings(max_examples=200, deadline=None)
    @given(weighted, weighted, st.booleans(), st.booleans(), st.sampled_from(["join", "semi"]))
    def test_every_operand_shape_matches_nested_loops(self, a, b, index_a, index_b, mode):
        fn = JoinFn(first, first, mode=mode)
        left = group_by(first, a) if index_a else a
        right = group_by(first, b) if index_b else b
        assert fn(left, right) == nested_loop_join(a, b, mode == "semi")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(weighted, weighted), min_size=1, max_size=6), st.sampled_from(["join", "semi", "anti"]))
    def test_incremental_join_matches_recompute(self, ticks, kind):
        c = Circuit()
        a, b = c.add_source("a"), c.add_source("b")
        build = {"join": build_equijoin, "semi": build_semijoin, "anti": build_antijoin}[kind]
        out = build(c, a, b, KeyFunc([0]), KeyFunc([0]))
        if kind == "join":
            out = build_projection(c, out, [0])
        c.add_sink(out, "o")
        assert differential_check(c, [[{"a": da, "b": db} for da, db in ticks]]) is None
