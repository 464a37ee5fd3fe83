"""Circuit spec files: a JSON document declaring relations, views, and
recursive rule blocks, compiled to a scalar query circuit.

Views are expression trees over the relational operators; recursive blocks
are Datalog-style rules whose derived relations views may then reference.
"""

import json
import math
from dataclasses import dataclass

from .circuit import Circuit
from .datalog import Atom, Rule, RuleProgram, compile_program_into
from .errors import ValidationError
from .expr import BinOp, Col, Const, KeyFunc, Not, parse_expr
from .relational import (
    AGGREGATES,
    JoinFn,
    Schema,
    WindowSpec,
    build_aggregate,
    build_antijoin,
    build_cartesian,
    build_difference,
    build_distinct,
    build_equijoin,
    build_filter,
    build_intersect,
    build_map,
    build_projection,
    build_union,
    build_union_all,
    build_window_snapshot,
)

_SCALAR_TYPES = {"int", "float", "str"}


@dataclass
class RelationDecl:
    name: str
    schema: Schema
    kind: str = "table"  # "stream" relations are per-tick events, not integrated


@dataclass
class CircuitSpec:
    relations: dict
    view_names: list
    circuit: Circuit
    program: RuleProgram = None


def load_spec(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: spec parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    except OSError as e:
        raise ValidationError(f"cannot read spec {path}: {e}")
    return compile_spec(doc)


def compile_spec(doc):
    if not isinstance(doc, dict):
        raise ValidationError("spec document must be a JSON object")
    relations = _parse_relations(doc.get("relations", []))
    program = _parse_program(doc.get("recursive"), relations)

    c = Circuit()
    env = {}  # name -> (node, arity)
    for name, decl in relations.items():
        env[name] = (c.add_source(name, event=decl.kind == "stream"), decl.schema.arity)

    if program is not None:
        rel_nodes = {name: env[name][0] for name in program.inputs}
        compile_program_into(c, program, rel_nodes)
        for name, arity in program.outputs.items():
            env[name] = (rel_nodes[name], arity)

    views = doc.get("views", [])
    if not isinstance(views, list):
        raise ValidationError("'views' must be a list")
    view_names = []
    seen = set(env)
    for v in views:
        if not isinstance(v, dict) or "name" not in v or "query" not in v:
            raise ValidationError("each view needs 'name' and 'query'")
        name = _name(v["name"], "view")
        if name in seen:
            raise ValidationError(f"duplicate name {name!r}")
        seen.add(name)
        c.add_sink(_compile_query(c, v["query"], env, f"view {name!r}")[0], name)
        view_names.append(name)
    if not view_names and program is not None:
        # No explicit views: every derived relation is a view.
        for name in sorted(program.outputs):
            c.add_sink(env[name][0], name)
            view_names.append(name)
    if not view_names:
        raise ValidationError("spec defines no views")
    return CircuitSpec(relations=relations, view_names=view_names, circuit=c, program=program)


def _parse_relations(items):
    if not isinstance(items, list):
        raise ValidationError("'relations' must be a list")
    out = {}
    for item in items:
        name, columns = _declared(item, "relation")
        if name in out:
            raise ValidationError(f"duplicate relation {name!r}")
        types = item.get("types")
        if types is not None:
            for t in _list(types, f"relation {name!r}: 'types'"):
                if not isinstance(t, str) or t not in _SCALAR_TYPES:
                    raise ValidationError(f"relation {name!r}: unknown type {t!r}")
            types = tuple(types)
        kind = item.get("kind", "table")
        if kind not in ("table", "stream"):
            raise ValidationError(f"relation {name!r}: kind must be 'table' or 'stream'")
        out[name] = RelationDecl(name, Schema(tuple(columns), types), kind)
    return out


def _list(value, what):
    """A spec field that must be a JSON list."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def _name(value, what):
    """A name the spec declares or references, which must be a string."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} name must be a string, got {value!r}")
    return value


def _declared(item, what):
    """The name and the column names of a relation declaration."""
    if not isinstance(item, dict) or "name" not in item or "columns" not in item:
        raise ValidationError(f"bad {what} declaration: {item!r}")
    name, columns = _name(item["name"], what), item["columns"]
    if not isinstance(columns, list) or not all(isinstance(col, str) for col in columns):
        raise ValidationError(f"{what} {name!r}: 'columns' must be a list of column names, got {columns!r}")
    return name, columns


def _parse_program(block, relations):
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ValidationError("'recursive' must be an object with 'relations' and 'rules'")
    derived = {}
    for item in _list(block.get("relations", []), "'recursive' block: 'relations'"):
        name, columns = _declared(item, "derived relation")
        if name in relations or name in derived:
            raise ValidationError(f"duplicate relation {name!r}")
        derived[name] = len(columns)
    rules = []
    for r in _list(block.get("rules", []), "'recursive' block: 'rules'"):
        if not isinstance(r, dict) or "head" not in r or "body" not in r:
            raise ValidationError(f"bad rule: {r!r}")
        head = _parse_atom(r["head"])
        body = _list(r["body"], f"rule for {head.rel!r}: 'body'")
        rules.append(Rule(head=head, body=tuple(_parse_atom(a) for a in body)))
    inputs = {}
    referenced = {a.rel for rule in rules for a in (rule.head, *rule.body)}
    for name in referenced - set(derived):
        if name not in relations:
            raise ValidationError(f"rule references unknown relation {name!r}")
        if relations[name].kind == "stream":
            raise ValidationError(f"rules cannot use event-stream relation {name!r}")
        inputs[name] = relations[name].schema.arity
    program = RuleProgram(inputs=inputs, outputs=derived, rules=rules)
    program.validate()
    return program


def _parse_atom(a):
    if not isinstance(a, dict) or "rel" not in a or "terms" not in a:
        raise ValidationError(f"bad atom: {a!r}")
    rel = _name(a["rel"], "rule atom relation")
    terms = _list(a["terms"], f"atom of relation {rel!r}: 'terms'")
    return Atom(rel=rel, terms=tuple(terms), negated=bool(a.get("negated", False)))


def _col(i, arity, where):
    """A column index: an int that is not a bool, with 0 <= i < arity."""
    if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < arity:
        raise ValidationError(f"{where}: bad column index {i!r} (arity {arity})")
    return i


def _expr(node, arity, where):
    """An expression over rows of the given arity, with its column indexes
    checked and no null, list, object or non-finite constant, which no
    value equals, nor a bool one under a comparison or arithmetic, where
    Python reads true as 1; under and, or and not a bool stays valid."""
    expr = parse_expr(node)
    stack = [(expr, None)]
    while stack:
        e, op = stack.pop()
        if isinstance(e, Col):
            _col(e.index, arity, where)
        elif isinstance(e, Const) and (
            e.value is None
            or isinstance(e.value, (list, dict))
            or (isinstance(e.value, float) and not math.isfinite(e.value))
            or (isinstance(e.value, bool) and op not in (None, "and", "or", "not"))
        ):
            raise ValidationError(f"{where}: bad constant {e.value!r}")
        op = e.op if isinstance(e, BinOp) else "not"
        stack += [(x, op) for x in (getattr(e, a, None) for a in ("left", "right", "inner")) if x is not None]
    return expr


def _parse_keys(keys, arity, where):
    if not isinstance(keys, list):
        raise ValidationError(f"{where}: keys must be a list")
    return [Col(_col(k, arity, where)) if isinstance(k, int) else _expr(k, arity, where) for k in keys]


_BOOL_OPS = frozenset({"==", "!=", "<", "<=", ">", ">=", "and", "or"})


def _compile_query(c, q, env, where):
    """The node and arity of query q.  Only a stream join's right side and
    a window's clock may read an event stream."""
    if not isinstance(q, dict) or "op" not in q:
        raise ValidationError(f"{where}: bad query node {q!r}")
    op = q["op"]

    if op == "rel":
        name = _name(q.get("name"), f"{where}: relation")
        if name not in env:
            raise ValidationError(f"{where}: unknown relation {name!r}")
        return env[name]

    def sub(key, event=False):
        if key not in q:
            raise ValidationError(f"{where}: {op!r} needs {key!r}")
        node, arity = _compile_query(c, q[key], env, where)
        if c.nodes[node].meta["event"] != event:
            raise ValidationError(f"{where}: {op!r} {key} {'must' if event else 'cannot'} be an event stream")
        return node, arity

    if op == "filter":
        node, arity = sub("input")
        pred = _expr(q.get("predicate"), arity, where)
        return build_filter(c, node, pred), arity

    if op == "project":
        node, arity = sub("input")
        cols = [_col(i, arity, where) for i in _list(q.get("columns"), f"{where}: projection 'columns'")]
        return build_projection(c, node, cols), len(cols)

    if op == "map":
        node, arity = sub("input")
        exprs = [_expr(e, arity, where) for e in _list(q.get("exprs", []), f"{where}: map 'exprs'")]
        if not exprs:
            raise ValidationError(f"{where}: map needs at least one expression")
        for e in exprs:
            if (
                isinstance(e, Not)
                or isinstance(e, BinOp) and e.op in _BOOL_OPS
                or isinstance(e, Const) and isinstance(e.value, bool)
            ):
                raise ValidationError(f"{where}: map value {e.to_json()!r} is a boolean, which no trace can hold")
        return build_map(c, node, exprs), len(exprs)

    if op == "distinct":
        node, arity = sub("input")
        return build_distinct(c, node), arity

    if op in ("union", "union_all", "except", "intersect"):
        left, right = sub("left"), sub("right")
        if left[1] != right[1]:
            raise ValidationError(f"{where}: {op!r} operands have different arities")
        build = {
            "union": build_union,
            "union_all": build_union_all,
            "except": build_difference,
            "intersect": build_intersect,
        }[op]
        return build(c, left[0], right[0]), left[1]

    if op in ("join", "antijoin", "cartesian", "stream_join"):
        left, right = sub("left"), sub("right", event=op == "stream_join")
        if op == "cartesian":
            return build_cartesian(c, left[0], right[0]), left[1] + right[1]
        lk = _parse_keys(q.get("left_key", []), left[1], where)
        rk = _parse_keys(q.get("right_key", []), right[1], where)
        if len(lk) != len(rk):
            raise ValidationError(f"{where}: join key arity mismatch")
        if op == "join":
            return build_equijoin(c, left[0], right[0], lk, rk), left[1] + right[1]
        if op == "stream_join":
            # The accumulated relation joined with the tick's events: an
            # event-typed node, as its right input is.
            fn = JoinFn(KeyFunc(lk), KeyFunc(rk), label="stream_join")
            return c.add_lifted(fn, [left[0], right[0]], klass="bilinear", label="stream_join"), left[1] + right[1]
        return build_antijoin(c, left[0], right[0], lk, rk), left[1]

    if op == "aggregate":
        node, arity = sub("input")
        kind = q.get("agg")
        if not isinstance(kind, str) or kind not in AGGREGATES:
            raise ValidationError(f"{where}: unknown aggregate {kind!r}")
        column = _col(q.get("column", 0), arity, where)
        group = q.get("group_by")
        if group is not None:
            group = [_col(i, arity, where) for i in _list(group, f"{where}: 'group_by'")]
        out_arity = (len(group) if group else 0) + 1
        return build_aggregate(c, node, kind, column, group), out_arity

    if op == "window":
        node, arity = sub("input")
        theta = q.get("theta")
        if not isinstance(theta, str) or theta not in env or not c.nodes[env[theta][0]].meta["event"]:
            raise ValidationError(f"{where}: window clock {theta!r} must be an event-stream relation")
        ts_column = _col(q.get("ts_column", 0), arity, where)
        width = q.get("width")
        if isinstance(width, bool) or not isinstance(width, (int, float)) or not width > 0:
            raise ValidationError(f"{where}: window width must be a positive number, got {width!r}")
        spec = WindowSpec(ts_column=ts_column, width=width)
        return build_window_snapshot(c, node, env[theta][0], spec), arity

    raise ValidationError(f"{where}: unknown operator {op!r}")
