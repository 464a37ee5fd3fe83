"""Independent oracles the tests check the engine against.

Everything here is deliberately naive: plain Python sets, list-based stream
math, and snapshot recomputation.  Nothing imports the circuit machinery.
"""

from fractions import Fraction

from deltaflow import TypeMismatchError, ValidationError, ZSet
from deltaflow.groupval import ZERO


def as_z(v):
    if v is ZERO:
        return ZSet()
    assert isinstance(v, ZSet), type(v)
    return v


# -- set-semantics relational algebra ------------------------------------------


def set_filter(rows, pred):
    return {r for r in rows if pred(r)}


def set_project(rows, cols):
    return {tuple(r[c] for c in cols) for r in rows}


def set_join(a, b, ka, kb):
    return {x + y for x in a for y in b if ka(x) == kb(y)}


def set_union(a, b):
    return a | b


def set_difference(a, b):
    return a - b


def set_intersect(a, b):
    return a & b


def set_antijoin(a, b, ka, kb):
    keys = {kb(y) for y in b}
    return {x for x in a if ka(x) not in keys}


# -- streams as lists ------------------------------------------------------------


def list_integrate(xs):
    out = []
    acc = None
    for x in xs:
        acc = x if acc is None else acc + x
        out.append(acc)
    return out


def list_differentiate(xs):
    out = []
    prev = None
    for x in xs:
        out.append(x if prev is None else x - prev)
        prev = x
    return out


def list_shift(xs, zero):
    return [zero] + list(xs[:-1])


def brute_incremental(fn, *delta_streams):
    """D(fn(I(a), I(b), ...)) computed with list math; fn per-tick."""
    snaps = [list_integrate(list(s)) for s in delta_streams]
    outs = [fn(*vals) for vals in zip(*snaps)]
    return list_differentiate(outs)


# -- graph closure -----------------------------------------------------------------


def closure_with_self_loops(edges):
    """Reachability plus a self-loop for every node incident to an edge."""
    nodes = set()
    adj = {}
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
        adj.setdefault(a, set()).add(b)
    out = {(x, x) for x in nodes}
    for s in nodes:
        seen = set()
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out |= {(s, t) for t in seen}
    return out


def zset_of(rows, weight=1):
    return ZSet([(r, weight) for r in rows])


# -- expressions -------------------------------------------------------------------


def _exact_div(a, b):
    if b == 0:
        raise ValidationError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        f = Fraction(a, b)
        return int(f) if f.denominator == 1 else f
    return a / b


def _mod(a, b):
    if b == 0:
        raise ValidationError("modulo by zero")
    return a % b


_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _exact_div,
    "%": _mod,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}


def eval_expr(e, elem):
    """Walk an expression's JSON encoding over one element; a scalar element
    is its own column 0."""
    return _eval_node(e.to_json(), elem)


def _eval_node(node, elem):
    head = node[0]
    if head == "col":
        if type(elem) is tuple:
            return elem[node[1]]
        if node[1] == 0:
            return elem
        raise ValidationError(f"column {node[1]} out of range for scalar element")
    if head == "const":
        return node[1]
    if head == "not":
        return not _eval_node(node[1], elem)
    a, b = _eval_node(node[1], elem), _eval_node(node[2], elem)
    try:
        return _OPS[head](a, b)
    except TypeError as e:
        raise TypeMismatchError(str(e)) from e
