"""Expression trees over tuple columns.

Predicates, key functions, and map functions are small expression trees so the
spec file format can describe them; host code may instead pass any pure Python
callable where a Predicate/KeyFunc/MapFunc is expected.

Each tree compiles once, at construction, into a plain closure (`kernel`);
calling the tree runs that closure, so there is a single evaluation path.
Operators that run a kernel per row take it with `kernel(f)`, which returns
host callables unchanged.
"""

import operator

from .errors import TypeMismatchError, ValidationError
from .zset import column_reader, exact_div


class Expr:
    __slots__ = ("kernel",)

    def __call__(self, elem):
        return self.kernel(elem)

    def to_json(self):
        raise NotImplementedError


class Col(Expr):
    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index
        self.kernel = column_reader(index)

    def to_json(self):
        return ["col", self.index]

    def __repr__(self):
        return f"Col({self.index})"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value
        self.kernel = lambda elem: value

    def to_json(self):
        return ["const", self.value]

    def __repr__(self):
        return f"Const({self.value!r})"


def _div(a, b):
    if b == 0:
        raise ValidationError("division by zero in expression")
    return exact_div(a, b)


def _mod(a, b):
    if b == 0:
        raise ValidationError("modulo by zero in expression")
    return a % b


_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": _mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}


class BinOp(Expr):
    """Both operands are always evaluated, `and`/`or` included."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _BINOPS:
            raise ValidationError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        fn, lk, rk = _BINOPS[op], left.kernel, right.kernel

        def binop(elem):
            try:
                return fn(lk(elem), rk(elem))
            except TypeError as e:
                raise TypeMismatchError(str(e)) from e

        self.kernel = binop

    def to_json(self):
        return [self.op, self.left.to_json(), self.right.to_json()]

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Not(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = inner
        ik = inner.kernel
        self.kernel = lambda elem: not ik(elem)

    def to_json(self):
        return ["not", self.inner.to_json()]


def parse_expr(node):
    """Parse the JSON list encoding: ["col",i], ["const",v], [op, l, r]."""
    if not isinstance(node, list) or not node or not isinstance(node[0], str):
        raise ValidationError(f"bad expression node: {node!r}")
    head = node[0]
    if head == "col":
        if len(node) != 2 or not isinstance(node[1], int):
            raise ValidationError(f"bad column reference: {node!r}")
        return Col(node[1])
    if head == "const":
        if len(node) != 2:
            raise ValidationError(f"bad constant: {node!r}")
        return Const(node[1])
    if head == "not":
        if len(node) != 2:
            raise ValidationError(f"bad negation: {node!r}")
        return Not(parse_expr(node[1]))
    if head in _BINOPS:
        if len(node) != 3:
            raise ValidationError(f"operator {head!r} takes two operands")
        return BinOp(head, parse_expr(node[1]), parse_expr(node[2]))
    raise ValidationError(f"unknown expression head {head!r}")


def _tuple_kernel(exprs):
    """A closure building one tuple value per expression.

    A pure column list reads tuple elements with `operator.itemgetter`; scalar
    elements take the per-column readers, so column 0 is the scalar itself.
    Its closure carries the column list as `columns`.
    """
    kernels = [e.kernel for e in exprs]
    if not all(isinstance(e, Col) for e in exprs):
        return lambda elem: tuple([k(elem) for k in kernels])
    if not exprs:
        kernel = lambda elem: ()
    elif len(exprs) == 1:
        i, k0 = exprs[0].index, kernels[0]
        kernel = lambda elem: (elem[i],) if type(elem) is tuple else (k0(elem),)
    else:
        get = operator.itemgetter(*(e.index for e in exprs))
        kernel = lambda elem: get(elem) if type(elem) is tuple else tuple([k(elem) for k in kernels])
    kernel.columns = tuple(e.index for e in exprs)  # lets zset.group_rows read many rows at once
    return kernel


class KeyFunc:
    """Tuple-valued key: one value per expression."""

    __slots__ = ("exprs", "kernel")

    def __init__(self, exprs):
        self.exprs = tuple(Col(e) if isinstance(e, int) else e for e in exprs)
        self.kernel = _tuple_kernel(self.exprs)

    def __call__(self, elem):
        return self.kernel(elem)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.exprs)!r})"


class MapFunc(KeyFunc):
    """Tuple-valued row constructor: one output column per expression."""

    __slots__ = ()


def kernel(f):
    """The compiled closure of an expression, key or map; any other callable as is."""
    return f.kernel if isinstance(f, (Expr, KeyFunc)) else f
