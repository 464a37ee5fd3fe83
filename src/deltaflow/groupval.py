"""Generic group-value arithmetic for everything that flows on circuit edges.

Edge values are Z-sets, indexed Z-sets, numeric scalars, tuples of group
values, or finite stream prefixes (StreamVector).  ZERO is the polymorphic
additive identity used to initialize operator state before the value type is
known.
"""

from fractions import Fraction

from .zset import IndexedZSet, ZSet, check_weight


class _Zero:
    """Polymorphic group zero: absorbed by addition, equal to any zero value."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO"

    def __bool__(self):
        return False

    def __eq__(self, other):
        return gv_is_zero(other)

    def __ne__(self, other):
        return not gv_is_zero(other)

    def __hash__(self):
        return 0


ZERO = _Zero()

_NUMERIC = (int, float, Fraction)


class StreamVector:
    """A finite prefix of a stream, used as a single group value.

    Lifted stream operators act along the vector; addition is pointwise with
    zero padding, and equality ignores trailing zeros.
    """

    __slots__ = ("items",)

    def __init__(self, items=()):
        self.items = tuple(items)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i] if i < len(self.items) else ZERO

    def is_zero(self):
        return all(gv_is_zero(x) for x in self.items)

    def add(self, other):
        n = max(len(self.items), len(other.items))
        return StreamVector(tuple(gv_add(self[i], other[i]) for i in range(n)))

    def neg(self):
        return StreamVector(tuple(gv_neg(x) for x in self.items))

    def shift(self):
        """One-step delay along the vector axis; length-preserving."""
        if not self.items:
            return self
        return StreamVector((ZERO,) + self.items[:-1])

    def prefix(self, n, pad=ZERO):
        return [self[i] if i < len(self.items) else pad for i in range(n)]

    def __eq__(self, other):
        if isinstance(other, StreamVector):
            n = max(len(self.items), len(other.items))
            return all(gv_eq(self[i], other[i]) for i in range(n))
        if isinstance(other, _Zero):
            return self.is_zero()
        return NotImplemented

    def __hash__(self):
        items = list(self.items)
        while items and gv_is_zero(items[-1]):
            items.pop()
        return hash(tuple(items))

    def __repr__(self):
        return f"StreamVector({list(self.items)!r})"


def gv_is_zero(v):
    if isinstance(v, _Zero):
        return True
    if isinstance(v, (ZSet, IndexedZSet, StreamVector)):
        return v.is_zero()
    if isinstance(v, _NUMERIC):
        return v == 0
    if type(v) is tuple:
        return all(gv_is_zero(x) for x in v)
    raise TypeError(f"not a group value: {type(v).__name__}")


def gv_add(a, b):
    if isinstance(a, _Zero):
        return b
    if isinstance(b, _Zero):
        return a
    if isinstance(a, (ZSet, IndexedZSet)):
        return a + b
    if isinstance(a, _NUMERIC):
        if isinstance(a, int) and isinstance(b, int):
            return check_weight(a + b)
        return a + b
    if isinstance(a, StreamVector):
        return a.add(b)
    if type(a) is tuple:
        if type(b) is not tuple or len(a) != len(b):
            raise TypeError("tuple group values must have equal arity")
        return tuple(gv_add(x, y) for x, y in zip(a, b))
    raise TypeError(f"not a group value: {type(a).__name__}")


def gv_neg(a):
    if isinstance(a, _Zero):
        return a
    if isinstance(a, (ZSet, IndexedZSet)):
        return -a
    if isinstance(a, _NUMERIC):
        return -a
    if isinstance(a, StreamVector):
        return a.neg()
    if type(a) is tuple:
        return tuple(gv_neg(x) for x in a)
    raise TypeError(f"not a group value: {type(a).__name__}")


def gv_sub(a, b):
    if isinstance(b, _Zero):
        return a
    if isinstance(a, (ZSet, IndexedZSet)) and isinstance(b, (ZSet, IndexedZSet)):
        return a - b
    return gv_add(a, gv_neg(b))


def gv_eq(a, b):
    if isinstance(a, _Zero):
        return gv_is_zero(b)
    if isinstance(b, _Zero):
        return gv_is_zero(a)
    if type(a) is tuple and type(b) is tuple:
        return len(a) == len(b) and all(gv_eq(x, y) for x, y in zip(a, b))
    return a == b


def as_zset(v):
    """Normalize an edge value to a ZSet (ZERO becomes the empty Z-set)."""
    if isinstance(v, ZSet):
        return v
    if isinstance(v, _Zero):
        return _EMPTY
    raise TypeError(f"expected a Z-set, got {type(v).__name__}")


def as_vector(v):
    if isinstance(v, StreamVector):
        return v
    if isinstance(v, _Zero):
        return _EMPTY_VECTOR
    raise TypeError(f"expected a stream vector, got {type(v).__name__}")


_EMPTY = ZSet()
_EMPTY_VECTOR = StreamVector()
