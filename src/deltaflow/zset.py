"""Z-sets and indexed Z-sets: the abelian groups the circuits compute over.

A Z-set is a finite map from elements to signed integer multiplicities
(weights).  Weight 1 on everything models a set, non-negative weights model a
bag, and negative weights encode deletions.  Elements are scalars (int, float,
Fraction, str) or tuples of elements; a total order over all of them gives
Z-sets a canonical enumeration order.
"""

import math
from fractions import Fraction
from operator import itemgetter

from .errors import TypeMismatchError, ValidationError, WeightOverflowError

WEIGHT_MAX = 2**63 - 1
WEIGHT_MIN = -(2**63)


def check_weight(w):
    if w > WEIGHT_MAX or w < WEIGHT_MIN:
        raise WeightOverflowError(f"weight {w} outside signed 64-bit range")
    return w


def sort_key(elem):
    """Total-order key over all supported elements.

    Numbers sort together (so 1 and 1.0 stay consistent with dict equality),
    then strings, then tuples recursively.
    """
    if type(elem) is tuple:
        return (2, tuple(sort_key(x) for x in elem))
    if isinstance(elem, str):
        return (1, elem)
    return (0, elem)


def canonical_keys(d):
    """The keys of d sorted in sort_key order.

    A plain tuple sort compares two elements only at their first differing
    position and raises TypeError on any mix of numbers, strings and tuples
    there, so whenever it succeeds its order is the sort_key order.
    """
    try:
        return sorted(d)
    except TypeError:
        return sorted(d, key=sort_key)


def validate_element(elem):
    """Ingestion check: no NULLs, no NaN or infinities, no bools, only
    supported scalars."""
    if type(elem) is tuple:
        for x in elem:
            validate_element(x)
        return elem
    if elem is None:
        raise ValidationError("NULL values are not supported")
    if isinstance(elem, bool):
        raise ValidationError("boolean values are not supported")
    if isinstance(elem, float) and not math.isfinite(elem):
        raise ValidationError("NaN values are not supported" if elem != elem else "infinite values are not supported")
    if not isinstance(elem, (int, float, str, Fraction)):
        raise ValidationError(f"unsupported value type {type(elem).__name__!r}")
    return elem


class ZSet:
    """Finite map element -> nonzero weight; an abelian group under +."""

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        d = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for x, w in items:
                w = check_weight(d.get(x, 0) + w)
                if w:
                    d[x] = w
                else:
                    d.pop(x, None)
        self._entries = d

    @classmethod
    def _wrap(cls, d):
        z = cls.__new__(cls)
        z._entries = d
        return z

    # -- group structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ZSet):
            return NotImplemented
        if not other._entries:
            return self
        if not self._entries:
            return other
        big, small = (self, other) if len(self._entries) >= len(other._entries) else (other, self)
        return ZSet._wrap(_merged(big._entries, small._entries, 1))

    def __sub__(self, other):
        if not isinstance(other, ZSet):
            return NotImplemented
        if not other._entries:
            return self
        return ZSet._wrap(_merged(self._entries, other._entries, -1))

    def __neg__(self):
        return ZSet._wrap({x: -w for x, w in self._entries.items()})

    def is_zero(self):
        return not self._entries

    # -- access -------------------------------------------------------------

    def __getitem__(self, elem):
        return self._entries.get(elem, 0)

    def __contains__(self, elem):
        return elem in self._entries

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(canonical_keys(self._entries))

    def items(self):
        """Entries in canonical element order."""
        d = self._entries
        return [(x, d[x]) for x in canonical_keys(d)]

    def raw_items(self):
        """Entries in hash order; use in hot paths where order is irrelevant."""
        return self._entries.items()

    def __eq__(self, other):
        if isinstance(other, ZSet):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self):
        inner = ", ".join(f"{x!r}: {w}" for x, w in self.items())
        return f"ZSet({{{inner}}})"


def zset_size(m):
    """Number of elements with nonzero weight."""
    return len(m)


def distinct(m):
    """Project onto the positive support with weight 1 (still a Z-set)."""
    return ZSet._wrap({x: 1 for x, w in m.raw_items() if w > 0})


def is_set(m):
    return all(w == 1 for w in m._entries.values())


def is_positive(m):
    return all(w > 0 for w in m._entries.values())


def to_set(m):
    return {x for x, w in m.raw_items() if w > 0}


def to_zset(s):
    return ZSet._wrap({validate_element(x): 1 for x in s})


def makeset(x):
    """Singleton Z-set carrying a scalar (or tuple) with weight 1."""
    return ZSet._wrap({x: 1})


def _as_parts(elem):
    return elem if type(elem) is tuple else (elem,)


def concat_elements(a, b):
    """Flat concatenation of two elements, promoting scalars to 1-tuples."""
    return _as_parts(a) + _as_parts(b)


def column_reader(col):
    """A closure reading column col of an element; a scalar is its own column 0."""
    if col == 0:
        return lambda elem: elem[0] if type(elem) is tuple else elem

    def read(elem):
        if type(elem) is tuple:
            return elem[col]
        raise ValidationError(f"column {col} out of range for scalar element")

    return read


class IndexedZSet:
    """Finite map key -> nonempty ZSet; the shape of GROUP BY output."""

    __slots__ = ("_groups",)

    def __init__(self, groups=None):
        d = {}
        if groups:
            items = groups.items() if isinstance(groups, dict) else groups
            for k, z in items:
                merged = d.get(k)
                z = z if merged is None else merged + z
                if z.is_zero():
                    d.pop(k, None)
                else:
                    d[k] = z
        self._groups = d

    @classmethod
    def _wrap(cls, d):
        i = cls.__new__(cls)
        i._groups = d
        return i

    def __add__(self, other):
        if not isinstance(other, IndexedZSet):
            return NotImplemented
        if not other._groups:
            return self
        if not self._groups:
            return other
        big, small = (self, other) if len(self._groups) >= len(other._groups) else (other, self)
        d = big._groups.copy()  # dict.copy(), not dict(): see _merged
        for k, z in small._groups.items():
            nz = d.get(k)
            nz = z if nz is None else nz + z
            if nz.is_zero():
                d.pop(k, None)
            else:
                d[k] = nz
        return IndexedZSet._wrap(d)

    def __neg__(self):
        return IndexedZSet._wrap({k: -z for k, z in self._groups.items()})

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return not self._groups

    def __contains__(self, key):
        return key in self._groups

    def __len__(self):
        return len(self._groups)

    def keys(self):
        return canonical_keys(self._groups)

    def items(self):
        return [(k, self._groups[k]) for k in self.keys()]

    def raw_items(self):
        return self._groups.items()

    def __eq__(self, other):
        if isinstance(other, IndexedZSet):
            return self._groups == other._groups
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {z!r}" for k, z in self.items())
        return f"IndexedZSet({{{inner}}})"


def group_by(key_fn, m):
    """Partition m by key_fn; linear, weight-preserving."""
    return IndexedZSet._wrap({k: ZSet._wrap(g) for k, g in group_rows(key_fn, m._entries).items()})


def group_rows(key_fn, entries):
    """key -> {element: weight} for an element -> weight map.  A key of
    plain columns (its kernel lists them as `columns`, see expr.KeyFunc)
    reads the columns of a map of tuples in C; one column is grouped by
    its value, which is hashed faster, and wrapped once per group."""
    cols = getattr(key_fn, "columns", None)
    if cols == ():
        return {(): dict(entries)} if entries else {}
    plain = cols is not None and set(map(type, entries)) == {tuple}
    groups = {}
    for k, (x, w) in zip(map(itemgetter(*cols) if plain else key_fn, entries), entries.items()):
        g = groups.get(k)
        if g is None:
            g = groups[k] = {}
        g[x] = w
    return {(k,): g for k, g in groups.items()} if plain and len(cols) == 1 else groups


class Trace:
    """Two-axis trace: the state of a change stream x[t][u] inside a nested
    clock domain, t the parent tick and u the inner tick (the iteration),
    updated in place.  A stream on a trace's own clock is x[t][0]: slot 0
    is its integral up to the last committed tick.

    `slots[u]` is X[u], the sum over t' <= t of x[t'][u]; `tick[u]` is
    x[t][u] for the iterations of the current parent tick latched so far.
    So while iteration u of tick t runs, the slots below u already include
    tick t and the others still hold tick t-1, and `tick` is both what this
    tick touched and the log a failed tick is rolled back from.  An element
    sits only in the slots where its weight is nonzero, so memory follows
    the relation, not the iteration count.

    With a key function a slot is key -> {element: weight}, the layout join
    probes read; without one it is element -> weight.
    """

    __slots__ = ("key", "slots", "tick", "tick_rows")

    def __init__(self, key=None):
        self.key = key
        self.slots = {}
        self.tick = {}
        self.tick_rows = 0  # rows latched by the current parent tick

    def group(self, change):
        """A Z-set change's rows in the layout of one slot."""
        if self.key is None:
            return change._entries
        return group_rows(self.key, change._entries)

    def __setitem__(self, u, rows):
        """Latch the current parent tick's change at iteration u, given as
        group(change); each iteration latches once per parent tick."""
        if not rows:
            return
        if self._add(u, rows, 1):
            self._add(u, rows, -1)
            raise WeightOverflowError("trace weight outside signed 64-bit range")
        self.tick[u] = rows
        self.tick_rows += len(rows) if self.key is None else sum(map(len, rows.values()))

    def commit(self):
        """End the parent tick: its changes stay in the slots."""
        self.tick = {}
        self.tick_rows = 0

    def rollback(self):
        """Take the current parent tick's changes back out of the slots."""
        for u, rows in self.tick.items():
            self._add(u, rows, -1)
        self.commit()

    def _add(self, u, rows, sign):
        """slots[u] += sign * rows; an overflowed weight, else None."""
        slot = self.slots.get(u)
        if slot is None:
            slot = self.slots[u] = {}
        overflow = None
        if self.key is None:
            overflow = _add_weights(slot, rows, sign)
        else:
            for k, g in rows.items():
                cur = slot.get(k)
                if cur is None:
                    # group() made g for this latch: a new group takes it
                    slot[k] = g if sign > 0 else {x: -w for x, w in g.items()}
                    continue
                if cur is g:  # taking back a group this latch brought
                    del slot[k]
                    continue
                overflow = _add_weights(cur, g, sign) or overflow
                if not cur:
                    del slot[k]
        if not slot:
            del self.slots[u]
        return overflow


class SummaryTrace(Trace):
    """An own-clock trace that also keeps a summary per key, such as the
    running totals of an aggregate's groups.  The operator that probes it
    stages the summaries of the keys a tick touches (None drops a key);
    they latch with the tick's rows and are taken back with them, so a
    failed tick leaves them as they were."""

    __slots__ = ("summary", "staged", "undo")

    def __init__(self, key=None):
        super().__init__(key)
        self.summary, self.staged, self.undo = {}, {}, {}

    def __setitem__(self, u, rows):
        super().__setitem__(u, rows)
        self.undo = {k: self.summary.get(k) for k in self.staged}  # own clock: one latch per tick
        self._put(self.staged)
        self.staged = {}

    def commit(self):
        super().commit()
        self.staged, self.undo = {}, {}

    def rollback(self):
        self._put(self.undo)
        super().rollback()

    def _put(self, summaries):
        """Store key -> summary, dropping the keys whose summary is None."""
        self.summary.update(summaries)
        for k in [k for k, s in summaries.items() if s is None]:
            del self.summary[k]


def _add_weights(d, rows, sign):
    """d += sign * rows in place, dropping zero weights.  Returns the first
    weight that left the signed 64-bit range, else None; d is updated all
    the same, so the caller can take rows back out exactly before it raises."""
    get = d.get
    overflow = None
    for x, w in rows.items():
        nw = get(x, 0) + sign * w
        if nw:
            d[x] = nw
            if not WEIGHT_MIN <= nw <= WEIGHT_MAX and overflow is None:
                overflow = nw
        else:
            del d[x]
    return overflow


def _merged(base, rows, sign):
    """A new element -> weight dict base + sign * rows; neither operand
    changes.  base is cloned with dict.copy(), not dict(base): once a dict
    has held a deleted entry, dict() (CPython 3.10-3.12) re-inserts it entry
    by entry, several times slower than copy()'s table clone, and an
    integral that takes deletions would pay that on every tick."""
    d = base.copy()
    overflow = _add_weights(d, rows, sign)
    if overflow is not None:
        check_weight(overflow)
    return d


class TraceView:
    """What a trace node passes its probing consumers at iteration u: the
    trace as it stands before the latch, and the iteration's change as
    `rows` (grouped by the trace's key) of `size` rows."""

    __slots__ = ("trace", "u", "rows", "size")

    def __init__(self, trace, u, rows, size):
        self.trace = trace
        self.u = u
        self.rows = rows
        self.size = size


def flatmap(i):
    """Undo grouping: entry (key, x) gets the weight of x in group key."""
    d = {}
    for k, z in i.raw_items():
        for x, w in z.raw_items():
            d[concat_elements(k, x)] = w
    return ZSet._wrap(d)


def indexed_aggregate(agg_fn, g):
    """Sum agg_fn(key, group) over all groups.

    agg_fn must map empty groups to the zero of its output group, otherwise
    the result is not zero-preserving.
    """
    out = ZSet()
    for k, z in g.raw_items():
        out = out + agg_fn(k, z)
    return out


def count_aggregate(k, z):
    """GROUP BY COUNT: a singleton row (key..., count)."""
    return makeset(concat_elements(k, aggregate_count(z)))


def aggregate_count(m):
    """Sum of all weights; a group homomorphism into the integers."""
    total = 0
    for w in m._entries.values():
        total += w
    return check_weight(total)


def aggregate_sum(m, col=0):
    """Weighted sum of a numeric column; linear."""
    total, floats = exact_sum(m._entries, col, f"SUM over column {col}")
    return rounded(total, floats, f"SUM over column {col}")


def exact_sum(entries, col, what):
    """The weighted sum of column col over entries (row -> weight), each
    float taken as the fraction it stands for, so that the sum does not
    depend on row order, and the number of float values.  A str value or a
    non-finite float (which only a map can make) raises; `what` names the
    aggregate."""
    read = column_reader(col)
    total = floats = 0
    for x, w in entries.items():
        v = read(x)
        if isinstance(v, str):
            raise ValidationError(f"SUM over non-numeric column {col}")
        if isinstance(v, float):
            floats += 1
            try:
                v = Fraction(v)
            except (OverflowError, ValueError):
                raise ValidationError(f"{what} is outside the float range") from None
        total += v * w
    return total, floats


def rounded(total, floats, what):
    """An exact SUM or AVG value as emitted: rounded once to a float when
    any of its rows holds a float (floats > 0), else exact, an int when
    whole.  A value beyond the float range raises, naming `what`."""
    if not floats:
        return total.numerator if type(total) is Fraction and total.denominator == 1 else total
    try:
        return float(total)
    except OverflowError:
        raise ValidationError(f"{what} is outside the float range") from None


def aggregate_general(f, m):
    """Apply a set function to the underlying set of a positive Z-set.

    This is the fallback for aggregates that are not linear (MIN, MAX, ...):
    they see the whole set, so their incremental form keeps explicit I and
    D brackets.
    """
    if not is_positive(m):
        raise ValidationError("set-function aggregation requires a positive Z-set")
    return f(to_set(m))


def _ordered(f, name, col):
    def pick(s):
        try:
            return f(map(column_reader(col), s))
        except TypeError as e:
            raise TypeMismatchError(f"{name} over column {col} of mixed types: {e}") from e

    return pick


def aggregate_min(m, col=0):
    if m.is_zero():
        raise ValidationError("MIN over empty input")
    return aggregate_general(_ordered(min, "MIN", col), m)


def aggregate_max(m, col=0):
    if m.is_zero():
        raise ValidationError("MAX over empty input")
    return aggregate_general(_ordered(max, "MAX", col), m)


def exact_div(a, b):
    """Division for AVG: exact rational for int operands, float otherwise."""
    if isinstance(a, int) and isinstance(b, int):
        f = Fraction(a, b)
        return int(f) if f.denominator == 1 else f
    return a / b


def aggregate_avg(m, col=0):
    cnt = aggregate_count(m)
    if cnt == 0:
        raise ValidationError("AVG over input with zero total weight")
    total, floats = exact_sum(m._entries, col, f"AVG over column {col}")
    return rounded(exact_div(total, cnt), floats, f"AVG over column {col}")
