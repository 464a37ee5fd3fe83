"""Relational operators over Z-sets and the circuit fragments that use them.

Each build_* function appends a fragment to a Circuit and returns the output
node id.  The function objects carry class labels (linear / bilinear /
general) and, for joins, their key functions, so the incrementalizer can pick
the right rewrite without inspecting Python code.  An incremental join is one
in-place trace per table side (events are read raw), keyed by the join's
keys, and one probing join, on its own clock or the parent's in a fixpoint.

Optional attributes tell the circuit what an operator reads and how to
name it.  `probe_args` lists the argument slots it looks up per element of
another argument instead of scanning them.  `rows_in(*args)` counts every row
the operator scans; an operator that scans none emits nothing, so the circuit
skips it when `rows_in` is 0 (and counts `rows_in` as its work otherwise).
`op_name` names the operator in error messages where it differs from the
node's label: a join with a linear map folded in (JoinFn.then) is labelled
as the join and named for both, e.g. "join+project".
"""

import copy
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat

from .circuit import BILINEAR, GENERAL, LINEAR, Circuit
from .errors import CircuitError, TypeMismatchError, ValidationError
from .expr import KeyFunc, MapFunc, kernel
from .groupval import ZERO, as_zset
from .zset import (
    WEIGHT_MAX,
    WEIGHT_MIN,
    IndexedZSet,
    Trace,
    TraceView,
    ZSet,
    aggregate_avg,
    aggregate_count,
    aggregate_max,
    aggregate_min,
    aggregate_sum,
    check_weight,
    column_reader,
    distinct,
    exact_div,
    exact_sum,
    group_by,
    group_rows,
    makeset,
    rounded,
)


@dataclass(frozen=True)
class Schema:
    """Column names (unique) with optional scalar type tags."""

    columns: tuple
    types: tuple = None

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise ValidationError(f"duplicate column names in {self.columns}")
        if self.types is not None and len(self.types) != len(self.columns):
            raise ValidationError("schema types must match column count")

    @property
    def arity(self):
        return len(self.columns)


@dataclass(frozen=True)
class WindowSpec:
    """Keep tuples whose timestamp column is within `width` of the clock."""

    ts_column: int
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValidationError("window width must be positive")


# -- per-tick functions -------------------------------------------------------


class FilterFn:
    arity = 1
    klass = LINEAR

    def __init__(self, pred):
        self.pred = kernel(pred)

    def __call__(self, m):
        pred = self.pred
        return ZSet._wrap({x: w for x, w in as_zset(m).raw_items() if pred(x)})


class MapFn:
    """Row remap; weights of colliding output rows add up (as for projection)."""

    arity = 1
    klass = LINEAR

    def __init__(self, fn):
        self.fn = kernel(fn)

    def __call__(self, m):
        fn = self.fn
        d = {}
        get = d.get
        for x, w in as_zset(m).raw_items():
            y = fn(x)
            nw = get(y)
            if nw is None:
                d[y] = w
            else:
                _add_weight(d, y, nw + w)
        return ZSet._wrap(d)


def _add_weight(d, x, w):
    """Store an accumulated weight, dropping x when it cancels out."""
    if check_weight(w):
        d[x] = w
    else:
        del d[x]


def project_fn(cols):
    return MapFn(MapFunc(cols))


class DistinctFn:
    arity = 1
    klass = GENERAL

    def __call__(self, m):
        return distinct(as_zset(m))


def _identity_key(x):
    return x


class JoinFn:
    """Equi-join / cartesian product / semijoin / intersection.

    Both sides are grouped by their keys (an IndexedZSet side comes grouped
    by its own key function) and the side with fewer keys probes the other.
    Output weights multiply.  An equi-join or cartesian product may carry a
    row map `out` (see then), applied to each concatenated row it emits.
    """

    arity = 2
    klass = BILINEAR
    out = None

    def __init__(self, key_left, key_right, mode="join", label=None):
        # a key is a callable or a list of columns
        self.key_left = kernel(key_left if callable(key_left) else KeyFunc(key_left))
        self.key_right = kernel(key_right if callable(key_right) else KeyFunc(key_right))
        self.mode = mode
        self.semi = mode != "join"
        self.label = self.op_name = label or mode

    def index_keys(self):
        return (self.key_left, self.key_right)

    def then(self, fn, label):
        """This join followed by the row map fn (a linear map named label),
        as one join fn: a linear operator distributes over a bilinear one,
        so fn is applied to each row the join emits, before rows merge.
        Only for an equi-join or cartesian product without a map yet; the
        result keeps this join as `unmapped`."""
        j = copy.copy(self)
        j.out = kernel(fn)
        j.op_name = f"{self.op_name}+{label}"
        j.unmapped = self
        return j

    def __call__(self, a, b):
        return _emit(self, ((_grouped(a, self.key_left), _grouped(b, self.key_right)),))


def _grouped(v, key):
    """A join operand's rows grouped by key: key -> {row: weight}."""
    if isinstance(v, ZSet):
        return group_rows(key, v._entries)
    if isinstance(v, IndexedZSet):
        return {k: z._entries for k, z in v._groups.items()}
    if v is ZERO:
        return {}
    raise ValidationError(f"join expects Z-set operands, got {type(v).__name__}")


def cartesian_fn():
    return JoinFn(lambda x: (), lambda y: (), mode="join", label="cartesian")


def intersect_fn():
    return JoinFn(_identity_key, _identity_key, mode="semi", label="intersect")


class IncJoinFn:
    """The incremental join of the join fn `join` as one operator, on every
    clock, over tables and event streams.

    x[t][u] is the change on an edge at parent tick t and iteration u; a and
    b are the changes at (t, u), A and B the traces (zset.Trace) of the
    join's inputs, A_j their slot j, and L_a, L_b their changes of this
    parent tick at the iterations below u (the traces' `tick` logs).  Both
    views are taken before the latch at (t, u): slots below u already hold
    tick t, slot u holds tick t-1.  The change of the join at (t, u) is

        j1 = a * B(<=t, <u)        j2 = L_a(<=u) * B(<t, =u)
        j3 = A(<=t, <=u) * b       j4 = A(<t, =u) * L_b(<u)

    which joins the pairs (a, b), (A_j, b) and (a, B_j) for every slot
    j <= u, (L_a, B_u) and (A_u, L_b).  On the traces' own clock u is 0,
    slot 0 holds the earlier ticks and the logs are empty, so this is
    a*b + z(I(a))*b + a*z(I(b)).  Work follows the changes, the logs and the
    groups they probe.

    `probe_args` are the traced inputs.  An untraced one (events, never
    integrated) has no slots and no log: over events b this is I(a)*b.
    """

    arity = 2
    klass = BILINEAR

    def __init__(self, join, probe_args=(0, 1)):
        self.join = join
        self.label = join.label
        self.probe_args = probe_args

    @property
    def op_name(self):
        return self.join.op_name

    def then(self, fn, label):
        """This probing join with the row map fn folded into its join fn."""
        j = copy.copy(self)
        j.join = self.join.then(fn, label)
        return j

    def rows_in(self, va, vb):
        """The two changes and both tick logs; the slots are looked up.  The
        logs count too: (L_a, B_u) and (A_u, L_b) scan them at iterations
        whose own change is empty, so a zero here means nothing is emitted.
        With an untraced side, its rows alone: without them nothing is."""
        if len(self.probe_args) < 2:
            return sum(len(as_zset(v)) for s, v in enumerate((va, vb)) if s not in self.probe_args)
        return va.size + vb.size + va.trace.tick_rows + vb.trace.tick_rows

    def __call__(self, va, vb):
        if len(self.probe_args) < 2:
            keys = self.join.index_keys()
            va, vb = (v if s in self.probe_args else _untraced(keys[s], v) for s, v in enumerate((va, vb)))
        u, a, b, ta, tb = va.u, va.rows, vb.rows, va.trace, vb.trace
        pairs = [(a, b)]
        pairs += [(aslot, b) for j, aslot in ta.slots.items() if j <= u]
        pairs += [(a, bslot) for j, bslot in tb.slots.items() if j <= u]
        bslot, aslot = tb.slots.get(u), ta.slots.get(u)
        if bslot:
            pairs += [(arows, bslot) for arows in ta.tick.values()]
        if aslot:
            pairs += [(aslot, brows) for brows in tb.tick.values()]
        return _emit(self.join, pairs)


def _untraced(key, v):
    """An untraced input as the view of an empty trace: this tick's rows."""
    return TraceView(Trace(), 0, group_rows(key, as_zset(v)._entries), 0)


class DistinctDeltaFn:
    """Incremental distinct as one operator, on every clock: the sign
    transition H(old, new) is +1 when an element's accumulated weight turns
    positive, -1 when it stops being positive, 0 otherwise.  Inside a
    fixpoint i is a TraceView of the two-axis trace R of d (flat, no key)
    and d is the change at (t, u).  Per element, with old_t the sum
    of R below slot u, new_t = old_t + R[u] + d, and the tick-(t-1) values
    old_p = old_t - (this tick's changes below u) and new_p = old_p + R[u],
    the output is H(old_t, new_t) - H(old_p, new_p).  An element this tick
    did not touch at any j <= u has the same R at t and t-1 there, so its
    two terms cancel; one touched only below u cancels too unless it has
    weight in R[u].  So only the elements of d and those of R's tick log
    found in R[u] are visited.  On its own clock i is the integral of the
    earlier changes, slot 0 with an empty log, and this is H(i, i + d).
    """

    arity = 2
    klass = GENERAL
    probe_args = (0,)  # the accumulated input is probed per element of d

    def rows_in(self, i, d):
        """The rows of d and of this tick's log, the only elements visited
        (the accumulated input is looked up): with neither it emits nothing."""
        return len(as_zset(d)) + (i.trace.tick_rows if isinstance(i, TraceView) else 0)

    def __call__(self, i, d):
        d = as_zset(d)._entries
        out = {}
        if not isinstance(i, TraceView):
            get = as_zset(i)._entries.get
            for x, w in d.items():
                old = get(x, 0)
                new = old + w
                if old > 0 and new <= 0:
                    out[x] = -1
                elif old <= 0 and new > 0:
                    out[x] = 1
            return ZSet._wrap(out)
        u, tr = i.u, i.trace
        done = {}  # element -> this tick's change below u
        for rows in tr.tick.values():
            for x, w in rows.items():
                done[x] = done.get(x, 0) + w
        at = tr.slots.get(u, {})
        touched = [(x, done.get(x, 0), w) for x, w in d.items()]
        touched += [(x, dn, 0) for x, dn in done.items() if x in at and x not in d]
        below = [slot for j, slot in tr.slots.items() if j < u]
        for x, dn, w in touched:
            old = 0
            for slot in below:
                old += slot.get(x, 0)
            cur = at.get(x, 0)
            new = old + cur + w
            old_p = old - dn
            new_p = old_p + cur
            o = (new > 0) - (old > 0) - (new_p > 0) + (old_p > 0)
            if o:
                out[x] = o
        return ZSet._wrap(out)


def _emit(join, operands):
    """The Z-set the join fn `join` emits for the pairs of grouped operands
    (key -> {row: weight} each), summed.

    A row map folded into the join runs on every joined row, also on rows
    whose weights cancel between the pairs.  When it raises, the rows are
    joined again without it and mapped once merged, so that it raises only
    on a row the join emits, as the map alone would."""
    d = {}
    try:
        for left, right in operands:
            _join_groups(d, left, right, join)
    except ValidationError:
        if join.out is None:
            raise
        return MapFn(join.out)(_emit(join.unmapped, operands))
    return ZSet._wrap(d)


def _join_groups(d, left, right, join):
    """Add to d the rows the join fn `join` emits for the pairs of rows of
    one key in the groups left and right (key -> {row: weight}), probing the
    side with fewer keys into the other."""
    semi, fn = join.semi, join.out
    if len(left) <= len(right):
        for k, g in left.items():
            h = right.get(k)
            if h is not None:
                _cross(d, g, h, semi, fn)
    else:
        for k, h in right.items():
            g = left.get(k)
            if g is not None:
                _cross(d, g, h, semi, fn)


def _cross(d, left, right, semi, fn):
    """Add to d every pair of the rows left and right, weights multiplied:
    the flat concatenation left + right mapped by fn when there is one, or
    the left row for a semijoin.  Rows fn maps alike add their weights."""
    get = d.get
    for p, wp in left.items():
        pt = p if type(p) is tuple else (p,)
        for q, wq in right.items():
            out = p if semi else pt + (q if type(q) is tuple else (q,))
            if fn is not None:
                out = fn(out)
            w = wp * wq
            if not WEIGHT_MIN <= w <= WEIGHT_MAX:
                check_weight(w)
            nw = get(out)
            if nw is None:
                d[out] = w
            else:
                _add_weight(d, out, nw + w)


# An aggregate's value over one group's Z-set z, reading column col.
AGGREGATES = {
    "count": lambda z, col: aggregate_count(z),
    "sum": aggregate_sum,
    "min": aggregate_min,
    "max": aggregate_max,
    "avg": aggregate_avg,
}


class AggregateFn:
    """SQL-style aggregate emitting rows; grouped when group_cols is given.

    COUNT, SUM and AVG fold each group's rows into its totals (_sums) and
    form its row from them (_value), with the errors of the per-group
    reference (the AGGREGATES helpers), in its order.  SUM and AVG add
    floats exactly and round once (zset.exact_sum), so the value does not
    depend on row order; it is a float when any of the group's values is.
    MIN and MAX keep the running value per group in one pass; a row that is
    not a tuple, a weight <= 0 and any TypeError leave the pass for the
    per-group reference.  Of equal MIN or MAX values, such as 1 and 1.0, the
    first in input order is kept.
    """

    arity = 1
    klass = GENERAL

    def __init__(self, kind, column=0, group_cols=None):
        if kind not in AGGREGATES:
            raise ValidationError(f"unknown aggregate {kind!r}")
        self.kind = kind
        self.column = column
        self.grouped = group_cols is not None
        cols = group_cols or []
        self.group_key = KeyFunc(cols).kernel
        # One group column is read as a scalar key, and wrapped when emitted.
        self._key = operator.itemgetter(*cols) if cols else lambda row: ()
        self._one = len(cols) == 1
        self._val = operator.itemgetter(column)
        self._read = column_reader(column)
        self._what = f"{kind.upper()} over column {column}"

    def _one_pass(self, entries):
        """group key -> MIN or MAX of entries (row -> weight), or None when
        the rows need the per-group reference."""
        if set(map(type, entries)) - {tuple} or (entries and min(entries.values()) <= 0):
            return None
        acc = {}
        first, better = acc.setdefault, operator.lt if self.kind == "min" else operator.gt
        try:
            for k, v in zip(map(self._key, entries), map(self._val, entries)):
                if better(v, first(k, v)):
                    acc[k] = v
        except (TypeError, IndexError):
            return None
        return acc

    def _sums(self, rows):
        """The totals of rows (row -> weight): the weight sum, the exact sum
        of value * weight and the number of float values.  In place of the
        value sum stands the error that reading the values raised (a str
        value's too), for _value to raise in the reference's order."""
        count = sum(rows.values())
        if self.kind == "count":
            return count, 0, 0
        try:
            return (count, *exact_sum(rows, self.column, self._what))
        except (ValidationError, IndexError) as e:
            return count, e, 0

    def _totals(self, groups):
        """key -> the totals (see _sums) of each group (key -> {row: weight}).
        Where every weight is 1, as in a table's first load, each group's
        plain sum of values is its weighted sum, taken by nested maps with
        no Python call per group, when it is exact: a float makes it a
        float, and a str, or a scalar row (which itemgetter cannot read or
        reads as a str), makes it raise.  Other groups take _sums."""
        rows = groups.values()
        counts = list(map(sum, map(dict.values, rows)))
        if self.kind == "count":
            return dict(zip(groups, zip(counts, repeat(0), repeat(0))))
        sums = [None]
        if counts == list(map(len, rows)) and min(chain.from_iterable(map(dict.values, rows)), default=1) >= 1:
            try:
                sums = list(map(sum, map(map, repeat(self._val), rows)))
            except (TypeError, IndexError):
                pass
        if not set(map(type, sums)) <= _EXACT:
            return {k: self._sums(g) for k, g in groups.items()}
        return dict(zip(groups, zip(counts, sums, repeat(0))))

    def _value(self, count, total, floats):
        """The value of a group with these totals (see _sums)."""
        kind = self.kind
        if kind != "sum":
            check_weight(count)
            if kind == "count":
                return count
            if not count:
                raise ValidationError("AVG over input with zero total weight")
        if isinstance(total, Exception):
            raise total
        return rounded(total if kind == "sum" else exact_div(total, count), floats, self._what)

    def __call__(self, m):
        m = as_zset(m)
        if self.kind in ("min", "max"):
            acc = self._one_pass(m._entries)
            if acc is None:
                value = AGGREGATES[self.kind]
                return ZSet._wrap({k + (value(z, self.column),): 1 for k, z in group_by(self.group_key, m).raw_items()})
            return ZSet._wrap({((k, x) if self._one else k + (x,)): 1 for k, x in acc.items()})
        groups = group_rows(self.group_key, m._entries)
        if not groups and not self.grouped and self.kind != "avg":
            return makeset((0,))  # COUNT/SUM of nothing is 0; AVG emits no row
        value = self._value
        return ZSet._wrap({k + (value(*t),): 1 for k, t in self._totals(groups).items()})


_EXACT = {int, Fraction}  # value types that SUM and AVG add as they are


class IncAggregateFn:
    """COUNT, SUM or AVG as one operator whose work follows the change.

    A group's totals (AggregateFn._sums) are linear in its rows, so the
    trace this operator probes (zset.SummaryTrace, own clock, keyed by the
    group key) keeps them per group beside its rows.  For each group the
    change touches, the operator adds the change's totals to the old ones
    and emits -(k, old value) and +(k, new value) where the value or the
    group's presence changed.  It stages the new totals for the trace to
    latch with the change, so a failed tick leaves them as they were.  A
    row carries its group key as the change spells it: for a column that
    holds equal ints and floats (2 and 2.0) the snapshot's spelling, which
    follows the order of its integral, may differ.
    """

    arity = 1
    klass = GENERAL
    probe_args = (0,)

    def __init__(self, agg):
        self.agg = agg
        # An ungrouped COUNT or SUM emits (0,) over no rows, from the first tick on.
        self._always = not agg.grouped and agg.kind != "avg"

    def rows_in(self, view):
        """The rows of the change; at the first tick an ungrouped COUNT or
        SUM counts one, so that it runs on an empty change too."""
        return view.size or int(self._always and not view.trace.summary)

    def __call__(self, view):
        tr, agg = view.trace, self.agg
        summary, slot, value = tr.summary, tr.slots.get(0, {}), agg._value
        touched = view.rows
        if self._always and not summary:
            touched = {(): {}, **touched}
        if not slot and not summary:  # the first rows: every group is new
            staged = tr.staged = agg._totals(touched)
            return ZSet._wrap({k + (value(*t),): 1 for k, t in staged.items()})
        out, staged = {}, {}
        for k, rows in touched.items():
            old = summary.get(k)
            new = staged[k] = self._fold(rows, slot.get(k), old)
            was = None if old is None else value(*old)
            now = None if new is None else value(*new)
            if was != now:
                if old is not None:
                    out[k + (was,)] = -1
                if new is not None:
                    out[k + (now,)] = 1
        tr.staged = staged
        return ZSet._wrap(out)

    def _fold(self, rows, group, old):
        """The totals of a group after its change rows (row -> weight),
        given its rows and totals before (None when it held no row or
        emitted none); None when no row is left and it emits none."""
        count, total, floats = self.agg._sums(rows)
        c, s, f = old or (0, 0, 0)
        read = self.agg._read
        if group:
            come = [x for x in rows if x not in group]
            go = [x for x, w in rows.items() if group.get(x) == -w]
            if len(group) + len(come) == len(go) and not self._always:
                return None
            if go and f:
                # A row leaves as the trace holds it, which may be a float
                # where the change's equal row holds an int (2.0 and 2), so
                # in a group that mixes them it is looked up.
                gone = set(go)
                f -= len(go) if f == len(group) else sum(isinstance(read(y), float) for y in group if y in gone)
            if floats:
                floats = sum(isinstance(read(x), float) for x in come)
        return c + count, total if isinstance(total, Exception) else s + total, f + floats


# -- fragment builders ----------------------------------------------------------


def build_filter(c: Circuit, x, pred):
    return c.add_lifted(FilterFn(pred), [x], klass=LINEAR, label="filter")


def build_map(c: Circuit, x, fn):
    fn = fn if callable(fn) else MapFunc(fn)
    return c.add_lifted(MapFn(fn), [x], klass=LINEAR, label="map")


def build_projection(c: Circuit, x, cols):
    return c.add_lifted(project_fn(cols), [x], klass=LINEAR, label="project")


def build_distinct(c: Circuit, x):
    return c.add_lifted(DistinctFn(), [x], klass=GENERAL, label="distinct")


def build_union(c: Circuit, a, b):
    return build_distinct(c, c.add_plus([a, b]))


def build_union_all(c: Circuit, a, b):
    return c.add_plus([a, b])


def build_difference(c: Circuit, a, b):
    return build_distinct(c, c.add_plus([a, c.add_negate(b)]))


def build_cartesian(c: Circuit, a, b):
    return c.add_lifted(cartesian_fn(), [a, b], klass=BILINEAR, label="join")


def build_equijoin(c: Circuit, a, b, key_a, key_b):
    return c.add_lifted(JoinFn(key_a, key_b), [a, b], klass=BILINEAR, label="join")


def build_intersect(c: Circuit, a, b):
    return c.add_lifted(intersect_fn(), [a, b], klass=BILINEAR, label="intersect")


def build_semijoin(c: Circuit, a, b, key_a, key_b):
    fn = JoinFn(key_a, key_b, mode="semi", label="semijoin")
    return c.add_lifted(fn, [a, b], klass=BILINEAR, label="semijoin")


def build_antijoin(c: Circuit, a, b, key_a, key_b):
    """Rows of a with no key match in b: distinct(a - semijoin(a, b))."""
    matched = build_semijoin(c, a, b, key_a, key_b)
    return build_distinct(c, c.add_plus([a, c.add_negate(matched)]))


def build_aggregate(c: Circuit, x, kind, column=0, group_cols=None):
    fn = AggregateFn(kind, column, group_cols)
    return c.add_lifted(fn, [x], klass=GENERAL, label="aggregate")


def build_inc_aggregate(c: Circuit, d, agg):
    """Incremental COUNT, SUM or AVG (the AggregateFn agg) of change stream
    d: one own-clock trace of d keyed by the group key, which keeps each
    group's running totals, probed by IncAggregateFn."""
    tr = c.add_trace(d, depth=c.level, index_key=agg.group_key, summary=True)
    return c.add_lifted(IncAggregateFn(agg), [tr], klass=GENERAL, label="aggregate")


def build_inc_distinct(c: Circuit, d, integral=None):
    """Incremental distinct: delta in, delta out.  DistinctDeltaFn's work is
    O(|delta|); it reads z(I d), the feedback delay of d's integral (given,
    or new), which is rebuilt each tick, an O(relation) state update, and
    which a fixpoint body's rewrite swaps for a two-axis trace."""
    integral = c.add_integrate(d) if integral is None else integral
    z = c.nodes[integral].inputs[1]
    return c.add_lifted(DistinctDeltaFn(), [z, d], klass=GENERAL, label="distinct_delta")


def build_inc_join(c: Circuit, a, b, key_a, key_b, depth=None, fn=None):
    """Incremental bilinear join da*db + z(I(a))*db + da*z(I(b)): one
    in-place trace per table side, keyed by the join's keys, and one join
    node that probes them (IncJoinFn).  An event-typed side is never
    integrated, so it gets no trace.  The traces run on clock `depth`: the
    circuit's own, or the parent's in a fixpoint body, where they are
    two-axis and no side may be event-typed."""
    depth = c.level if depth is None else depth
    fn = fn or JoinFn(key_a, key_b)
    if not hasattr(fn, "index_keys"):
        raise CircuitError(f"incremental {getattr(fn, 'label', 'bilinear operator')} needs join keys")
    events = [c.nodes[x].meta["event"] for x in (a, b)]
    if any(events) and depth < c.level:
        raise CircuitError(f"incremental {fn.label!r} reads an event stream on its parent clock")
    ins = [x if ev else c.add_trace(x, depth=depth, index_key=k) for x, ev, k in zip((a, b), events, fn.index_keys())]
    probe = tuple(s for s, ev in enumerate(events) if not ev)
    return c.add_lifted(IncJoinFn(fn, probe), ins, klass=BILINEAR, label=fn.label)


def build_window(c: Circuit, delta, theta, spec: WindowSpec):
    """Sliding window over an accumulated input, emitting the window content.

    Keeps only in-window tuples as state (the clock input must never
    decrease), so memory stays bounded by the window.
    """

    def fold(state, d, clock):
        now, content = state or (None, ZSet())
        now = _advance_theta(now, clock)
        content = _window_filter(content + as_zset(d), now, spec)
        return content, (now, content)

    return c._add("window_fold", (delta, theta), fn=fold, klass=GENERAL, label="window", meta={"window": spec})


def build_window_snapshot(c: Circuit, snapshot, theta, spec: WindowSpec):
    """Window over a full snapshot input (the non-incremental reading)."""

    def window(now, snap, clock):
        now = _advance_theta(now, clock)
        return _window_filter(as_zset(snap), now, spec), now

    return c._add("window", (snapshot, theta), fn=window, klass=GENERAL, label="window", meta={"window": spec})


def _advance_theta(old, theta_in):
    """The window clock after this tick's clock input: its largest
    positively weighted value, which must not fall below the old one."""
    z = as_zset(theta_in)
    read = column_reader(0)
    candidates = [read(x) for x, w in z.raw_items() if w > 0]
    if not candidates:
        return old
    try:
        new = max(candidates)
        if old is not None and new < old:
            raise ValidationError(f"window: clock input decreased from {old} to {new}")
    except TypeError as e:
        raise TypeMismatchError(f"clock values of mixed types: {e}") from e
    return new


def _window_filter(content, theta, spec):
    if theta is None:
        return content
    read = column_reader(spec.ts_column)
    try:
        bound = theta - spec.width
        return ZSet._wrap({x: w for x, w in content.raw_items() if read(x) >= bound})
    except TypeError as e:
        raise TypeMismatchError(f"timestamp column {spec.ts_column} against clock {theta!r}: {e}") from e
