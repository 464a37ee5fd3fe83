"""Circuit-to-circuit transforms: distinct consolidation, naive
incrementalization, semi-naive evaluation and the chain-rule optimizer,
chained by compile_query.

The optimizer copies a naively incrementalized circuit node by node
(Circuit.copy_nodes) so that every edge carries changes instead of
snapshots.  A node's rule is the first row of RULES whose test holds:
(name, applies, build), commented with the paper's identity (Q^Δ the
incremental form of Q; I, D, z integration, differentiation, delay).
I and D are built from z and a plus (Circuit.add_integrate), so they are
linear nodes to the table; a bracket's plus stands for its first input,
and the delay beside it, which nothing reads then, is dropped.
build adds the node's incremental form, or is None to copy the node, and
every node it adds, copies included, records name in meta["rule"].

A walk runs along a clock.  The top level, and a loop body that
loop_incrementalize turns semi-naive, run along their own; a fixpoint body,
naive as its rules read, is rebuilt once along its parent clock, where the
only state is a trace, so bilinear and distinct build their trace forms.
There a body over changes (one with an "i" bracket) may take only the
TRACE_FORMS rows, and one over snapshots only linear.  An own-clock node
that no row names is an error; a body node that no allowed row names sends
its whole domain to the general rule, as the reference does.  The fold row
adds no node: it folds a map into the join node its input's row built.
The walk only reads the circuit it rebuilds."""

from .circuit import BILINEAR, DELAY_CLASS, GENERAL, LINEAR, Circuit
from .errors import CircuitError
from .relational import (
    AggregateFn,
    ClockFn,
    DistinctFn,
    JoinFn,
    MapFn,
    WindowFn,
    build_inc_aggregate,
    build_inc_distinct,
    build_inc_join,
    build_window,
)

_RULE_COMMUTE = {"filter", "join", "cartesian", "intersect", "semijoin"}
_RULE_ABSORB = _RULE_COMMUTE | {"project", "map", "plus"}


# -- algorithm pipeline -------------------------------------------------------


def compile_query(c):
    """Compile a scalar query circuit to (reference, incremental).

    Distinct operators are consolidated first, so both circuits share that
    form.  The reference wraps it in I and D brackets and recomputes from
    snapshots, its fixpoints semi-naive; the incremental circuit pushes the
    incrementalization through every node, so no full snapshot is rebuilt
    where a cheaper form exists.
    """
    reference = incrementalize_naive(consolidate_distinct(c))
    incremental = optimize(reference)
    return seminaive(reference), incremental


def incrementalize_query(c):
    """The optimized incremental form of a scalar query circuit."""
    return compile_query(c)[1]


def incrementalize_naive(c):
    """Wrap a stream circuit as I -> body -> D.

    The result consumes per-tick deltas and emits per-tick deltas, but the
    body still computes on full snapshots.  Sources and sinks on event-typed
    nodes stay raw: they are per-tick values, not changes of anything.
    """
    return _bracketed(c, _marked(Circuit.add_integrate, "i"), _marked(Circuit.add_differentiate, "d"))


def deincrementalize_naive(c):
    """The inverse reading: differentiate inputs, integrate outputs."""
    return _bracketed(c, Circuit.add_differentiate, Circuit.add_integrate)


def _bracketed(c, wrap_in, wrap_out):
    """Copy c with wrap_in after every source and wrap_out before every sink,
    leaving event-typed ones raw."""
    out = Circuit(level=c.level)
    sources = [n for n in c.nodes if n.kind == "source"]
    mapping = out.copy_nodes(sources, {})
    for n in sources:
        if not n.meta["event"]:
            mapping[n.id] = wrap_in(out, mapping[n.id])
    out.copy_nodes(c.nodes, mapping)
    for name, nid in c.sinks.items():
        out.add_sink(mapping[nid] if c.nodes[nid].meta["event"] else wrap_out(out, mapping[nid]), name)
    return out


def _over_changes(c):
    """Whether circuit c reads changes: it holds an "i" bracket."""
    return any(n.meta.get("bracket") == "i" for n in c.nodes)


def _marked(add, tag):
    """add, tagging the new node as an incrementalization bracket."""

    def add_marked(out, x):
        nid = add(out, x)
        out.nodes[nid].meta["bracket"] = tag
        return nid

    return add_marked


def differential_check(scalar, traces, raise_on_mismatch=True):
    """Randomized soundness check: the optimized incremental circuit must be
    tick-for-tick equal to the snapshot-recompute form on every given trace
    (a list of lists of source-name -> delta dicts).  Returns the first
    mismatch as (trace_index, tick, view, incremental, reference) or None.
    """
    from .groupval import gv_eq

    naive, opt = compile_query(scalar)
    for ti, trace in enumerate(traces):
        naive.reset()
        opt.reset()
        for tick, inputs in enumerate(trace):
            a = opt.step(inputs)
            b = naive.step(inputs)
            for view in scalar.sinks:
                if not gv_eq(a[view], b[view]):
                    found = (ti, tick, view, a[view], b[view])
                    if raise_on_mismatch:
                        raise CircuitError(
                            f"rewrite mismatch on trace {ti} tick {tick} view {view!r}: {a[view]!r} != {b[view]!r}"
                        )
                    return found
    return None


# -- the chain-rule optimizer ---------------------------------------------------


def optimize(c):
    """Push the incrementalization through a naively incrementalized
    circuit, which is left as it is."""
    # A circuit whose sources are all event streams has nothing to bracket.
    if not _over_changes(c) and any(n.kind == "source" and not n.meta["event"] for n in c.nodes):
        raise CircuitError("optimize expects a naively incrementalized circuit (no brackets found)")
    out = Circuit(level=c.level)
    out.copy_sinks(c, _delta_compile(c, out))
    return _rebuild_topological(out)


def seminaive(c):
    """Evaluate c's fixpoints semi-naively, in place; returns c.

    Each body over changes is replaced by its loop incrementalization,
    unless that takes the general row: the naive body runs faster then."""
    for n in c.nodes:
        if n.kind == "nested" and _over_changes(n.meta["inner"]):
            body = loop_incrementalize(n.meta["inner"])
            if all(m.meta["rule"] != "general" for m in body.nodes):
                n.meta["inner"] = body
    return c


def loop_incrementalize(inner):
    """Incrementalize a fixpoint body along its own loop clock.

    For a naive evaluation body this yields the semi-naive form: the loop
    carries per-iteration changes instead of growing snapshots.  The delays
    of the brackets the walk drops are dropped too, as nothing reads them.
    """
    out = Circuit(level=inner.level, inner=True)
    out.metrics = inner.metrics  # the body counts on its parent's counter
    _delta_compile(inner, out)
    return _rebuild_topological(out)


class _NoRule(CircuitError):
    """No row that the walk may take names a node."""


class _Walk:
    """One walk of circuit src into out, along out's parent clock or its
    own: dmap maps src's node ids to out's, integrals a node of out to its
    integral, built once, so that the operators over one input share it,
    and cons src's node ids to their readers'."""

    __slots__ = ("src", "out", "parent", "dmap", "integrals", "cons")

    def __init__(self, src, out, parent):
        self.src, self.out, self.parent = src, out, parent
        self.dmap, self.integrals, self.cons = {}, {}, _consumers(src)

    @property
    def depth(self):
        """The clock of the state the walk builds: out's parent's or out's own."""
        return self.out.level - 1 if self.parent else self.out.level

    def ins(self, n):
        return [self.dmap[i] for i in n.inputs]

    def integral(self, x):
        nid = self.integrals.get(x)
        if nid is None:
            nid = self.integrals[x] = self.out.add_integrate(x)
        return nid


def _delta_compile(src, out, parent=False):
    """Copy src into out through the rules, along out's parent clock or its
    own, each node of out the change of the node of src it stands for;
    returns the mapping from src's node ids to out's, or raises _NoRule for
    a node that no allowed row names."""
    w = _Walk(src, out, parent)
    # Along the parent clock a body over changes takes the trace forms only,
    # one over snapshots the linear row; the own clock takes every row.
    allowed = (TRACE_FORMS if _over_changes(src) else ("linear",)) if parent else None
    copied = []

    def rule(n):
        ev = [src.nodes[i].meta["event"] for i in n.inputs]
        for name, applies, build in RULES:
            if applies(w, n, ev):
                if allowed is not None and name not in allowed:
                    break
                if build is None:
                    copied.append((n.id, name))
                    return None
                first = len(out.nodes)
                nid = build(w, n, ev)
                _stamp(out.nodes[first:], name)
                return nid
        raise _NoRule(f"no incremental rewrite for node kind {n.kind!r}")

    out.copy_nodes(src.nodes, w.dmap, rule)
    for i, name in copied:
        out.nodes[w.dmap[i]].meta["rule"] = name
    return w.dmap


def _stamp(nodes, name):
    """Name the rule of every node, nested bodies included, that has none."""
    for m in nodes:
        m.meta.setdefault("rule", name)
        if m.kind == "nested":
            _stamp(m.meta["inner"].nodes, name)


def _general(w, n, ev):
    """A copy of n over the integrals of its inputs, event inputs raw,
    differentiated, its nodes named general whichever row calls it."""
    first = len(w.out.nodes)
    ins = {i: x if e else w.integral(x) for i, x, e in zip(n.inputs, w.ins(n), ev)}
    nid = w.out.add_differentiate(w.out._copy_node(n, ins, []))
    _stamp(w.out.nodes[first:], "general")
    return nid


def _nested(w, n, ev):
    """The domain with its body rebuilt along the parent clock, or else the
    general rule whole."""
    inner = Circuit(level=w.out.level + 1, inner=True)
    try:
        _delta_compile(n.meta["inner"], inner, parent=True)
    except _NoRule:
        return _general(w, n, ev)
    return w.out.add_nested(w.dmap[n.inputs[0]], _rebuild_topological(inner))[0]


def _inc_distinct(w, n, ev):
    """distinct^Δ over the earlier changes of its input d: a two-axis trace
    of d on the parent clock, z(I d) on the own clock."""
    d = w.dmap[n.inputs[0]]
    acc = w.out.add_trace(d) if w.parent else w.out.nodes[w.integral(d)].inputs[1]
    return build_inc_distinct(w.out, d, acc)


def _foldable(w, n, ev):
    """Whether n is a linear map (project or map) over an equi-join or
    cartesian product that nothing else reads."""
    if not (n.kind == "lifted" and n.klass == LINEAR and isinstance(n.fn, MapFn)):
        return False
    j = w.src.nodes[n.inputs[0]]
    join = getattr(j.fn, "join", j.fn)  # a probing join's join fn
    return j.kind == "lifted" and isinstance(join, JoinFn) and not join.semi and w.cons[j.id] == [n.id]


def _fold(w, n, ev):
    """The join's node, built by its own row, with the map folded in."""
    j = w.out.nodes[w.dmap[n.inputs[0]]]
    j.fn = j.fn.then(n.fn.fn, n.label)
    return j.id


RULES = (
    # D(I x) = x: an incrementalization bracket's plus stands for its input.
    ("bracket", lambda w, n, ev: n.meta.get("bracket") in ("i", "d"), lambda w, n, ev: w.dmap[n.inputs[0]]),
    # (f ∘ ×)^Δ = f ∘ ×^Δ: a linear map f after a join is bilinear too, so
    # the join's own row serves both, f applied to each row the join emits
    # (JoinFn.then); the reference keeps the two apart, in its semi-naive
    # loop bodies too.
    ("fold", lambda w, n, ev: (w.parent or not w.out.is_inner) and _foldable(w, n, ev), _fold),
    # (fix Q)^Δ: the body is rebuilt along the parent clock.
    ("nested", lambda w, n, ev: n.kind == "nested" and not ev[0], _nested),
    # Events are per-tick values, not changes: an event-typed node over
    # events only is its own incremental version.
    ("events", lambda w, n, ev: n.meta["event"] and all(ev), None),
    # The window clock is a per-tick value, not a change: its chain, now =
    # ClockFn(θ, z(now)), is copied as it is.
    ("clock", lambda w, n, ev: isinstance(w.src.nodes[n.inputs[0]].fn if n.kind == "delay" else n.fn, ClockFn), None),
    # window^Δ = D(W) with W = window(Δx + z(W), now): the window's content
    # takes its input's changes and drops what falls behind the clock.
    (
        "window",
        lambda w, n, ev: isinstance(n.fn, WindowFn) and not ev[0],
        lambda w, n, ev: w.out.add_differentiate(build_window(w.out, *w.ins(n), n.fn.spec)),
    ),
    # (a × b)^Δ = Δa × Δb + z(I a) × Δb + Δa × z(I b): an in-place trace per
    # table side on the walk's clock, probed by one join (IncJoinFn); z(I e)
    # = 0 for events e.  On the parent clock the traces are two-axis.
    (
        "bilinear",
        lambda w, n, ev: n.kind == "lifted" and n.klass == BILINEAR,
        lambda w, n, ev: build_inc_join(w.out, *w.ins(n), None, None, depth=w.depth, fn=n.fn),
    ),
    # distinct^Δ = H(z(I x), Δx): the rows whose weight changes sign.  On
    # the parent clock H looks up R[u] in a two-axis trace of the changes.
    ("distinct", lambda w, n, ev: n.kind == "lifted" and n.label == "distinct" and not ev[0], _inc_distinct),
    # A top-level COUNT, SUM or AVG sums its group's rows, a linear map: an
    # own-clock trace keeps the running totals by group (IncAggregateFn).
    (
        "linear aggregate",
        lambda w, n, ev: isinstance(n.fn, AggregateFn) and n.fn.kind in ("count", "sum", "avg")
        and not (w.out.is_inner or ev[0]),
        lambda w, n, ev: build_inc_aggregate(w.out, *w.ins(n), n.fn),
    ),
    # Q^Δ = D ∘ Q ∘ I for the rest over snapshots: MIN and MAX, an aggregate
    # in a loop body, a node over events and tables.
    ("general", lambda w, n, ev: n.klass == GENERAL or any(ev), _general),
    # Q^Δ = Q for a linear Q, the delta0 entry included, and a delay (so a
    # feedback loop keeps its shape around its incremental body: the cycle rule).
    ("linear", lambda w, n, ev: n.klass in (LINEAR, DELAY_CLASS) or n.kind == "source", None),
)

# The rows with a trace form, the only state on a parent clock.
TRACE_FORMS = ("bracket", "fold", "bilinear", "distinct", "linear")


# -- distinct consolidation -------------------------------------------------------


def consolidate_distinct(c):
    """Push distinct operators down and drop the redundant ones (fixpoint).

    Valid only for positive (set-semantics) subgraphs, tracked per node:
    a distinct feeding an eligible operator commutes to its output, and a
    distinct whose result is re-distinct-ed downstream is dropped.
    """
    c = c.clone()
    for _ in range(1000):
        if not _consolidate_once(c):
            break
    else:
        raise CircuitError("distinct consolidation did not converge")
    return _rebuild_topological(c)


def _is_distinct(n):
    return n.kind == "lifted" and n.label == "distinct"


def _positive_nodes(c):
    pos = set()
    eligible = {"filter", "project", "map", "join", "cartesian", "intersect", "semijoin", "distinct", "plus"}
    for n in c.nodes:
        if n.kind == "nested" or isinstance(n.fn, WindowFn) or n.kind == "source" and not n.meta["event"]:
            pos.add(n.id)
        # an operator is named by its label, or its kind when it has none: a
        # plus by "plus", a plus that subtracts by "minus", never positive
        elif (n.label or n.kind) in eligible and all(i in pos for i in n.inputs):
            pos.add(n.id)
    return pos


def _consumers(c):
    cons = {n.id: [] for n in c.nodes}
    for n in c.nodes:
        for i in n.inputs:
            cons[i].append(n.id)
    for nid in c.sinks.values():
        cons[nid].append(-1)  # sinks pin their node
    return cons


def _consolidate_once(c):
    pos = _positive_nodes(c)
    cons = _consumers(c)
    for n in c.nodes:
        if _is_distinct(n):
            q = c.nodes[n.inputs[0]]
            # idempotence: distinct(distinct(x)) -> distinct(x)
            if _is_distinct(q):
                n.inputs = (q.inputs[0],)
                return True
            # absorb: distinct(Q(distinct(x))) -> distinct(Q(x))
            if (q.label or q.kind) in _RULE_ABSORB and _pull_distinct(c, q, pos, cons):
                return True
        # commute: Q(distinct(x)) -> distinct(Q(x)) for filter/join-like Q
        if n.kind == "lifted" and n.label in _RULE_COMMUTE and _pull_distinct(c, n, pos, cons):
            _insert_distinct_after(c, n)
            return True
    return False


def _pull_distinct(c, q, pos, cons):
    """Make q read x in place of its first input distinct(x) that nothing
    else reads, when x and q's inputs are positive; whether it did."""
    if all(j in pos for j in q.inputs):
        for slot, i in enumerate(q.inputs):
            d = c.nodes[i]
            if _is_distinct(d) and cons[i] == [q.id] and d.inputs[0] in pos:
                q.inputs = q.inputs[:slot] + (d.inputs[0],) + q.inputs[slot + 1 :]
                return True
    return False


def _insert_distinct_after(c, node):
    """Make every reader of node, and every sink on it, read a new
    distinct of node instead."""
    old, new = node.id, c._add("lifted", (node.id,), fn=DistinctFn(), klass=GENERAL, label="distinct")
    for m in c.nodes[:new]:
        m.inputs = tuple(new if i == old else i for i in m.inputs)
    c.sinks = {name: new if sid == old else sid for name, sid in c.sinks.items()}


def _rebuild_topological(c):
    """Renumber c's nodes in place so ids are again a topological order,
    dropping the ones nothing reads (sources included); returns c.

    Nested bodies move with their nodes.  Feedback stubs impose no ordering
    constraint on their own input edge (it resolves at end of tick), which
    is exactly why legal cycles sort.
    """
    import heapq

    stack = list(c.sinks.values())
    if c.is_inner:
        stack += [x for x in (c.entry_id, c.sum_id) if x is not None]
    reach = set()
    while stack:
        nid = stack.pop()
        if nid in reach:
            continue
        reach.add(nid)
        stack.extend(c.nodes[nid].inputs)

    indeg = {nid: 0 for nid in reach}
    consumers = {nid: [] for nid in reach}
    for nid in reach:
        n = c.nodes[nid]
        if n.meta.get("feedback"):
            continue
        for i in n.inputs:
            consumers[i].append(nid)
            indeg[nid] += 1
    heap = [nid for nid in reach if indeg[nid] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        nid = heapq.heappop(heap)
        order.append(nid)
        for m in consumers[nid]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(heap, m)
    if len(order) != len(reach):
        raise CircuitError("cycle without a strict (delay) operator")

    new = {old: i for i, old in enumerate(order)}
    c.nodes = [c.nodes[old] for old in order]
    for n in c.nodes:
        n.id = new[n.id]
        n.inputs = tuple(new[i] for i in n.inputs)
    c.sources = {name: new[nid] for name, nid in c.sources.items() if nid in new}
    c.sinks = {name: new[nid] for name, nid in c.sinks.items()}
    c.entry_id, c.sum_id = (None if x is None else new[x] for x in (c.entry_id, c.sum_id))
    c._validated = False
    return c
