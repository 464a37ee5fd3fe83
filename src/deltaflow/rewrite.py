"""Circuit-to-circuit transforms: distinct consolidation, naive
incrementalization, and the chain-rule optimizer, chained by compile_query.

The optimizer copies a naively incrementalized circuit node by node
(Circuit.copy_nodes) through a table of rewrite rules (_delta_node), so that
every edge carries changes instead of snapshots:

* by default a node is copied unchanged: linear, delay-class and boundary
  nodes (sources, delta0, stream-sum) are their own incremental versions;
* an event-typed node (`meta["event"]`) over events only is copied too; a
  join of a table and events is the incremental join below, with
  z(I(events)) = 0, so its events are not traced; any other node that reads
  events (an aggregate, a window, a state node) keeps the general bracket
  below, its event inputs raw;
* an integrate/differentiate bracket is dropped, as its delta is its input;
* a linear map (project or map) that is all that reads an equi-join or
  cartesian product is folded into it first: a linear operator distributes
  over a bilinear one, so the join emits mapped rows (JoinFn.then), here and
  in nested bodies; the reference circuit keeps the two apart;
* bilinear nodes (joins) become one in-place trace per table side and one
  probing join, da*db + z(I(a))*db + da*z(I(b)) (IncJoinFn);
* distinct becomes the sign-transition form (integrate, delay, H);
* a top-level COUNT, SUM or AVG over a table becomes one own-clock trace
  keyed by the group key, which keeps each group's running totals, and one
  probing aggregate (IncAggregateFn): the weight and value sums are linear,
  so only forming a touched group's row is not;
* anything else keeps explicit integrate/differentiate brackets (MIN and
  MAX, any aggregate in a loop body), and the operators over one input
  share its integral;
* feedback loops keep their shape with the incremental body (cycle rule);
* a nested fixpoint domain, its loop incrementalized first, is rebuilt along
  the parent clock through trace forms only, as traces are the only state
  on a parent clock: linear and delay-class nodes are copied, and the
  incremental join (IncJoinFn) and distinct (DistinctDeltaFn) probe
  two-axis traces of their changes, at what the parent tick touched, in
  place of their own-clock state.  A body with any other node (an
  aggregate, a host function, a window, or a join or distinct whose loop
  is not incrementalized), or a domain fed by events, takes the general
  rule whole, as the reference does: its naive body over the integral of
  its input (events raw), differentiated.
"""

from .circuit import BILINEAR, BOUNDARY, DELAY_CLASS, GENERAL, LINEAR, Circuit
from .errors import CircuitError
from .relational import (
    AggregateFn,
    DistinctDeltaFn,
    IncJoinFn,
    JoinFn,
    MapFn,
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
    form.  The reference wraps it in integrate/differentiate brackets and
    recomputes from snapshots; the incremental circuit pushes the
    incrementalization through every node, so no full snapshot is rebuilt
    where a cheaper form exists.
    """
    reference = incrementalize_naive(consolidate_distinct(c))
    return reference, optimize(reference)


def incrementalize_query(c):
    """The optimized incremental form of a scalar query circuit."""
    return compile_query(c)[1]


def incrementalize_naive(c):
    """Wrap a stream circuit as integrate -> body -> differentiate.

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
    """Push the incrementalization through a naively incrementalized circuit."""
    # A circuit whose sources are all event streams has nothing to bracket.
    if not any(n.meta.get("bracket") == "i" for n in c.nodes) and any(
        n.kind == "source" and not n.meta["event"] for n in c.nodes
    ):
        raise CircuitError("optimize expects a naively incrementalized circuit (no brackets found)")
    c = c.clone()
    _fold_maps_into_joins(c)
    out = Circuit(level=c.level)
    out.copy_sinks(c, _delta_compile(c, out))
    _share_integrals(out)
    return _rebuild_topological(out)


def _share_integrals(c):
    """Make the readers of each integrate node read the first one with the
    same input and clock instead, so that the aggregates over one input
    keep one integral; the unread copies are dropped when c is rebuilt."""
    first = {}
    for n in c.nodes:
        if n.kind == "integrate":
            nid = first.setdefault((n.inputs, n.depth), n.id)
            if nid != n.id:
                _redirect(c, n.id, nid)


def _fold_maps_into_joins(c):
    """Fold each linear map (project or map) whose input is an equi-join or
    cartesian product that nothing else reads into that join, in place and
    in nested bodies too: the join fn applies the map to each row it emits
    (JoinFn.then) and the map node is left unread, or dropped in a body."""
    cons = _consumers(c)
    for n in c.nodes:
        if n.kind == "nested":
            _rebuild_topological(_fold_maps_into_joins(n.meta["inner"]))
        if not (n.kind == "lifted" and isinstance(n.fn, MapFn)):
            continue
        j = c.nodes[n.inputs[0]]
        join = getattr(j.fn, "join", j.fn)  # a probing join's join fn
        if (
            j.kind == "lifted"
            and isinstance(join, JoinFn)
            and not join.semi
            and cons[j.id] == [n.id]
        ):
            j.fn = j.fn.then(n.fn.fn, n.label)
            _redirect(c, n.id, j.id)
    return c


class _NoTraceForm(Exception):
    """A fixpoint body has a node with no trace form (see _delta_traced)."""


def _delta_compile(src, out, parent=False):
    """Copy src into out through the rewrite rules, so that every node of
    out computes the delta stream of the node of src it stands for, along
    out's own clock or, with parent, its parent's; returns the mapping from
    src's node ids to out's."""
    dmap = {}
    return out.copy_nodes(src.nodes, dmap, lambda n: _delta_node(src, out, n, dmap, parent))


def _delta_node(src, out, n, dmap, parent):
    """The rewrite rule for node n, or None: n is copied, as linear,
    delay-class and boundary nodes and event-typed nodes over events are
    their own incremental versions."""
    if n.meta.get("bracket") in ("i", "d"):
        return dmap[n.inputs[0]]  # the delta of an integral/derivative bracket is its input

    events = [src.nodes[i].meta["event"] for i in n.inputs]
    if n.kind == "nested":
        return _delta_nested(out, n, dmap, events, parent)
    if n.meta["event"] and all(events):
        return None
    if parent:
        return _delta_traced(src, out, n, dmap, events)

    if n.kind == "window_fold":
        raise CircuitError(f"no incremental rewrite for node kind {n.kind!r}")
    if n.kind == "window" and not events[0]:
        wf = build_window(out, dmap[n.inputs[0]], dmap[n.inputs[1]], n.meta["window"])
        return out.add_differentiate(wf)
    if any(events) and n.klass != BILINEAR:
        return _bracket(out, n, dmap, events)
    if n.kind == "lifted" and n.klass != LINEAR:
        return _delta_lifted(out, n, dmap)
    return None


def _bracket(out, n, dmap, events):
    """The general rule: a copy of n over the integrals of its inputs,
    event inputs raw, with its output differentiated."""
    ins = {i: dmap[i] if ev else out.add_integrate(dmap[i]) for i, ev in zip(n.inputs, events)}
    return out.add_differentiate(out._copy_node(n, ins, []))


def _delta_lifted(out, n, dmap):
    fn = n.fn
    ins = [dmap[i] for i in n.inputs]
    if n.klass == BILINEAR:
        return build_inc_join(out, ins[0], ins[1], None, None, fn=fn)
    if n.label == "distinct":
        return build_inc_distinct(out, ins[0])
    if isinstance(fn, AggregateFn) and fn.kind in ("count", "sum", "avg") and not out.is_inner:
        # A linear aggregate at top level keeps running totals per group.
        return build_inc_aggregate(out, ins[0], fn)
    return _bracket(out, n, dmap, (False,) * len(ins))


def _delta_traced(src, out, n, dmap, events):
    """The trace form of node n of a body along its parent clock (see the
    module docstring); the old own-clock state is left unread.  A node with
    none, or that reads events, raises _NoTraceForm."""
    if any(events):
        raise _NoTraceForm
    if isinstance(n.fn, DistinctDeltaFn):
        d = dmap[n.inputs[1]]
        return out.add_lifted(n.fn, [out.add_trace(d), d], klass=GENERAL, label=n.label)
    if isinstance(n.fn, IncJoinFn):
        a, b = (dmap[src.nodes[i].inputs[0]] for i in n.inputs)
        return build_inc_join(out, a, b, None, None, depth=out.level - 1, fn=n.fn.join)
    if n.klass in (LINEAR, DELAY_CLASS, BOUNDARY):
        return None
    raise _NoTraceForm


def _delta_nested(out, n, dmap, events, parent):
    """The trace form of a nested domain, or else the general rule whole
    (see the module docstring).  None fits a domain fed by events, which are
    not changes, or one in a body rebuilt along its parent clock: it would
    keep state two clock levels up, so the outermost domain takes the rule."""
    if parent:
        raise _NoTraceForm
    if not events[0]:
        body = n.meta["inner"]
        if any(x.meta.get("bracket") == "i" for x in body.nodes):
            body = loop_incrementalize(body)
        inner = Circuit(level=out.level + 1, inner=True)
        try:
            _delta_compile(body, inner, parent=True)
        except _NoTraceForm:
            pass
        else:
            # The old body's state that the trace forms read through is dropped.
            return out.add_nested(dmap[n.inputs[0]], _rebuild_topological(inner))[0]
    return _bracket(out, n, dmap, events)


def loop_incrementalize(inner):
    """Incrementalize a fixpoint body along its own loop clock.

    For a naive evaluation body this yields the semi-naive form: the loop
    carries per-iteration changes instead of growing snapshots.
    """
    out = Circuit(level=inner.level, inner=True)
    out.metrics = inner.metrics  # the body counts on its parent's counter
    _delta_compile(inner, out)
    return out


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
    eligible = {"filter", "project", "map", "join", "cartesian", "intersect", "semijoin", "distinct"}
    for n in c.nodes:
        if n.kind == "source" and not n.meta["event"]:
            pos.add(n.id)
        elif n.kind == "nested" or n.kind in ("window", "window_fold"):
            pos.add(n.id)
        elif n.kind == "lifted" and n.label in eligible and all(i in pos for i in n.inputs):
            pos.add(n.id)
        elif n.kind == "plus" and all(i in pos for i in n.inputs):
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
        # idempotence: distinct(distinct(x)) -> distinct(x)
        if _is_distinct(n):
            inner = c.nodes[n.inputs[0]]
            if _is_distinct(inner):
                n.inputs = (inner.inputs[0],)
                return True

        # absorb: distinct(Q(distinct(x))) -> distinct(Q(x))
        if _is_distinct(n):
            q = c.nodes[n.inputs[0]]
            label = q.label if q.kind == "lifted" else ("plus" if q.kind == "plus" else None)
            if label in _RULE_ABSORB:
                for slot, i in enumerate(q.inputs):
                    d1 = c.nodes[i]
                    if (
                        _is_distinct(d1)
                        and cons[d1.id] == [q.id]
                        and d1.inputs[0] in pos
                        and all(j in pos for j in q.inputs)
                    ):
                        q.inputs = q.inputs[:slot] + (d1.inputs[0],) + q.inputs[slot + 1 :]
                        return True

        # commute: Q(distinct(x)) -> distinct(Q(x)) for filter/join-like Q
        if n.kind == "lifted" and n.label in _RULE_COMMUTE:
            for slot, i in enumerate(n.inputs):
                d1 = c.nodes[i]
                if (
                    _is_distinct(d1)
                    and cons[d1.id] == [n.id]
                    and d1.inputs[0] in pos
                    and all(j in pos for j in n.inputs)
                ):
                    n.inputs = n.inputs[:slot] + (d1.inputs[0],) + n.inputs[slot + 1 :]
                    _insert_distinct_after(c, n)
                    return True
    return False


def _insert_distinct_after(c, node):
    from .relational import DistinctFn

    nid = c._add("lifted", (node.id,), fn=DistinctFn(), klass=GENERAL, label="distinct")
    _redirect(c, node.id, nid)


def _redirect(c, old, new):
    """Make every reader of node old but node new, and every sink on old,
    read new instead."""
    for m in c.nodes:
        if m.id != new and old in m.inputs:
            m.inputs = tuple(new if i == old else i for i in m.inputs)
    for name, sid in c.sinks.items():
        if sid == old:
            c.sinks[name] = new


def _rebuild_topological(c):
    """Renumber c's nodes in place so ids are again a topological order,
    dropping the ones nothing reads (sources included); returns c.

    Nested bodies move with their nodes.  Feedback stubs impose no ordering
    constraint on their own input edge (it resolves at end of tick), which
    is exactly why legal cycles sort.
    """
    import heapq

    roots = list(c.sinks.values())
    if c.is_inner:
        roots += [x for x in (c.entry_id, c.sum_id) if x is not None]
    reach = set()
    stack = list(roots)
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
