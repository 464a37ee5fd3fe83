"""Executable stream circuits.

A Circuit is a DAG of operator nodes evaluated once per clock tick.  Cycles
are only created through feedback stubs, which must be strict (delay-class);
the engine resolves them by reading the delay's stored previous value first
and latching its new input at the end of the tick.

Every node carries a `depth` (number of liftings applied), by default its
circuit's level; on a stateful operator it picks the clock:

* depth == circuit.level: the operator runs on this circuit's own clock;
* depth == circuit.level + 1: the operator is lifted one level past the
  clock, so its per-tick value is a StreamVector and the operator acts along
  the vector (column) axis statelessly;
* depth == circuit.level - 1: the operator runs on the parent clock of a
  nested domain and persists across parent ticks.  Only a trace may: it
  keeps one slot per inner tick u (validate() rejects any other state here).

Every stateful node (delay, trace, stream-sum, window) keeps its state by
one rule.  A node reads its state when it is evaluated and latches the next
state at the end of the tick, never in between.  On its own clock the state
sits at key `nid` in the circuit's `_state`.  A trace node keeps one trace
(zset.Trace) updated in place at key `nid`: in slot 0 on its own clock, in
the circuit's `_state`; in slot u on the parent clock, in the nested
domain's parent-clock store, which lives in the parent's `_state`.  The
domain's accumulated per-iteration change is a trace at the stream-sum's id
in that store; an own-clock trace may also keep a summary per key
(zset.SummaryTrace).  A trace node's value is a TraceView that only probing
operators may read, never a sink, and a trace is never lifted past its
clock.  Traces latch before the other state, and an overflow while latching
rolls back the own-clock traces latched before it.  A nested domain's
parent-clock traces commit with the end-of-tick latch of the parent: a
parent tick that fails anywhere (a cap hit, an overflow, an operator error
after the block ran) rolls them back, so the store is as it was before the
tick.

I and D are not node kinds but built from the delay z: I(x) = x + z(I(x)) is
a plus over x and a feedback delay of itself, and D(x) = x - z(x) a plus
labelled "minus", which subtracts its last input; negation is a "minus" plus
of one input.

A node's `meta["event"]`, set when it is added, says that its values are
per-tick events, which the rewrite leaves raw: a source as declared, a
LINEAR node whose inputs all are, a BILINEAR node with any input that is;
never a GENERAL operator, a state node, a window or a trace.

validate() compiles the circuit, nested bodies included, to a step program:
one callable per node that binds the node's inputs, fn, label, metrics and
state location once, so a tick runs the list without dispatching on node
kinds.  The program calls the fn each node holds when it is built (at the
first step) and is rebuilt after a node is added or a feedback stub
connected.  A step skips an operator whose change is zero, as linearity
allows (f(0) = 0): a LINEAR node (a LINEAR lifted fn or plus) whose
inputs are all zero, and an operator with `rows_in` whose `rows_in` is 0,
yield ZERO without calling fn.  Every other operator runs, so an empty
COUNT still emits (0,).  A skipped node scans and emits no rows, so the
`tuples` metric is the same as if it had run.

Nested clock domains are bracketed by a single delta0 entry and a single
stream-sum exit.  Each parent tick runs the inner clock until the sum node's
input hits the termination predicate (default: the group zero), visiting at
least u = 0 and every u at which a parent-clock trace of the domain holds a
slot from earlier ticks, where corrections are owed.  Above those no earlier
tick left state, so every probing term that pairs this tick's changes or
logs with an earlier slot (IncJoinFn's (L_a, B_u) and (A_u, L_b),
DistinctDeltaFn's R[u] lookups) is zero, and the run stops as a fresh run
would.  Traces drop empty slots, so a run follows the state, not the length
of earlier runs.  The predicate sees iteration u's accumulated change (a
trace at the stream-sum's id), as the reference's run does.  `iterations`
counts the inner ticks visited; the cap bounds the highest.
"""

from .errors import CircuitError, DeltaflowError, NonTerminationError, TypeMismatchError, ValidationError
from .groupval import ZERO, StreamVector, as_vector, as_zset, gv_add, gv_eq, gv_is_zero, gv_sub
from .zset import SummaryTrace, Trace, TraceView, ZSet

DEFAULT_ITERATION_CAP = 1_000_000

LINEAR = "linear"
BILINEAR = "bilinear"
GENERAL = "general"
DELAY_CLASS = "delay"
BOUNDARY = "boundary"

# State kinds with a nesting depth: own or vector (column) clock; a trace
# runs on its own or the parent clock only.
_STATEFUL_KINDS = frozenset({"delay", "trace"})
# Every kind that keeps state; stream-sums and windows run on their own clock.
# A window node's fn(state, content, clock) returns (output, next_state).
STATE_KINDS = _STATEFUL_KINDS | {"stream_sum", "window", "window_fold"}


class Metrics:
    __slots__ = ("tuples", "iterations")

    def __init__(self):
        self.tuples = 0
        self.iterations = 0


class Node:
    __slots__ = ("id", "kind", "inputs", "depth", "fn", "label", "klass", "name", "meta")

    def __init__(self, id, kind, inputs=(), depth=0, fn=None, label="", klass="", name="", meta=None):
        self.id = id
        self.kind = kind
        self.inputs = tuple(inputs)
        self.depth = depth
        self.fn = fn
        self.label = label
        self.klass = klass
        self.name = name
        self.meta = meta if meta is not None else {}

    def __repr__(self):
        tag = self.label or self.name
        return f"<{self.kind}{f':{tag}' if tag else ''}#{self.id} d{self.depth}>"


class _InnerCtx:
    """Evaluation context of a nested domain's block run: the inner tick u,
    the entry value, and the domain's parent-clock traces `outer`, by node
    id, which the parent tick commits or rolls back."""

    __slots__ = ("u", "entry", "outer")

    def __init__(self, entry, outer):
        self.u = 0
        self.entry = entry
        self.outer = outer

    def commit(self):
        """The parent tick ended: the block's changes to its traces stay."""
        for tr in self.outer.values():
            tr.commit()

    def rollback(self):
        """The parent tick failed: leave the domain's traces as they were."""
        for tr in self.outer.values():
            tr.rollback()


class Circuit:
    def __init__(self, level=0, inner=False):
        self.nodes = []
        self.sources = {}
        self.sinks = {}
        self.level = level
        self.is_inner = inner
        self.metrics = Metrics()
        self.entry_id = None
        self.sum_id = None
        self._state = {}
        self._validated = False
        # Set by validate(): feedback stubs on the vector clock, the traces
        # (all, and those on the own clock), and the step program, one
        # callable per node (see _compile_step).
        self._vector_stubs = ()
        self._traces = self._own_traces = ()
        self._program = ()
        # The nested domains run in the current tick, committed or rolled
        # back with it (see _InnerCtx).
        self._blocks_run = []
        # The vector feedback stubs' values during a column-axis fixpoint pass.
        self._stub_vals = None

    # -- construction --------------------------------------------------------

    def _add(self, kind, inputs=(), depth=None, **kw):
        """Add a node on this circuit's clock, or at the given depth."""
        nodes = self.nodes
        for i in inputs:
            if not (0 <= i < len(nodes)):
                raise CircuitError(f"unknown input node {i}")
        node = Node(len(nodes), kind, inputs, self.level if depth is None else depth, **kw)
        if kind != "source":  # a source declares it
            events = [nodes[i].meta["event"] for i in inputs]
            linear = node.klass == LINEAR and bool(events)
            node.meta["event"] = all(events) if linear else node.klass == BILINEAR and any(events)
        nodes.append(node)
        self._validated = False
        return node.id

    def add_source(self, name, sort="zset", event=False):
        if name in self.sources:
            raise CircuitError(f"duplicate source name {name!r}")
        if self.is_inner:
            raise CircuitError("nested domains receive input through their delta0 entry")
        nid = self._add("source", (), name=name, meta={"sort": sort, "event": event})
        self.sources[name] = nid
        return nid

    def add_sink(self, node, name):
        if name in self.sinks:
            raise CircuitError(f"duplicate sink name {name!r}")
        if not (0 <= node < len(self.nodes)):
            raise CircuitError(f"sink on nonexistent node {node}")
        self.sinks[name] = node
        return node

    def add_lifted(self, fn, inputs, klass=GENERAL, label=""):
        arity = getattr(fn, "arity", None)
        if arity is not None and arity != len(inputs):
            raise CircuitError(f"{label or 'function'} expects {arity} inputs, got {len(inputs)}")
        return self._add("lifted", tuple(inputs), fn=fn, klass=klass, label=label)

    def add_plus(self, inputs):
        return self._add("plus", tuple(inputs), klass=LINEAR)

    def add_negate(self, x):
        return self._add("plus", (x,), klass=LINEAR, label="minus")

    def add_delay(self, x, depth=None):
        return self._add("delay", (x,), depth=depth, klass=DELAY_CLASS)

    def add_integrate(self, x, depth=None):
        """I(x) = x + z(I(x)): a plus over x and a feedback delay of itself,
        which is z(I(x)); returns the plus."""
        stub = self.add_feedback(depth=depth)
        nid = self.add_plus([x, stub])
        self.connect_feedback(nid, stub)
        return nid

    def add_differentiate(self, x, depth=None):
        """D(x) = x - z(x): a plus that subtracts its last input."""
        return self._add("plus", (x, self.add_delay(x, depth=depth)), klass=LINEAR, label="minus")

    def add_trace(self, x, depth=None, index_key=None, summary=False):
        """A trace of change stream x, grouped by index_key (see
        zset.Trace), on the given clock: by default the parent clock of this
        nested domain.  With summary, an own-clock trace also keeps a
        summary per key that its probe stages (zset.SummaryTrace)."""
        return self._add(
            "trace",
            (x,),
            depth=self.level - 1 if depth is None else depth,
            klass=DELAY_CLASS,
            meta={"index_key": index_key, "summary": summary},
        )

    def add_feedback(self, depth=None, delayed=True):
        """A feedback stub: a delay whose input is wired up later."""
        meta = {"feedback": True, "delayed": delayed}
        return self._add("delay", (), depth=depth, klass=DELAY_CLASS, meta=meta)

    def connect_feedback(self, from_node, stub):
        if not (0 <= stub < len(self.nodes)) or not self.nodes[stub].meta.get("feedback"):
            raise CircuitError(f"node {stub} is not a feedback stub")
        node = self.nodes[stub]
        if node.inputs:
            raise CircuitError(f"feedback stub {stub} already connected")
        if not (0 <= from_node < len(self.nodes)):
            raise CircuitError(f"unknown node {from_node}")
        if not node.meta.get("delayed", True):
            raise CircuitError("feedback cycle without a strict (delay) operator")
        node.inputs = (from_node,)
        self._validated = False

    def add_delta0(self):
        if not self.is_inner:
            raise CircuitError("delta0 is only valid on a nested-domain boundary")
        if self.entry_id is not None:
            raise CircuitError("nested domain already has a delta0 entry")
        nid = self._add("delta0", (), klass=BOUNDARY)
        self.entry_id = nid
        return nid

    def add_stream_sum(self, x, termination=None, max_iterations=None):
        if not self.is_inner:
            raise CircuitError("stream-sum is only valid on a nested-domain boundary")
        if self.sum_id is not None:
            raise CircuitError("nested domain already has a stream-sum exit")
        nid = self._add(
            "stream_sum",
            (x,),
            klass=BOUNDARY,
            meta={"termination": termination, "cap": max_iterations},
        )
        self.sum_id = nid
        return nid

    def add_nested(self, x, inner=None):
        """Open a nested clock domain fed by node x, with the body inner or
        an empty one; returns (node id, inner circuit)."""
        if inner is None:
            inner = Circuit(level=self.level + 1, inner=True)
        inner._count_on(self.metrics)
        nid = self._add("nested", (x,), klass=GENERAL, meta={"inner": inner})
        return nid, inner

    def _count_on(self, metrics):
        """Count this circuit's work and its nested bodies', at any depth, on metrics."""
        self.metrics = metrics
        for n in self.nodes:
            if n.kind == "nested":
                n.meta["inner"]._count_on(metrics)

    # -- introspection ---------------------------------------------------------

    def node(self, nid):
        return self.nodes[nid]

    def census(self):
        """Counter over (kind, label) incl. nested bodies; used by shape tests."""
        from collections import Counter

        c = Counter()
        for n in self.nodes:
            c[(n.kind, n.label)] += 1
            if n.kind == "nested":
                c.update(n.meta["inner"].census())
        return c

    def validate(self):
        if self._validated:
            return
        nodes = self.nodes
        for n in nodes:
            if n.kind in _STATEFUL_KINDS:
                eff = n.depth - self.level
                if n.meta.get("feedback") and not n.inputs:
                    raise CircuitError(f"feedback stub {n.id} left unconnected")
                if eff not in (-1, 0, 1):
                    raise CircuitError(f"node {n} nesting depth {n.depth} unusable at level {self.level}")
                if eff == -1 and not self.is_inner:
                    raise CircuitError(f"node {n} references a parent clock but has none")
                if eff == -1 and n.kind != "trace":
                    raise CircuitError(f"node {n} keeps state on the parent clock, where only a trace may")
                if n.kind == "trace" and eff == 1:
                    raise CircuitError(f"trace {n} cannot be lifted past its clock")
            if n.kind == "nested":
                inner = n.meta["inner"]
                if inner.entry_id is None or inner.sum_id is None:
                    raise CircuitError("nested domain needs exactly one delta0 entry and one stream-sum exit")
                inner.validate()
            # A trace is state updated in place: only operators that probe it
            # may read it, so it never reaches a sink or another value.
            for slot, i in enumerate(n.inputs):
                if nodes[i].kind == "trace" and not (
                    n.kind == "lifted" and slot in getattr(n.fn, "probe_args", ())
                ):
                    raise CircuitError(f"trace {nodes[i]} feeds {n}, which does not probe it")
        for name, nid in self.sinks.items():
            if nodes[nid].kind == "trace":
                raise CircuitError(f"sink {name!r} reads trace {nodes[nid]}")
        self._vector_stubs = [
            n.id for n in nodes if n.kind == "delay" and n.meta.get("feedback") and n.depth - self.level == 1
        ]
        self._traces = [n.id for n in nodes if n.kind == "trace"]
        self._own_traces = [nid for nid in self._traces if nodes[nid].depth == self.level]
        self._program = [self._compile_step(n) for n in nodes]
        self._validated = True

    def reset(self):
        """Drop all operator state.  Nested bodies clear their own state at
        the start of every block run, and their parent-clock traces live in
        this circuit's."""
        self._state.clear()

    # -- evaluation ------------------------------------------------------------

    def step(self, inputs):
        """Advance one tick: one value per source in, one per sink out.

        A type clash inside an expression or a MIN/MAX raises
        TypeMismatchError naming the operator; exceptions raised by host
        callables pass through unchanged."""
        self.validate()
        for name in self.sources:
            if name not in inputs:
                raise ValidationError(f"missing input for source {name!r}")
        vals = self._eval_tick(inputs, ctx=None)
        return {name: vals[nid] for name, nid in self.sinks.items()}

    def run(self, ticks):
        """Feed a list of input dicts, returning the list of output dicts."""
        return [self.step(t) for t in ticks]

    def _eval_tick(self, inputs, ctx):
        # State changes are deferred to the end of the tick: delays must not
        # see their own new input, and the lifted-feedback fixpoint re-runs
        # the pass without committing anything.  Traces latch first: one that
        # overflows takes its rows back and raises.  A tick that raises rolls
        # back the own-clock traces latched before (parent-clock ones go with
        # the parent tick) and the nested domains it ran; otherwise those
        # commit.  A latch, which cannot fail, then stores at key the value of
        # node src at the end of the tick, or the given value when src is None.
        blocks = self._blocks_run = []
        try:
            vals, latches = self._solve(inputs, ctx)
            for nid in self._traces:
                view = vals[nid]
                view.trace[view.u] = view.rows
        except BaseException:
            for nid in self._own_traces:
                tr = self._state.get(nid)
                if tr is not None:
                    tr.rollback()
            for block in blocks:
                block.rollback()
            raise
        for nid in self._own_traces:
            self._state[nid].commit()
        for block in blocks:
            block.commit()
        state = self._state
        for key, src, value in latches:
            state[key] = value if src is None else vals[src]
        return vals

    def _solve(self, inputs, ctx):
        """The tick's values and latches: one pass, or with lifted feedback
        the passes that solve the column-axis fixpoint."""
        vector_stubs = self._vector_stubs
        if not vector_stubs:
            return self._pass(inputs, ctx)
        stub_vals = self._stub_vals = {sid: ZERO for sid in vector_stubs}
        for _ in range(DEFAULT_ITERATION_CAP):
            vals, latches = self._pass(inputs, ctx)
            new_vals = {sid: as_vector(vals[self.nodes[sid].inputs[0]]).shift() for sid in vector_stubs}
            if all(gv_eq(new_vals[s], stub_vals[s]) for s in vector_stubs):
                return vals, latches
            stub_vals = self._stub_vals = new_vals
        raise NonTerminationError("lifted feedback did not stabilize")

    def _pass(self, inputs, ctx):
        """Run the step program once: each node's value, and the latches."""
        vals = []
        latches = []
        put = vals.append
        try:
            for step in self._program:
                put(step(vals, inputs, ctx, latches))
        except DeltaflowError as e:
            e.node = len(vals)  # set again by each enclosing circuit
            raise
        return vals, latches

    # -- the step program ----------------------------------------------------------
    #
    # A node's step(vals, inputs, ctx, latches) returns its value for the
    # tick from the values of the nodes before it.

    def _compile_step(self, node):
        kind, ids = node.kind, node.inputs
        if kind == "lifted":
            return self._lifted_step(node)
        if kind == "plus" and node.label == "minus":
            *added, sub = ids
            return lambda vals, *_: gv_sub(_plus([vals[i] for i in added]), vals[sub])
        if kind == "plus":
            return lambda vals, *_: _plus([vals[i] for i in ids])
        if kind == "source":
            return _source_step(node.name, node.meta.get("sort") == "zset")
        if kind == "delta0":
            return _delta0_step
        if kind == "nested":
            return lambda vals, *_: self._run_block(node, vals[ids[0]])
        if kind in STATE_KINDS:
            return self._state_step(node)
        raise CircuitError(f"unknown node kind {kind!r}")

    def _lifted_step(self, node):
        """Call fn, or skip it (see the module docstring), and add its work
        to `tuples`: the rows it emits and those it scans, which are its
        `rows_in` or else its Z-set arguments that it does not probe."""
        fn, ids, metrics = node.fn, node.inputs, self.metrics
        name = getattr(fn, "op_name", None) or node.label or "lifted"
        rows_in = getattr(fn, "rows_in", None)
        probed = getattr(fn, "probe_args", ())
        scanned = tuple(i for slot, i in enumerate(ids) if slot not in probed)
        linear = node.klass == LINEAR

        def step(vals, inputs, ctx, latches):
            ins = [vals[i] for i in ids]
            if rows_in is not None:
                n = rows_in(*ins)
                if not n:
                    return ZERO
            elif linear and all(map(gv_is_zero, ins)):
                return ZERO
            else:
                n = 0
                for i in scanned:
                    x = vals[i]
                    if isinstance(x, ZSet):
                        n += len(x)
            try:
                v = fn(*ins)
            except TypeMismatchError as e:
                raise TypeMismatchError(f"operator {name!r}: {e}") from e
            if isinstance(v, ZSet):
                n += len(v)
            metrics.tuples += n
            return v

        return step

    def _state_step(self, node):
        """The one state rule: read the node's state, latch the next one."""
        kind, nid, src = node.kind, node.id, node.inputs[0]
        if kind == "window" or kind == "window_fold":
            return self._window_step(node)
        if kind == "delay" and node.depth > self.level:
            # Lifted past the clock: a shift along the vector axis, stateless;
            # a feedback stub reads the lifted-feedback passes' value.
            if node.meta.get("feedback"):
                return lambda *_: self._stub_vals[nid]
            return lambda vals, *_: as_vector(vals[src]).shift()
        if kind == "trace":
            return self._trace_step(node, own=node.depth == self.level)
        state = self._state

        if kind == "delay":
            # Emits last tick's input; the new input latches after the full
            # tick so feedback consumers see the strict previous value.
            def step(vals, inputs, ctx, latches):
                latches.append((nid, src, None))
                return state.get(nid, ZERO)

        else:  # stream_sum

            def step(vals, inputs, ctx, latches):
                out = gv_add(state.get(nid, ZERO), vals[src])
                latches.append((nid, None, out))
                return out

        return step

    def _window_step(self, node):
        fn, nid, store, metrics = node.fn, node.id, self._state, self.metrics
        src, clock = node.inputs

        def step(vals, inputs, ctx, latches):
            x = vals[src]
            try:
                out, state = fn(store.get(nid), x, vals[clock])
            except TypeMismatchError as e:
                raise TypeMismatchError(f"operator {node.label!r}: {e}") from e
            latches.append((nid, None, state))
            metrics.tuples += len(as_zset(x)) + len(out)
            return out

        return step

    def _trace_step(self, node, own):
        """Group the tick's change once: the view hands the groups to the
        probes, and _eval_tick latches them into the trace in place."""
        nid, src, metrics, state = node.id, node.inputs[0], self.metrics, self._state
        index_key = node.meta.get("index_key")
        make = SummaryTrace if node.meta.get("summary") else Trace

        def step(vals, inputs, ctx, latches):
            if own:
                store, u = state, 0
            elif ctx is None:
                raise CircuitError(f"node {node} needs a parent clock")
            else:
                store, u = ctx.outer, ctx.u
            tr = store.get(nid)
            if tr is None:
                tr = store[nid] = make(index_key)
            change = as_zset(vals[src])
            metrics.tuples += len(change)
            return TraceView(tr, u, tr.group(change), len(change))

        return step

    def _run_block(self, node, entry_val):
        inner = node.meta["inner"]
        inner.validate()
        sum_id = inner.sum_id
        sum_node = inner.nodes[sum_id]
        cap = sum_node.meta.get("cap")
        if cap is None:
            cap = DEFAULT_ITERATION_CAP
        term = sum_node.meta.get("termination") or gv_is_zero
        bstate = self._state.setdefault(node.id, {"outer": {}})
        inner._state.clear()
        outer = bstate["outer"]
        ctx = _InnerCtx(entry_val, outer)
        # Visit every inner tick at which a trace holds a slot, and with
        # parent-clock traces test convergence on the accumulated change of
        # each iteration, not on this tick's correction (module docstring).
        floor = 1 + max((max(tr.slots, default=0) for tr in outer.values()), default=0)
        progress_trace = None
        if len(inner._own_traces) < len(inner._traces):
            progress_trace = outer.setdefault(sum_id, Trace())
        change_src = sum_node.inputs[0]
        probe = node.meta.get("probe")
        if probe is not None:
            probes = bstate["probe_values"] = []
        u = 0
        try:
            while True:
                ctx.u = u
                vals = inner._eval_tick(None, ctx)
                if probe is not None:
                    probes.append(vals[probe])
                progress = vals[change_src]
                if progress_trace is not None:
                    progress_trace[u] = as_zset(progress)._entries
                    progress = ZSet._wrap(progress_trace.slots.get(u, {}))
                u += 1
                if u >= floor and term(progress):
                    break
                if u >= cap:
                    raise NonTerminationError(f"nested domain exceeded {cap} iterations")
        except BaseException:
            ctx.rollback()
            raise
        self.metrics.iterations += u
        self._blocks_run.append(ctx)
        return vals[sum_id]

    def probe_nested(self, block, inner_node):
        """Record the per-iteration values of an inner node on each tick.

        Debug/test hook; read the trace back with `nested_probe_values`.
        """
        self.nodes[block].meta["probe"] = inner_node

    def nested_probe_values(self, block):
        return self._state.get(block, {}).get("probe_values", [])

    # -- transforms --------------------------------------------------------------

    def clone(self):
        """Structural copy without runtime state."""
        out = Circuit(level=self.level, inner=self.is_inner)
        out.copy_sinks(self, out.copy_nodes(self.nodes, {}))
        return out

    def copy_nodes(self, nodes, mapping, rule=None):
        """Copy nodes of another circuit, given in topological order, into
        this one; returns mapping (old node id -> new node id).

        Nodes already in mapping are not copied: callers seed it with what
        replaces them.  rule, if given, is asked first for each node: it
        returns the id of a node of this circuit that replaces the node
        (mapping already holds its inputs' replacements), or None to copy it.
        Sources are declared again, feedback stubs are connected once every
        node is copied, and the delta0 entry and stream-sum exit keep their
        roles.  A copy never moves a nested body out of its circuit: the body
        is cloned onto this circuit's metrics.  A transform that owns its
        circuit and only drops or reorders nodes rebuilds it in place instead
        (rewrite._rebuild_topological), and the bodies move with their nodes.
        """
        pending = []
        for n in nodes:
            if n.id in mapping:
                continue
            nid = None if rule is None else rule(n)
            mapping[n.id] = self._copy_node(n, mapping, pending) if nid is None else nid
        for stub, old_from in pending:
            self.connect_feedback(mapping[old_from], stub)
        self._validated = False
        return mapping

    def _copy_node(self, n, mapping, pending):
        if n.kind == "source":
            return self.add_source(n.name, sort=n.meta["sort"], event=n.meta["event"])
        if n.meta.get("feedback"):
            nid = self.add_feedback(depth=n.depth, delayed=n.meta.get("delayed", True))
            if n.inputs:
                pending.append((nid, n.inputs[0]))
            return nid
        meta = dict(n.meta)
        if n.kind == "nested":
            meta["inner"] = meta["inner"].clone()
            meta["inner"]._count_on(self.metrics)
        # mapping's values are nodes of this circuit already; _add's range
        # check on them made compile_circuits ~40% slower on a closure spec
        nid = len(self.nodes)
        inputs = [mapping[i] for i in n.inputs]
        self.nodes.append(Node(nid, n.kind, inputs, n.depth, n.fn, n.label, n.klass, meta=meta))
        if n.kind == "delta0":
            self.entry_id = nid
        elif n.kind == "stream_sum":
            self.sum_id = nid
        return nid

    def copy_sinks(self, c, mapping):
        """Declare every sink of circuit c on the node mapping gives for it."""
        for name, nid in c.sinks.items():
            self.add_sink(mapping[nid], name)


def _plus(ins):
    if all(map(gv_is_zero, ins)):
        return ZERO
    acc = ZERO
    for x in ins:
        acc = gv_add(acc, x)
    return acc


def _source_step(name, zset_sort):
    def step(vals, inputs, ctx, latches):
        v = inputs[name]
        if zset_sort and not (isinstance(v, ZSet) or v is ZERO):
            raise ValidationError(f"source {name!r} expects a Z-set, got {type(v).__name__}")
        return v

    return step


def _delta0_step(vals, inputs, ctx, latches):
    if ctx is None:
        raise CircuitError("delta0 evaluated outside a nested domain")
    return ctx.entry if ctx.u == 0 else ZERO


class LiftedVectorFn:
    """Apply a per-tick function independently at every inner-time slot.

    Assumes the wrapped function is zero-preserving: all-zero input slots map
    to the zero slot without calling it.
    """

    __slots__ = ("fn", "arity")

    def __init__(self, fn):
        self.fn = fn
        self.arity = getattr(fn, "arity", None)

    def __call__(self, *vecs):
        vs = [as_vector(v) for v in vecs]
        n = max((len(v) for v in vs), default=0)
        out = []
        for i in range(n):
            slot = [v[i] for v in vs]
            if all(x is ZERO for x in slot):
                out.append(ZERO)
            else:
                out.append(self.fn(*slot))
        return StreamVector(tuple(out))


def lift_circuit(c):
    """Lift a stream circuit one level: per-tick values become StreamVectors.

    Every node's nesting depth goes up by one, so delays become column delays
    and I and D, built from them, act along the inner axis; the result applies
    the original circuit independently to each row of a nested stream.
    """
    c.validate()
    out = c.clone()
    for n in out.nodes:
        if n.kind == "nested":
            raise CircuitError("cannot vector-lift a circuit containing nested domains")
        n.depth += 1
        if n.kind == "lifted":
            n.fn = LiftedVectorFn(n.fn)
    return out
