"""In-memory span recorder for the traced replay.

Spans are recorded around the public calls the replay makes into each module
(the module name is the layer) and each lifted operator of the compiled
circuit.  Z-set additions, a thousand or more per transaction on recursive
views, are counted instead: a span for each would cost more than the
additions themselves.  The program itself is not edited: the
wrappers are installed from here, in the traced process only, and they keep
the attributes the engine reads from operator functions (`arity`,
`probe_args`, `index_keys`, ...), so the circuit's own `tuples` count does
not change.
"""

import json
import time

from deltaflow.zset import IndexedZSet, ZSet

_now = time.perf_counter_ns


class Span:
    """One call: start and end in perf_counter ns, the id (index) of the
    enclosing span or -1, and the trace line index of its transaction (None
    before tx 0).  rows_in/rows_out are the rows the call consumed and made."""

    __slots__ = ("name", "start", "end", "parent", "tx", "rows_in", "rows_out")

    def __init__(self, name, parent, tx):
        self.name = name
        self.start = 0
        self.end = 0
        self.parent = parent
        self.tx = tx
        self.rows_in = 0
        self.rows_out = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []  # ids of the spans enclosing the current call
        self.tx = None
        # Z-set additions from tx 1 on: [ns in outermost additions, calls,
        # rows copied, 0], and the outermost ones made outside any operator
        # (state maintenance), whose counting cost lands in circuit self time.
        self.adds = [0, 0, 0, 0]
        self.state_adds = 0
        self.add_cost_ns = 0.0
        self._adding = False

    def _begin(self, name):
        span = Span(name, self._open[-1] if self._open else -1, self.tx)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = _now()
        return span

    def _end(self, span):
        span.end = _now()
        self._open.pop()

    def wrap(self, name, fn):
        """A function that records a span named `name` around each call of fn."""

        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)

        return traced

    def wrap_tx(self, fn):
        """Like wrap, for the per-transaction root span; fn(line, index)."""

        def traced(line, index):
            self.tx = index
            span = self._begin("tx")
            try:
                return fn(line, index)
            finally:
                self._end(span)

        return traced

    def install_zset(self):
        """Count every Z-set and indexed Z-set addition, and time the outermost
        ones (an indexed addition adds its groups' Z-sets inside it).

        Rows copied are the larger operand's size when both operands are
        non-empty (an empty side is returned as is).  add_cost_ns is what
        the counting adds to one outermost addition, measured first.
        """
        self.add_cost_ns = _counting_cost_ns(ZSet.__add__)
        for cls in (ZSet, IndexedZSet):
            cls.__add__ = self._counted_add(cls.__add__)

    def _counted_add(self, add):
        def counted(a, b):
            if not self.tx:
                return add(a, b)
            tot = self.adds
            tot[1] += 1
            if type(b) is type(a) and len(a) and len(b):
                tot[2] += max(len(a), len(b))
            if self._adding:
                return add(a, b)
            if not self._open or not self.spans[self._open[-1]].name.startswith("relational."):
                self.state_adds += 1
            self._adding = True
            start = _now()
            try:
                return add(a, b)
            finally:
                tot[0] += _now() - start
                self._adding = False

        return counted

    def wrap_circuit(self, circuit, prefix="relational."):
        """Wrap the fn of every lifted node, nested domains included."""
        for node in circuit.nodes:
            if node.kind == "lifted":
                node.fn = _TracedFn(self, prefix + (node.label or "lifted"), node.fn)
            elif node.kind == "nested":
                self.wrap_circuit(node.meta["inner"], prefix + "nested.")

    def summary(self):
        """Span totals by name, split into set-up (up to and including tx 0)
        and steady state (tx 1 on), with the Z-set additions as "zset.add".

        Set-up maps name -> ns.  Steady state maps name -> [ns, calls,
        rows_in, rows_out].
        """
        setup, steady = {}, {"zset.add": self.adds}
        for s in self.spans:
            ns = s.end - s.start
            if not s.tx:
                setup[s.name] = setup.get(s.name, 0) + ns
                continue
            tot = steady.setdefault(s.name, [0, 0, 0, 0])
            tot[0] += ns
            tot[1] += 1
            tot[2] += s.rows_in
            tot[3] += s.rows_out
        return {"setup": setup, "steady": steady, "state_adds": self.state_adds, "add_cost_ns": self.add_cost_ns}

    def write(self, path):
        """One JSON array per span: [name, start, end, parent, tx, rows_in, rows_out]."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.tx, s.rows_in, s.rows_out]) + "\n")


def _counting_cost_ns(add, calls=1000, rounds=20):
    """Least over rounds of the mean time counting adds to one outermost
    addition of two one-row Z-sets made outside any operator."""
    tracer = Tracer()
    tracer.tx = 1
    counted = tracer._counted_add(add)
    a, b = ZSet({(0,): 1}), ZSet({(1,): 1})
    best = None
    for _ in range(rounds):
        t0 = _now()
        for _ in range(calls):
            add(a, b)
        t1 = _now()
        for _ in range(calls):
            counted(a, b)
        cost = ((_now() - t1) - (t1 - t0)) / calls
        best = cost if best is None else min(best, cost)
    return max(best, 0.0)


class _TracedFn:
    """Operator function wrapper; every other attribute reads through to fn."""

    def __init__(self, tracer, name, fn):
        self._tracer = tracer
        self._name = name
        self._fn = fn

    def __getattr__(self, attr):
        return getattr(self._fn, attr)

    def __call__(self, *args):
        span = self._tracer._begin(self._name)
        try:
            out = self._fn(*args)
        finally:
            self._tracer._end(span)
        # Same rule as the engine's `tuples` count: probed arguments are
        # looked up, not scanned.
        probed = getattr(self._fn, "probe_args", ())
        span.rows_in = sum(len(x) for i, x in enumerate(args) if isinstance(x, ZSet) and i not in probed)
        span.rows_out = len(out) if isinstance(out, ZSet) else 0
        return out
