"""Recursive rule programs compiled to fixpoint circuits.

A stratified program becomes a chain of evaluation units (the SCCs of its
dependency graph in topological order).  A recursive unit turns into a nested
clock domain: the unit's relations are folded into one tagged union so the
loop carries a single group value, the externals enter frozen through the
delta0 boundary, and the loop runs until the per-iteration change is empty;
the exit, I along the loop clock, sums those changes to the fixpoint.
"""

from dataclasses import dataclass, field

from .circuit import STATE_KINDS, Circuit
from .errors import CircuitError, ValidationError
from .expr import BinOp, Col, Const, KeyFunc, MapFunc
from .relational import (
    FilterFn,
    MapFn,
    build_antijoin,
    build_distinct,
    build_equijoin,
    build_filter,
    build_map,
)
from .rewrite import incrementalize_query, seminaive

DATALOG_ITERATION_CAP = 100_000

WILDCARD = ("any",)


def normalize_term(t):
    if isinstance(t, tuple) and t and t[0] in ("var", "const", "any"):
        return t
    if t == "_":
        return WILDCARD
    if isinstance(t, str):
        return ("var", t)
    if isinstance(t, dict) and set(t) == {"const"} and isinstance(t["const"], (int, float, str)):
        return ("const", t["const"])
    if isinstance(t, (int, float)):
        return ("const", t)
    raise ValidationError(f"bad rule term {t!r}")


@dataclass(frozen=True)
class Atom:
    rel: str
    terms: tuple
    negated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(normalize_term(t) for t in self.terms))

    def variables(self):
        return [t[1] for t in self.terms if t[0] == "var"]


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass
class RuleProgram:
    inputs: dict  # relation name -> arity
    outputs: dict  # derived relation name -> arity
    rules: list = field(default_factory=list)

    def validate(self):
        arities = {**self.inputs, **self.outputs}
        if set(self.inputs) & set(self.outputs):
            raise ValidationError("a relation cannot be both input and derived")
        for rule in self.rules:
            if rule.head.rel not in self.outputs:
                raise ValidationError(f"rule head {rule.head.rel!r} is not a derived relation")
            if rule.head.negated:
                raise ValidationError("rule heads cannot be negated")
            if not rule.body:
                raise ValidationError(f"rule for {rule.head.rel!r} has an empty body")
            for atom in (rule.head, *rule.body):
                if atom.rel not in arities:
                    raise ValidationError(f"unknown relation {atom.rel!r} in rule")
                if len(atom.terms) != arities[atom.rel]:
                    raise ValidationError(
                        f"{atom.rel!r} used with {len(atom.terms)} terms, declared arity {arities[atom.rel]}"
                    )
            bound = set()
            for atom in rule.body:
                if not atom.negated:
                    bound.update(atom.variables())
            for v in rule.head.variables():
                if v not in bound:
                    raise ValidationError(f"head variable {v!r} not bound positively in the body")
            for atom in rule.body:
                if atom.negated:
                    for v in atom.variables():
                        if v not in bound:
                            raise ValidationError(f"negated atom variable {v!r} not bound positively")
        for rel in self.outputs:
            if not any(r.head.rel == rel for r in self.rules):
                raise ValidationError(f"derived relation {rel!r} has no rules")


def stratify(program):
    """Evaluation units (SCCs of the derived-relation dependency graph) in
    topological order; rejects negation inside a cycle."""
    program.validate()
    derived = sorted(program.outputs)
    deps = {r: set() for r in derived}  # head -> body relations (derived only)
    neg_edges = set()
    for rule in program.rules:
        for atom in rule.body:
            if atom.rel in program.outputs:
                deps[rule.head.rel].add(atom.rel)
                if atom.negated:
                    neg_edges.add((atom.rel, rule.head.rel))

    index = {}
    low = {}
    on_stack = {}
    stack = []
    units = []
    counter = [0]

    def strongconnect(v):
        work = [(v, iter(sorted(deps[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack[v] = True
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(deps[w]))))
                    advanced = True
                    break
                if on_stack.get(w):
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                units.append(sorted(comp))

    for r in derived:
        if r not in index:
            strongconnect(r)

    # With edges pointing head -> body relation, Tarjan pops dependencies
    # before their dependents, so the SCC list is already in evaluation order.
    unit_of = {r: i for i, unit in enumerate(units) for r in unit}
    for b, h in neg_edges:
        if unit_of[b] == unit_of[h]:
            raise ValidationError(f"program is not stratifiable: {h!r} depends negatively on {b!r} through a cycle")
    # Verify the order is consistent (deps only point backwards).
    for i, unit in enumerate(units):
        for r in unit:
            for d in deps[r]:
                if unit_of[d] > i:
                    raise CircuitError("internal stratification ordering error")
    return units


# -- rule body compilation ----------------------------------------------------------


def _atom_constraints(atom):
    """Per-atom filter predicate (constants, repeated variables) and var->column map."""
    conds = []
    varcols = {}
    for i, t in enumerate(atom.terms):
        if t[0] == "const":
            conds.append(BinOp("==", Col(i), Const(t[1])))
        elif t[0] == "var":
            if t[1] in varcols:
                conds.append(BinOp("==", Col(i), Col(varcols[t[1]])))
            else:
                varcols[t[1]] = i
    pred = None
    for cond in conds:
        pred = cond if pred is None else BinOp("and", pred, cond)
    return pred, varcols


def compile_rule_body(c, rule, rel_source, arities):
    """Left-deep join plan over the positive atoms, then antijoins, then the
    head projection.  Returns the output node id."""
    positives = [a for a in rule.body if not a.negated]
    negatives = [a for a in rule.body if a.negated]

    frag = None
    fvars = {}
    farity = 0
    for atom in positives:
        pred, avars = _atom_constraints(atom)
        anode = rel_source(atom.rel)
        if pred is not None:
            anode = build_filter(c, anode, pred)
        if frag is None:
            frag, fvars, farity = anode, dict(avars), arities[atom.rel]
            continue
        shared = [v for v in avars if v in fvars]
        kl = KeyFunc([fvars[v] for v in shared])
        kr = KeyFunc([avars[v] for v in shared])
        frag = build_equijoin(c, frag, anode, kl, kr)
        for v, i in avars.items():
            if v not in fvars:
                fvars[v] = farity + i
        farity += arities[atom.rel]

    for atom in negatives:
        pred, avars = _atom_constraints(atom)
        anode = rel_source(atom.rel)
        if pred is not None:
            anode = build_filter(c, anode, pred)
        shared = [v for v in avars if v in fvars]
        kl = KeyFunc([fvars[v] for v in shared])
        kr = KeyFunc([avars[v] for v in shared])
        frag = build_antijoin(c, frag, anode, kl, kr)

    exprs = []
    for t in rule.head.terms:
        if t[0] == "var":
            exprs.append(Col(fvars[t[1]]))
        elif t[0] == "const":
            exprs.append(Const(t[1]))
        else:
            raise ValidationError("wildcards are not allowed in rule heads")
    return build_map(c, frag, MapFunc(exprs))


# -- tagged-union packing for recursion ---------------------------------------------


def _tag_fn(tag, arity):
    return MapFn(MapFunc([Const(tag)] + [Col(i) for i in range(arity)]))


def _untag(c, node, tag, arity):
    f = c.add_lifted(FilterFn(BinOp("==", Col(0), Const(tag))), [node], klass="linear", label="filter")
    return c.add_lifted(MapFn(MapFunc([Col(i + 1) for i in range(arity)])), [f], klass="linear", label="map")


def _build_unit(c, program, unit, rel_nodes, arities, cap):
    """Build one unit into c.  A recursive one is a nested domain whose body
    is naive, as the rules read, entered through an I marked "i" and left
    through a D marked "d" into the exit."""
    unit_rules = [r for r in program.rules if r.head.rel in unit]
    recursive = any(a.rel in unit for r in unit_rules for a in r.body) or len(unit) > 1

    if not recursive:
        rel = unit[0]
        bodies = [compile_rule_body(c, r, lambda n: rel_nodes[n], arities) for r in unit_rules if r.head.rel == rel]
        rel_nodes[rel] = build_distinct(c, c.add_plus(bodies))
        return

    externals = sorted({a.rel for r in unit_rules for a in r.body if a.rel not in unit})
    # The fixpoint is only guaranteed to converge for set-valued inputs, so
    # force set semantics at the domain boundary (a no-op when they already
    # are sets).
    packed = c.add_plus(
        [
            c.add_lifted(_tag_fn(r, arities[r]), [build_distinct(c, rel_nodes[r])], klass="linear", label="map")
            for r in externals
        ]
    )
    block, inner = c.add_nested(packed)
    entry = inner.add_delta0()
    ientry = inner.add_integrate(entry)
    inner.nodes[ientry].meta["bracket"] = "i"
    fb = inner.add_feedback()

    source_cache = {}

    def rel_source(name):
        if name not in source_cache:
            base = fb if name in unit else ientry
            source_cache[name] = _untag(inner, base, name, arities[name])
        return source_cache[name]

    packed_vals = []
    for rel in unit:
        bodies = [compile_rule_body(inner, r, rel_source, arities) for r in unit_rules if r.head.rel == rel]
        val = build_distinct(inner, inner.add_plus(bodies))
        packed_vals.append(inner.add_lifted(_tag_fn(rel, arities[rel]), [val], klass="linear", label="map"))
    o = inner.add_plus(packed_vals)
    inner.connect_feedback(o, fb)
    d = inner.add_differentiate(o)
    inner.nodes[d].meta["bracket"] = "d"
    inner.add_stream_sum(d, max_iterations=cap)

    for rel in unit:
        rel_nodes[rel] = _untag(c, block, rel, arities[rel])


def compile_program_into(c, program, rel_nodes, cap=None):
    """Build every evaluation unit of the program into circuit c.

    rel_nodes maps already-available relation names to nodes; derived
    relations are added to it.  Returns the updated map.
    """
    cap = DATALOG_ITERATION_CAP if cap is None else cap
    strata = stratify(program)
    arities = {**program.inputs, **program.outputs}
    for unit in strata:
        _build_unit(c, program, unit, rel_nodes, arities, cap)
    return rel_nodes


def build_naive(program, cap=None):
    """Fixpoint circuit running each recursive unit by naive iteration:
    re-derive everything from the accumulated result until nothing changes."""
    c = Circuit()
    rel_nodes = {name: c.add_source(name) for name in sorted(program.inputs)}
    compile_program_into(c, program, rel_nodes, cap)
    for name in sorted(program.outputs):
        c.add_sink(rel_nodes[name], name)
    return c


def build_seminaive(program, cap=None):
    """Same fixpoint, each loop body incrementalized along the loop clock
    (rewrite.seminaive), so every iteration only touches newly derived
    facts."""
    return seminaive(build_naive(program, cap))


def build_incremental_recursive(program, cap=None):
    """Streaming form: consumes per-transaction input deltas and emits output
    deltas, caching the per-iteration changes of the fixpoint across ticks."""
    return incrementalize_query(build_naive(program, cap))


def build_while(q, cap=None):
    """Iterate a zero-preserving scalar query x := Q(x) from the input until
    it stops changing; the circuit emits the limit.

    The body is bracketed as _build_unit's is: the input enters through D
    then an I marked "i" (I(D(x)) = x), and the loop value leaves through
    a D marked "d" into the exit, I along the loop clock, which sums the
    changes back to the limit.  So the loop reads changes, and the rewrite
    rebuilds it along the parent clock (rewrite.optimize) or its own
    (rewrite.seminaive) as it does a rule program's."""
    if len(q.sources) != 1 or len(q.sinks) != 1:
        raise CircuitError("while-loop body needs exactly one source and one sink")
    for n in q.nodes:
        if n.kind in STATE_KINDS or n.kind in ("nested", "delta0"):
            raise CircuitError("while-loop body must be a scalar (stateless) query")
    (sname, s_id), = q.sources.items()
    (vname, v_id), = q.sinks.items()

    c = Circuit()
    src = c.add_source(sname)
    block, inner = c.add_nested(src)
    entry = inner.add_delta0()
    fb = inner.add_feedback()
    ientry = inner.add_integrate(inner.add_differentiate(entry))
    inner.nodes[ientry].meta["bracket"] = "i"
    start = inner.add_plus([ientry, fb])

    qout = inner.copy_nodes(q.nodes, {s_id: start})[v_id]
    inner.connect_feedback(qout, fb)
    d = inner.add_differentiate(qout)
    inner.nodes[d].meta["bracket"] = "d"
    inner.add_stream_sum(d, max_iterations=cap)
    c.add_sink(block, vname)
    return c
