"""Seeded workload generator: a spec document and an NDJSON change trace.

Every trace starts with tx 0, the base snapshot, followed by
transactions that insert and delete live rows in equal measure, so state size
stays steady however many transactions a run consumes.  The same seed gives
byte-identical files.
"""

import json
import random

WORKLOADS = ("join-point", "join-batch", "closure-churn", "agg-groups")

# Generated transactions per second of the longest replay.  The seed program
# reaches about 950, 23, 170 and 20 tx/s on an uncontended host; these leave
# room for a program 4x (join-batch, whose 1100-row transactions make its
# trace large) to 250x faster (ROADMAP items 2 and 3), and a replay that runs
# out of trace fails instead of ending early.
TX_PER_SECOND = {"join-point": 10_000, "join-batch": 100, "closure-churn": 2_000, "agg-groups": 5_000}

REGIONS = [f"r{i}" for i in range(10)]
MIN_AMOUNT = 10  # the view keeps orders with amount >= MIN_AMOUNT (about 90% of them)


def _join_spec():
    orders = {"op": "filter", "predicate": [">=", ["col", 2], ["const", MIN_AMOUNT]], "input": {"op": "rel", "name": "orders"}}
    joined = {"op": "join", "left": orders, "right": {"op": "rel", "name": "customers"}, "left_key": [1], "right_key": [0]}
    # (cust, region, amount): distinct merges a customer's equal-amount orders.
    view = {"op": "distinct", "input": {"op": "project", "columns": [1, 4, 2], "input": joined}}
    return {
        "relations": [
            {"name": "orders", "columns": ["id", "cust", "amount"], "types": ["int", "int", "int"]},
            {"name": "customers", "columns": ["id", "region"], "types": ["int", "str"]},
        ],
        "views": [{"name": "customer_amounts", "query": view}],
    }


def _closure_spec():
    return {
        "relations": [{"name": "E", "columns": ["h", "t"], "types": ["int", "int"]}],
        "recursive": {
            "relations": [{"name": "R", "columns": ["s", "t"]}],
            "rules": [
                {"head": {"rel": "R", "terms": ["x", "y"]}, "body": [{"rel": "E", "terms": ["x", "y"]}]},
                {
                    "head": {"rel": "R", "terms": ["x", "y"]},
                    "body": [{"rel": "E", "terms": ["x", "z"]}, {"rel": "R", "terms": ["z", "y"]}],
                },
            ],
        },
    }


def _agg_spec():
    t = {"op": "rel", "name": "t"}
    return {
        "relations": [{"name": "t", "columns": ["g", "v"], "types": ["int", "int"]}],
        "views": [
            {"name": "group_sum", "query": {"op": "aggregate", "agg": "sum", "column": 1, "group_by": [0], "input": t}},
            {"name": "group_max", "query": {"op": "aggregate", "agg": "max", "column": 1, "group_by": [0], "input": t}},
        ],
    }


def _below(rng, n):
    """A uniform integer in [0, n); faster than randrange for large traces."""
    return int(rng.random() * n)


class _Live:
    """Live rows with O(1) insert, delete and uniform random choice."""

    def __init__(self):
        self.rows = []
        self.pos = {}

    def add(self, row):
        self.pos[row] = len(self.rows)
        self.rows.append(row)

    def remove(self, row):
        i = self.pos.pop(row)
        last = self.rows.pop()
        if i < len(self.rows):
            self.rows[i] = last
            self.pos[last] = i

    def pick(self, rng):
        return self.rows[_below(rng, len(self.rows))]

    def __contains__(self, row):
        return row in self.pos

    def __len__(self):
        return len(self.rows)


class _Stats:
    """Input properties of the generated trace (tx 0 excluded from per-tx figures)."""

    def __init__(self):
        self.base_rows = 0
        self.tx = 0
        self.rows = 0
        self.deletes = 0
        self.other_side = 0

    def count(self, changes, other_rel=None):
        self.tx += 1
        self.rows += len(changes)
        self.deletes += sum(1 for c in changes if c[2] < 0)
        if other_rel is not None:
            self.other_side += sum(1 for c in changes if c[0] == other_rel)

    def as_dict(self):
        n = max(self.rows, 1)
        return {
            "base_rows": self.base_rows,
            "tx": self.tx,
            "rows_per_tx": self.rows / max(self.tx, 1),
            "delete_share": self.deletes / n,
            "other_side_update_share": self.other_side / n,
        }


def _join_base(rng, n_orders, n_customers, out, stats):
    """Emit tx 0 with the customers and orders; return (live orders, customer -> region)."""
    orders = _Live()
    region = {}
    base = []
    for c in range(n_customers):
        region[c] = rng.choice(REGIONS)
        base.append(["customers", [c, region[c]], 1])
    for i in range(n_orders):
        row = (i, _below(rng, n_customers), _below(rng, 100))
        orders.add(row)
        base.append(["orders", list(row), 1])
    stats.base_rows = len(base)
    out.append({"tx": 0, "changes": base})
    return orders, region


def _join_trace(rng, n_orders, n_customers, n_tx, out, stats):
    # One-row transactions: about one in ten moves a customer to another
    # region (a delete and an insert of its row); the rest alternately insert
    # a new order and delete a live one, so the order count stays steady.
    orders, region = _join_base(rng, n_orders, n_customers, out, stats)
    next_id = n_orders
    insert = True
    for tx in range(1, n_tx + 1):
        if rng.random() < 0.1:
            c = _below(rng, n_customers)
            new = rng.choice([r for r in REGIONS if r != region[c]])
            changes = [["customers", [c, region[c]], -1], ["customers", [c, new], 1]]
            region[c] = new
        elif insert:
            row = (next_id, _below(rng, n_customers), _below(rng, 100))
            next_id += 1
            orders.add(row)
            changes = [["orders", list(row), 1]]
            insert = False
        else:
            row = orders.pick(rng)
            orders.remove(row)
            changes = [["orders", list(row), -1]]
            insert = True
        stats.count(changes, "customers")
        out.append({"tx": tx, "changes": changes})


def _join_batch_trace(rng, n_orders, n_customers, n_tx, order_changes, customer_updates, out, stats):
    # Each transaction moves customer_updates distinct customers to another
    # region and makes order_changes order changes, alternately inserting a
    # new order and deleting a live one that it did not insert itself.
    orders, region = _join_base(rng, n_orders, n_customers, out, stats)
    next_id = n_orders
    for tx in range(1, n_tx + 1):
        changes = []
        for c in rng.sample(range(n_customers), customer_updates):
            new = rng.choice([r for r in REGIONS if r != region[c]])
            changes += [["customers", [c, region[c]], -1], ["customers", [c, new], 1]]
            region[c] = new
        inserted = []
        for k in range(order_changes):
            if k % 2 == 0:
                row = (next_id, _below(rng, n_customers), _below(rng, 100))
                next_id += 1
                inserted.append(row)
                changes.append(["orders", list(row), 1])
            else:
                row = orders.pick(rng)
                orders.remove(row)
                changes.append(["orders", list(row), -1])
        for row in inserted:
            orders.add(row)
        stats.count(changes, "customers")
        out.append({"tx": tx, "changes": changes})


def _closure_size(edges):
    """Number of (x, y) pairs with a path from x to y."""
    succ = {}
    for h, t in edges:
        succ.setdefault(h, []).append(t)
    total = 0
    for s in succ:
        seen, stack = set(), [s]
        while stack:
            for t in succ.get(stack.pop(), ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        total += len(seen)
    return total


def _closure_trace(rng, n_clusters, layers, width, cluster_edges, cluster_closure, n_tx, out, stats):
    # Independent layered clusters: edges run from one layer of `width` nodes
    # to the next, so the longest path, which sets the fixpoint's iteration
    # count, is at most layers - 1.  Each transaction's work grows with the
    # whole closure, so every cluster is drawn, and kept, with a closure of
    # exactly cluster_closure pairs: the closure has the same size for every
    # seed and all through the trace.
    clusters = [_Live() for _ in range(n_clusters)]

    def fresh(c):
        while True:
            node = c * layers * width + _below(rng, layers - 1) * width
            e = (node + _below(rng, width), node + width + _below(rng, width))
            if e not in clusters[c]:
                return e

    for c in range(n_clusters):
        while len(clusters[c]) < cluster_edges or _closure_size(clusters[c].rows) != cluster_closure:
            if len(clusters[c]) == cluster_edges:
                clusters[c] = _Live()
            clusters[c].add(fresh(c))
    base = [["E", list(e), 1] for edges in clusters for e in edges.rows]
    stats.base_rows = len(base)
    out.append({"tx": 0, "changes": base})
    for tx in range(1, n_tx + 1):
        if tx % 2:  # insert an edge into a random cluster ...
            c = _below(rng, n_clusters)
            inserted = fresh(c)
            clusters[c].add(inserted)
            changes = [["E", list(inserted), 1]]
        else:  # ... and delete one from it that brings its closure back
            edges = clusters[c]
            e = inserted
            for _ in range(3):
                f = edges.pick(rng)
                if f != inserted and _closure_size(r for r in edges.rows if r != f) == cluster_closure:
                    e = f
                    break
            edges.remove(e)
            changes = [["E", list(e), -1]]
        stats.count(changes)
        out.append({"tx": tx, "changes": changes})


def _agg_trace(rng, n_groups, n_rows, n_tx, out, stats):
    rows = _Live()

    def fresh():
        while True:
            r = (_below(rng, n_groups), _below(rng, 1_000_000))
            if r not in rows:
                return r

    while len(rows) < n_rows:
        rows.add(fresh())
    stats.base_rows = n_rows
    out.append({"tx": 0, "changes": [["t", list(r), 1] for r in rows.rows]})
    for tx in range(1, n_tx + 1):
        if tx % 2:
            r = fresh()
            rows.add(r)
            changes = [["t", list(r), 1]]
        else:
            r = rows.pick(rng)
            rows.remove(r)
            changes = [["t", list(r), -1]]
        stats.count(changes)
        out.append({"tx": tx, "changes": changes})


class _Lines:
    """Writes each transaction appended to it as one NDJSON line."""

    def __init__(self, f):
        self.append = lambda t: f.write(json.dumps(t, separators=(",", ":")) + "\n")


def generate(workload, seed, seconds, txs):
    """Append the trace's transaction objects to txs; return (spec document, input properties)."""
    rng = random.Random(f"{workload}:{seed}")
    n_tx = int(TX_PER_SECOND[workload] * seconds)
    stats = _Stats()
    if workload == "join-point":
        spec = _join_spec()
        _join_trace(rng, 20_000, 2_000, n_tx, txs, stats)
    elif workload == "join-batch":
        spec = _join_spec()
        _join_batch_trace(rng, 10_000, 1_000, n_tx, 900, 100, txs, stats)
    elif workload == "closure-churn":
        spec = _closure_spec()
        _closure_trace(rng, 50, 10, 2, 16, 41, n_tx, txs, stats)
    elif workload == "agg-groups":
        spec = _agg_spec()
        _agg_trace(rng, 1000, 10_000, n_tx, txs, stats)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec, stats.as_dict()


def write(workload, seed, seconds, spec_path, trace_path):
    with open(trace_path, "w") as f:
        spec, props = generate(workload, seed, seconds, _Lines(f))
    with open(spec_path, "w") as f:
        json.dump(spec, f, sort_keys=True, indent=1)
    return props
