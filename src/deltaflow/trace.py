"""Change traces and run outputs: newline-delimited JSON, one transaction per
line, canonical ordering so outputs are byte-stable."""

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError, WeightOverflowError
from .zset import WEIGHT_MAX, WEIGHT_MIN, ZSet, canonical_keys, validate_element


@dataclass
class Transaction:
    tx: int
    changes: dict  # relation name -> ZSet


def _coerce_value(v, decl_type, where):
    try:
        validate_element(v)
    except ValidationError as e:
        raise ValidationError(f"{where}: {e}") from None
    if decl_type == "int" and not isinstance(v, int):
        raise ValidationError(f"{where}: expected int, got {v!r}")
    if decl_type == "float" and not isinstance(v, (int, float)):
        raise ValidationError(f"{where}: expected float, got {v!r}")
    if decl_type == "str" and not isinstance(v, str):
        raise ValidationError(f"{where}: expected str, got {v!r}")
    return v


@functools.lru_cache(maxsize=None)
def _row_checker(types):
    """A check of a JSON row against declared int/str column types.

    It returns the row as a tuple when every value has exactly its column's
    type, else None: the caller then runs the full per-value check, which
    accepts the row or raises the usual message. Schemas with any other
    column type have no checker (None) and always take the full check.
    """
    if not all(t in ("int", "str") for t in types):
        return None
    signature = [int if t == "int" else str for t in types]
    return lambda values: tuple(values) if list(map(type, values)) == signature else None


def parse_transaction(obj, relations, where):
    if not isinstance(obj, dict) or "tx" not in obj or "changes" not in obj:
        raise ValidationError(f"{where}: each line needs 'tx' and 'changes'")
    tx = obj["tx"]
    if not isinstance(tx, int):
        raise ValidationError(f"{where}: 'tx' must be an integer")
    if type(obj["changes"]) is not list:
        raise ValidationError(f"{where}: 'changes' must be a list")
    changes = {}  # relation -> {row: weight}, consolidated as the line is read
    declared = {}  # relation -> (column types, row checker)
    overflow = None  # the first weight or partial sum outside 64 bits, raised after the line's checks
    for i, entry in enumerate(obj["changes"]):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValidationError(f"{where}: change {i} must be [relation, [values...], weight]")
        rel, values, weight = entry
        if type(values) is not list or type(rel) is not str:
            raise ValidationError(f"{where}: change {i} needs a relation name and a list of values")
        if relations is None:
            types = (None,) * len(values)
            check = None
        else:
            decl = declared.get(rel)
            if decl is None:
                if rel not in relations:
                    raise ValidationError(f"{where}: unknown relation {rel!r}")
                schema = relations[rel].schema
                types = schema.types or (None,) * schema.arity
                decl = declared[rel] = (types, _row_checker(types))
            types, check = decl
            if len(values) != len(types):
                raise ValidationError(f"{where}: relation {rel!r} expects {len(types)} values, got {len(values)}")
        if not isinstance(weight, int) or isinstance(weight, bool) or weight == 0:
            raise ValidationError(f"{where}: weight must be a nonzero integer")
        row = check(values) if check is not None else None
        if row is None:
            row = tuple(_coerce_value(v, t, f"{where}: relation {rel!r}") for v, t in zip(values, types))
        rows = changes.get(rel)
        if rows is None:
            rows = changes[rel] = {}
        w = rows.get(row)
        if w is not None:
            weight += w
            if not weight:
                del rows[row]
                continue
        rows[row] = weight
        if overflow is None and not WEIGHT_MIN <= weight <= WEIGHT_MAX:
            overflow = weight
    if overflow is not None:
        raise WeightOverflowError(f"{where}: weight {overflow} outside signed 64-bit range")
    return Transaction(tx=tx, changes={rel: ZSet._wrap(rows) for rel, rows in changes.items()})


def load_trace(path, relations=None):
    """Yield the trace's transactions one line at a time."""
    last_tx = None
    try:
        f = open(path)
    except OSError as e:
        raise ValidationError(f"cannot read trace {path}: {e}")
    with f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{path}:{lineno}: trace parse error at column {e.colno}: {e.msg}")
            t = parse_transaction(obj, relations, f"{path}:{lineno}")
            if last_tx is not None and t.tx <= last_tx:
                raise ValidationError(f"{path}:{lineno}: transaction ids must be strictly increasing")
            last_tx = t.tx
            yield t


def _json_value(v):
    """json.dumps fallback: exact rationals print as integers or floats."""
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else float(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_json_value, check_circular=False, allow_nan=False)
DUMP_BATCH_ROWS = 256  # rows encoded per call: the encoder's chunks stay bounded


def dump_transaction(tx, changes):
    """One canonical NDJSON line: relations sorted by name, tuples in
    canonical order, weights as signed decimal integers.  Rows are encoded
    DUMP_BATCH_ROWS at a time and the pieces joined.  A row holding an
    infinity or a NaN, which JSON cannot encode, raises ValidationError."""
    parts = []
    for rel in sorted(changes):
        d = changes[rel]._entries
        keys = canonical_keys(d)
        for i in range(0, len(keys), DUMP_BATCH_ROWS):
            batch = [[rel, row if type(row) is tuple else [row], d[row]] for row in keys[i : i + DUMP_BATCH_ROWS]]
            try:
                parts.append(_ENCODER.encode(batch)[1:-1])
            except ValueError:
                raise ValidationError(f"tx {tx}: view {rel!r} emits a non-finite number, not JSON") from None
    return f'{{"changes":[{",".join(parts)}],"tx":{_ENCODER.encode(tx)}}}\n'


def dump_metrics(record):
    """One metrics line: a transaction's counters or the run's totals."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
