"""deltaflow: incremental view maintenance as Z-set stream circuits.

Relational and recursive queries compile to dataflow circuits over weighted
relations; a mechanical rewrite turns any such circuit into one that computes
on changes instead of snapshots.
"""

from .circuit import Circuit, Metrics, lift_circuit
from .datalog import (
    Atom,
    Rule,
    RuleProgram,
    build_incremental_recursive,
    build_naive,
    build_seminaive,
    build_while,
    stratify,
)
from .errors import (
    CircuitError,
    DeltaflowError,
    DivergenceError,
    NonTerminationError,
    TypeMismatchError,
    ValidationError,
    WeightOverflowError,
)
from .expr import BinOp, Col, Const, KeyFunc, MapFunc, Not, parse_expr
from .groupval import ZERO, StreamVector, gv_add, gv_eq, gv_is_zero, gv_neg, gv_sub
from .relational import Schema, WindowSpec
from .rewrite import (
    compile_query,
    consolidate_distinct,
    deincrementalize_naive,
    differential_check,
    incrementalize_naive,
    incrementalize_query,
    optimize,
)
from .runner import RunReport
from .specfile import CircuitSpec, compile_spec, load_spec
from .trace import Transaction, load_trace
from .zset import (
    IndexedZSet,
    ZSet,
    aggregate_avg,
    aggregate_count,
    aggregate_general,
    aggregate_max,
    aggregate_min,
    aggregate_sum,
    count_aggregate,
    distinct,
    flatmap,
    group_by,
    indexed_aggregate,
    is_positive,
    is_set,
    makeset,
    to_set,
    to_zset,
    zset_size,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
