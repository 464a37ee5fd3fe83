"""Exception hierarchy. Exit codes chosen by the CLI live next to the classes."""


class DeltaflowError(Exception):
    exit_code = 1
    node = None  # the id of the node whose step raised it, in the outermost circuit


class ValidationError(DeltaflowError):
    """Bad spec, trace, schema, or value at ingestion."""

    exit_code = 2


class TypeMismatchError(ValidationError):
    """Values of clashing types met in an expression or a MIN/MAX ordering."""


class DivergenceError(DeltaflowError):
    """Compare mode found a tick where incremental and reference outputs differ."""

    exit_code = 3

    def __init__(self, msg, tick=None, view=None, expected=None, actual=None):
        super().__init__(msg)
        self.tick = tick
        self.view = view
        self.expected = expected
        self.actual = actual


class NonTerminationError(DeltaflowError):
    """A nested fixpoint hit its iteration cap."""

    exit_code = 4


class WeightOverflowError(DeltaflowError, OverflowError):
    """A multiplicity left the signed 64-bit range."""

    exit_code = 5


class CircuitError(DeltaflowError):
    """Illegal circuit construction or wiring."""

    exit_code = 2
