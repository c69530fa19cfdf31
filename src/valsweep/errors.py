"""Exceptions shared by every layer.

Every exception class lives here, and each layer binds its own back by
import (`valsweep.toric.ToricError` is `valsweep.errors.ToricError`), so
the CLI reports every input error without importing a layer.
"""


class CertificationError(AssertionError):
    """A certificate the computation carries failed its own check.

    It is an explicit raise, so python -O cannot switch it off; the CLI
    reports it with its own exit code.
    """


class Falsified(Exception):
    """A certified sweep record holds a regular ring below: an outcome (exit 2).
    `records` holds every record of the sweep, as `certify_conflict` judged it."""

    def __init__(self, message: str, records: tuple):
        super().__init__(message)
        self.records = records


class QFieldError(ValueError):
    """Invalid input to quadratic-field arithmetic (valsweep.qfield)."""


class ValuationError(ValueError):
    """Invalid values or support for a monomial valuation (valsweep.valuation)."""


class ToricError(ValueError):
    """An integer matrix or cone the lattice layer cannot take (valsweep.toric)."""


class QuotientError(ValueError):
    """An order or weights that define no faithful cyclic action (valsweep.quotient)."""


class ConfigError(ValueError):
    """An instance or CLI input violates the named `constraint`."""

    def __init__(self, constraint: str, message: str):
        super().__init__(message)
        self.constraint = constraint
