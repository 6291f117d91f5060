"""Shared exception types."""

from __future__ import annotations


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class ArityMismatchError(ValueError):
    """A monomial's exponent vector does not match its ring's arity."""


class ZeroPolynomialError(ValueError):
    """An operation needing a nonzero polynomial got zero."""


class TowerDepthError(ValueError):
    """A rational function field was stacked on another one."""


class EmptyRingError(ValueError):
    """The presented ring is the zero ring."""


class CertificateError(ValueError):
    """A primality or chain certificate is malformed or fails to verify."""


class BudgetExhaustedError(RuntimeError):
    """A Groebner computation hit its pair-reduction cap.

    This is always raised instead of returning a truncated (wrong) basis.
    """

    def __init__(self, used: int, limit: int):
        super().__init__(f"budget exhausted: {used} pair reductions (limit {limit})")
        self.used = used
        self.limit = limit


class InconsistentBoundsError(RuntimeError):
    """Two applicable dimension rules produced contradictory values.

    Reaching this is a bug detector, not a user error: it means a rule or
    the kernel computed something wrong.
    """


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
