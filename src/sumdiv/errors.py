"""Exception hierarchy shared across the package.

Every refusal the library makes is a DomainError, so the CLI maps them all
to exit 1.  Each is exactly one of three kinds, the same whichever function
reaches it: text that cannot be read, a value outside a function's domain,
or a size past a bound.
"""


class DomainError(Exception):
    """A refusal: the base of ParseError, PreconditionError and
    CapacityError."""


class ParseError(DomainError):
    """Text the library cannot read; the message points at the offending
    spot."""


class PreconditionError(DomainError):
    """A value outside a function's domain: an empty operand, operands of
    different bases or heights, a negative or out-of-range argument."""


class CapacityError(DomainError):
    """A size past a bound.  This covers every bound constant:
    ELEMENT_BOUND and NODE_BUDGET (sets; the latter bounds every divisor
    list, lunar and headstrong lists too), MUL_DIGIT_BUDGET (lunar),
    COUNT_BOUND and CELL_BOUND (compositions; the last bounds every table:
    f_table, the H triangle, difference_table, reconstruct_diagonal's
    terms), and each verify target's bounds on its size parameters."""
