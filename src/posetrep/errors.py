"""Domain error types shared across the package.

Every error the library raises deliberately derives from PosetRepError so
callers (and the CLI) can distinguish domain failures from bugs.
"""


class PosetRepError(Exception):
    pass


# poset construction / lookup

class CycleDetected(PosetRepError):
    pass


class UnknownLabel(PosetRepError):
    pass


class DuplicateLabel(PosetRepError):
    pass


class InvalidLabel(PosetRepError):
    """A label the file formats cannot carry: empty, or holding whitespace,
    '#', '<' or ':'.  Raised on read and before a file is written."""


class NotAnAntichain(PosetRepError):
    pass


class NotAnIdeal(PosetRepError):
    pass


# exact linear algebra

class DimensionMismatch(PosetRepError):
    pass


class FieldMismatch(PosetRepError):
    pass


class InvalidField(PosetRepError, ValueError):
    """Not a prime below 2^16; a ValueError too, as for any bad argument."""


class InvalidScalar(PosetRepError, ValueError):
    """A float, or a rational whose denominator vanishes in F_p."""


# S-spaces and functors

class MonotonicityViolation(PosetRepError):
    def __init__(self, low, high, msg=None):
        self.low = low
        self.high = high
        super().__init__(msg or f"subspace at {low!r} not contained in subspace at {high!r}")


class PosetMismatch(PosetRepError):
    pass


class InvalidMorphism(PosetRepError):
    pass


class NoUniqueTop(PosetRepError):
    pass


# differentiation

class NotApplicable(PosetRepError):
    def __init__(self, width):
        self.width = width
        super().__init__(f"width of the complement is {width}, need <= 2")


# oracle

class GuardrailExceeded(PosetRepError):
    pass


class BudgetExceeded(PosetRepError):
    pass


class Mismatch(PosetRepError):
    pass


class ParseError(PosetRepError):
    pass


class WriteError(PosetRepError):
    """An output file or directory that cannot be written."""
