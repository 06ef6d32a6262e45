"""Exception types shared by every module in the package."""


class BosonOrderError(Exception):
    """Base class for all errors raised by this package."""


class NegativeExcess(BosonOrderError):
    """Coefficient extraction or a coherent-state value was asked for on a
    word with more annihilators than creators; the canonical (a+)^d prefix
    does not exist there."""


class NonCanonicalPrefix(BosonOrderError):
    """A route defined only on nonnegative prefix excesses (the closed form,
    a Bell-polynomial step) met a negative one."""


class OutOfRange(BosonOrderError):
    """Coefficient index outside the window where the closed form is defined."""


class TooLarge(BosonOrderError):
    """Predicted enumeration size exceeds the configured cap."""


class PrecisionUnreachable(BosonOrderError):
    """Series summation hit its term cap before the tail bound was satisfied."""


class NotUnary(BosonOrderError):
    """Tree bijection applied to a colony whose bugs do not all have one leg."""


class NonzeroConstantTerm(BosonOrderError):
    """Exponential of a formal series whose constant term is not zero."""


class LengthMismatch(BosonOrderError):
    """The two exponent vectors of a type have different lengths."""


class ParseError(BosonOrderError):
    """Malformed input text; ``offset`` is the byte position of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset
