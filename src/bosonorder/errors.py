"""Exception types, and the one way their messages show a count.  A
``BosonOrderError`` is a refusal that the CLI reports; a bad argument that
the CLI never passes raises ``ValueError``."""


def _count_text(n: int) -> str:
    # str(n), or past the interpreter's int-to-str limit n's leading six
    # digits in scientific notation, rounded down, so a refusal always
    # formats; shift is floor(log10 n) - 5 or one less
    try:
        return str(n)
    except ValueError:
        pass
    shift = int((n.bit_length() - 1) * 0.3010299956639812) - 5
    lead = str(n // 10 ** shift)
    return f"{lead[0]}.{lead[1:6]}e+{shift + len(lead) - 1}"


class BosonOrderError(Exception):
    """Base class of the refusals the CLI reports."""


class NegativeExcess(BosonOrderError):
    """Coefficient extraction or a coherent-state value was asked for on a
    word with more annihilators than creators; the canonical (a+)^d prefix
    does not exist there."""


class NonCanonicalPrefix(BosonOrderError):
    """A route defined only on nonnegative prefix excesses (the single
    closed-form coefficient) met a negative one; the CLI never reports it."""


class TooLarge(BosonOrderError):
    """Predicted enumeration size exceeds the configured cap."""


class PrecisionUnreachable(BosonOrderError):
    """Series summation hit its term cap before the tail bound was satisfied."""


class LengthMismatch(BosonOrderError):
    """The two exponent vectors of a type have different lengths."""


class ParseError(BosonOrderError):
    """Malformed input text; ``offset`` is the byte position of the bad token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset
