"""Exception types shared across the package, the default cap,
and the integer check that command-line tokens go through."""

# unless a caller passes cap=, the largest closed-form group order, closure
# and ring table (q^2 entries) that a constructor builds
DEFAULT_CAP = 20000


class WorkbenchError(Exception):
    """Base class for domain errors; the CLI maps these to exit code 1."""


class CapExceededError(WorkbenchError):
    """An enumeration grew past its configured element cap."""


class InvalidActionError(WorkbenchError):
    """A purported group action fails the homomorphism or bijection checks."""


class UnsupportedRingError(WorkbenchError):
    """The symbolic calculator has no closed form for this ring/module pair."""


class FormulaError(WorkbenchError):
    """Malformed formula text; carries a 1-based source position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


def int_token(text: str, token: str) -> int:
    """`text`, a part of the spec or key `token`, read as an integer."""
    try:
        return int(text)
    except ValueError:
        raise WorkbenchError(
            f"{text!r} in {token!r} is not an integer") from None
