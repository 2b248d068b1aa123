"""Exception types shared across the package."""


class TwdglmError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TwdglmError, ValueError):
    """A value lies outside the support / mean space / link domain.

    Carries the index of the first offending row when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConfigError(TwdglmError, ValueError):
    """Invalid model or run configuration."""


class SchemaError(TwdglmError, ValueError):
    """Malformed input file (missing columns, bad cells, unknown labels)."""


class SeriesInfeasibleError(TwdglmError, RuntimeError):
    """The Bessel-series window is too large to sum; use the saddlepoint path."""


class NonFiniteError(TwdglmError, RuntimeError):
    """A likelihood quantity became non-finite.

    Carries the index of the first offending row when known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


class SingularSystemError(TwdglmError, RuntimeError):
    """A linear system could not be factorized.

    ``smallest_pivot`` holds the smallest pivot or eigenvalue seen, when
    known; the message prints it.
    """

    def __init__(self, message: str, smallest_pivot: float | None = None):
        if smallest_pivot is not None:
            message = f"{message} (smallest pivot {smallest_pivot:.3e})"
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


class ScalingError(TwdglmError, RuntimeError):
    """No majorization constant found after the doubling budget."""

    def __init__(self, message: str, reason: str = "no-decrease"):
        super().__init__(message)
        self.reason = reason


class CalibrationError(TwdglmError, RuntimeError):
    """Synthetic-data intercept calibration could not reach its target."""


def utf8_error_at(path) -> str:
    """Where the first byte of the file at ``path`` that is not UTF-8
    lies, as ``line N: byte 0xXX is not UTF-8``; for a reader that met
    a UnicodeDecodeError somewhere inside a text stream."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return f"line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8"
    return "not UTF-8 text"


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; a byte that is not UTF-8 raises
    SchemaError naming the file and the line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: {utf8_error_at(path)}") from None
