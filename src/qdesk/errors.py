"""Exception hierarchy.

Everything raised on purpose derives from QdeskError so callers can draw a
single line between domain errors and genuine bugs. The CLI maps these onto
exit codes (config 2, solver 3, invariant 4).
"""


def printable(text: str) -> str:
    """text with each character that str.isprintable rejects (a newline, a tab, a NUL, ...)
    escaped as repr spells it, so a path in an error message keeps the message on one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


class QdeskError(Exception):
    """Base class for all errors raised by this package."""


class LayoutError(QdeskError):
    """Unknown, duplicated, or conflicting subsystem identifiers."""


class DimensionMismatchError(QdeskError):
    """Operands tagged with incompatible layouts or dimensions."""


class InvariantError(QdeskError):
    """A structural invariant (norm, hermiticity, unitarity, ...) failed."""


class SchemeError(QdeskError):
    """A measurement or decision scheme is inconsistent with its layout."""


class ProtocolError(QdeskError):
    """A protocol precondition was violated (e.g. apparatus not ready)."""


class FormatError(QdeskError):
    """Malformed serialized object or scenario file."""


class ConfigError(QdeskError):
    """Bad run configuration; carries file/line context where available."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = printable(path) + (": " if line is None else f":{line}: ")
        super().__init__(where + message)
        self.path = path
        self.line = line


class SolverError(QdeskError):
    """A solver failed to converge; carries the best residual reached."""

    def __init__(self, message: str, *, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.residual = residual
