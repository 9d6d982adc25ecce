"""Exception types shared across the package."""


class GenInvError(Exception):
    """Base class for domain errors: a violated operation precondition."""


class DimensionMismatch(GenInvError):
    """Operand shapes are incompatible with the requested operation."""


class SingularMatrix(GenInvError):
    """A square matrix required to be regular has rank below its size."""


class IndexOutOfRange(GenInvError):
    """A block split index lies outside the valid range."""


class InvalidFactorization(GenInvError):
    """Supplied factors do not reduce the matrix to the partial identity."""


class NotIdempotent(GenInvError):
    """The core block of a {2}-inverse must satisfy X0*X0 = X0."""


class IndexTooLarge(GenInvError):
    """The group inverse exists only for matrices of index at most 1."""


class ParseError(Exception):
    """A matrix file could not be parsed; carries the offending location."""

    def __init__(self, message: str, *, filename: str = "<input>", line: int = 0,
                 column: int = 0):
        self.message = message
        self.filename = filename
        self.line = line
        self.column = column
        super().__init__(message)

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}: {self.message}"
