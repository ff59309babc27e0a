"""Exception hierarchy shared across the package."""


class SvdShapeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SvdShapeError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateConfigurationError(DomainError):
    """All landmarks coincide after centering; the shape is undefined."""


class SeriesTruncationError(SvdShapeError, ArithmeticError):
    """A zonal series did not converge within the allowed degree budget.

    Carries the partial sum and the magnitude of the last term so the caller
    can diagnose whether raising ``max_degree`` would help, and for a batch
    of series the index of the unconverged ``row`` they describe.
    """

    def __init__(self, message, partial_log=None, partial_sign=None, tail_estimate=None, row=None):
        super().__init__(message)
        self.partial_log = partial_log
        self.partial_sign = partial_sign
        self.tail_estimate = tail_estimate
        self.row = row


class NumericError(SvdShapeError, ArithmeticError):
    """A numerical procedure failed to converge, or a sum lost too many
    digits to cancellation; for a batch of sums, ``row`` is the index of
    the one it describes."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ParseError(SvdShapeError, ValueError):
    """A landmark or matrix file is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
