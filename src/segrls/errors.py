"""Exception types raised across the package."""

import numbers


class SegrlsError(Exception):
    """Base class for all package errors."""


class RangeError(SegrlsError):
    """A parameter, a combination of parameters or a sample index is out of range.

    The paper's conditions are among them: the drop lambda^(m+1) < beta^p,
    nonzero column scales, p + 1 < w, and a harmonic grid below Nyquist.
    """


def _check_count(value, minimum: int, message: str) -> None:
    """Raise RangeError(message) unless ``value`` is an integer >= ``minimum``.

    Python and numpy integers pass; a float never does, not even a whole one such as 40.0.
    """
    if not (isinstance(value, numbers.Integral) and value >= minimum):
        raise RangeError(message)


class SingularUpdateError(SegrlsError):
    """A low-rank update's capacitance matrix, or a chained rank-one
    denominator, is singular or ill-conditioned."""


class NotPositiveDefiniteError(SegrlsError):
    """Cholesky pivot was non-positive; matrix is not SPD."""


class ParseError(SegrlsError):
    """Malformed input line."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class CalendarError(SegrlsError):
    """Invalid calendar date, or records not strictly increasing by date."""


class GapError(SegrlsError):
    """Missing day in a series under the 'fail' gap policy."""
