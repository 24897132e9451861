"""Exception types raised across the package."""

import numbers


class SegrlsError(Exception):
    """Base class for all package errors."""


class RangeError(SegrlsError):
    """A scalar parameter lies outside its admissible range."""


def _check_count(value, minimum: int, message: str) -> None:
    """Raise RangeError(message) unless ``value`` is an integer >= ``minimum``.

    Python and numpy integers pass; a float never does, not even a whole one such as 40.0.
    """
    if not (isinstance(value, numbers.Integral) and value >= minimum):
        raise RangeError(message)


class DropConditionError(SegrlsError):
    """Segmented profile has no drop: lambda^(m+1) >= beta^p."""


class DegenerateColumnError(SegrlsError):
    """Profile parameters produce a zero-scale update column."""


class WindowError(SegrlsError):
    """Window length incompatible with the profile segment lengths."""


class WindowTooSmallError(SegrlsError):
    """Window shorter than the regressor dimension."""


class NyquistError(SegrlsError):
    """Requested harmonic grid reaches or exceeds the Nyquist frequency."""


class SingularUpdateError(SegrlsError):
    """A low-rank update's capacitance matrix is singular or ill-conditioned."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class IntermediateSingularityError(SegrlsError):
    """A chained rank-one update hit a near-zero denominator."""


class NotPositiveDefiniteError(SegrlsError):
    """Cholesky pivot was non-positive; matrix is not SPD."""


class IndexGapError(SegrlsError):
    """Sample index is not consecutive with the estimator state."""


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
