"""Exception hierarchy shared by the whole package.

Bad data (an undeclared id, a malformed trace or snapshot line, a
window index out of range) raises a NextStepError, so callers can catch
one type for "your data is wrong"; the CLI maps it to exit 2.  Bad
constructor or config arguments (an out-of-range PredictorConfig value,
a window capacity below 2, a malformed id, an empty step universe)
raise a plain ValueError, which the CLI maps to exit 1.  Real bugs
still surface as ordinary exceptions.
"""

from __future__ import annotations


class NextStepError(Exception):
    """Base class for all errors raised by this package."""


class UnknownIdError(NextStepError, ValueError):
    """A step, classification, or context id is outside the declared universe."""


class WindowRangeError(NextStepError, IndexError):
    """An observation index is outside the populated range of the window."""


class _LineError(NextStepError, ValueError):
    """A parse error carrying the 1-based line number it occurred on."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TraceFormatError(_LineError):
    """A trace file line could not be parsed."""


class SnapshotFormatError(_LineError):
    """A database snapshot is malformed or internally inconsistent."""
