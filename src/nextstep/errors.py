"""Exception hierarchy shared by the whole package, and the file reader
that turns a byte that is not UTF-8 into a line error.

Bad data (an undeclared id, a malformed trace or snapshot line, a byte
in one that is not UTF-8, a window index out of range) raises a
NextStepError, so callers can catch one type for "your data is wrong";
the CLI maps it to exit 2.  Bad constructor or config arguments (an
out-of-range PredictorConfig value, a window capacity below 2, a
malformed id, an empty step universe) raise a plain ValueError, which
the CLI maps to exit 1.  Real bugs still surface as ordinary exceptions.
"""

from __future__ import annotations

from typing import Callable, TextIO, TypeVar

T = TypeVar("T")


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


def read_utf8(path: str, parse: Callable[[TextIO], T], error: type[_LineError]) -> T:
    """``parse`` of the UTF-8 text file at ``path``.

    A byte that is not UTF-8 raises ``error`` naming its line.  The text
    reader decodes in chunks, so its UnicodeDecodeError counts from a
    chunk; decoding the whole file again finds the byte's line, with
    lines ending as the reader ends them: at ``\\n``, ``\\r\\n`` or ``\\r``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle)
    except UnicodeDecodeError:
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[: exc.start].decode("utf-8")
            line_no = before.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
            message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
            raise error(line_no, message) from None
        raise  # the file changed and now decodes: no line to name
