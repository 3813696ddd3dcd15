"""Whole-file text writes that never leave a half-written target."""

from __future__ import annotations

import os
import stat


def write_text_atomically(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\\n`` line ends.

    The text goes to a fresh temporary file beside ``path`` that then
    replaces it, so a failed write leaves any previous file intact and
    no temporary file behind.  Render the text before calling: a render
    that raises then never touches the target.  A symlink keeps its
    place and its target is replaced; a target that is not a regular
    file, such as a FIFO or ``/dev/stdout``, cannot be replaced by one
    and is written in place.  A replaced file keeps its permission bits;
    a new one gets the default mode.
    """
    try:
        mode: int | None = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        return
    path = os.path.realpath(path)
    temporary = f"{path}.{os.urandom(4).hex()}.tmp"
    handle = open(temporary, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            handle.write(text)
        if mode is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
