"""Whole-file writes: regular files are replaced, other targets kept."""

from __future__ import annotations

import os
import stat
import threading

import pytest

from nextstep.atomicwrite import write_text_atomically


def test_symlink_stays_and_its_target_is_replaced(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text_atomically(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_is_written_through_not_replaced(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True
    )
    reader.start()
    write_text_atomically(fifo, "through\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == ["through\n"]
    assert fifo.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX permission bits")
def test_permission_bits_of_the_target_are_kept(tmp_path):
    target = tmp_path / "private.txt"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    for path, text in ((target, "direct\n"), (link, "linked\n")):
        write_text_atomically(path, text)
        assert target.read_text() == text
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert link.is_symlink()
