"""The package top level: exactly the library API the README documents."""

from __future__ import annotations

import re
from pathlib import Path

import nextstep

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library use")
    return text[start:text.index("\n## ", start)]


def test_every_exported_name_resolves():
    for name in nextstep.__all__:
        assert hasattr(nextstep, name), name


def test_exports_are_listed_once():
    assert len(set(nextstep.__all__)) == len(nextstep.__all__)


def test_every_export_is_named_in_the_readme_library_section():
    section = library_use_section()
    missing = [
        name for name in nextstep.__all__
        if not re.search(rf"\b{re.escape(name)}\b", section)
    ]
    assert missing == []
