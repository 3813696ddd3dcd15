"""The package top level: exactly the library API the README documents."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import nextstep
from nextstep import Engine, PredictorConfig
from nextstep.lookupdb import LookupDB
from nextstep.window import ObservationWindow

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


@pytest.mark.parametrize("call", [
    lambda: PredictorConfig(alpha=1.5),
    lambda: ObservationWindow(1, (1, 2)),
    lambda: LookupDB().add((1,), -1, 0.5),
    lambda: Engine(PredictorConfig(), steps=()),
], ids=["config", "window-capacity", "db-add-bad-id", "engine-no-steps"])
def test_bad_arguments_raise_value_error_not_next_step_error(call):
    """Bad data raises NextStepError; bad arguments raise a plain ValueError."""
    with pytest.raises(ValueError) as raised:
        call()
    assert not isinstance(raised.value, nextstep.NextStepError)
