"""The README's command line walkthrough, replayed through the CLI.

Every ``$`` line of the walkthrough's ``sh`` blocks is run in a fresh
directory, and the lines shown under it must be exactly what it prints:
stderr first, then stdout, as the README lists them.  A line cut with
``...`` counts as a prefix, and a bare ``...`` line stands for any
further lines.
"""

from __future__ import annotations

import argparse
import io
import re
import shlex
from dataclasses import fields
from pathlib import Path

from nextstep import PredictorConfig
from nextstep.cli import _add_engine_arguments, _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def walkthrough() -> tuple[str, list[tuple[str, list[str]]]]:
    """The walkthrough section and its (command, shown lines) pairs."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line walkthrough\n", 1)[1].split("\n## ", 1)[0]
    commands: list[tuple[str, list[str]]] = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                commands.append((line[2:], []))
            else:
                commands[-1][1].append(line)
    return section, commands


def run(command: str, capsys, monkeypatch) -> list[str]:
    """One walkthrough command's output lines."""
    stdin = ""
    if " | " in command:
        feed, command = command.split(" | ")
        printf, text = shlex.split(feed)
        assert printf == "printf"
        stdin = text.encode().decode("unicode_escape")
    argv = shlex.split(command)
    if argv[0] in ("head", "tail"):
        count = int(argv[1].lstrip("-"))
        lines = Path(argv[2]).read_text(encoding="utf-8").splitlines()
        return lines[:count] if argv[0] == "head" else lines[-count:]
    assert argv[0] == "nextstep", command
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv[1:]) == 0, command
    captured = capsys.readouterr()
    return captured.err.splitlines() + captured.out.splitlines()


def assert_shown(command: str, produced: list[str], shown: list[str]) -> None:
    for number, line in enumerate(shown):
        if line == "...":
            return
        assert number < len(produced), f"{command}: no line {number + 1}"
        if line.endswith(" ..."):
            assert produced[number].startswith(line[:-3]), (command, produced[number])
        else:
            assert produced[number] == line, command
    assert len(produced) == len(shown), f"{command}: {produced[len(shown):]}"


def test_walkthrough_prints_what_the_readme_shows(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    _, commands = walkthrough()
    assert len(commands) == 7
    for command, shown in commands:
        assert_shown(command, run(command, capsys, monkeypatch), shown)


def test_walkthrough_accuracy_claim_matches_the_csvs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    section, commands = walkthrough()
    for command, _ in commands:
        if command.startswith(("nextstep gen", "nextstep compare")):
            run(command, capsys, monkeypatch)
    claim = re.search(
        r"ends at (\d\.\d{3}) cumulative accuracy versus (\d\.\d{3}) for the\s+baseline",
        section,
    )
    assert claim is not None
    for mode, claimed in zip(("context", "baseline"), claim.groups()):
        last = Path(f"mixrun_{mode}.csv").read_text(encoding="utf-8").splitlines()[-1]
        assert f"{float(last.split(',')[5]):.3f}" == claimed, mode


def test_configuration_table_lists_every_config_field():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    parser = argparse.ArgumentParser()
    _add_engine_arguments(parser, with_engine_flag=True)
    dest_of = {flag: action.dest for action in parser._actions
               for flag in action.option_strings}
    config_fields = fields(PredictorConfig)
    assert [row[0] for row in rows] == [field.name for field in config_fields]
    for (name, flag, default, _), field in zip(rows, config_fields):
        assert dest_of.get(flag) == name, flag
        assert default == str(field.default), name


def test_every_cli_option_is_documented():
    text = README.read_text(encoding="utf-8")
    subparsers = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    missing = [
        f"{name} {flag}"
        for name, parser in subparsers.choices.items()
        for action in parser._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
        and not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text)
    ]
    assert missing == []
