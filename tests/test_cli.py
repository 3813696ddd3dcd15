"""Command line behaviour: formats, exit codes, REPL loop."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nextstep.cli
from nextstep import write_snapshot
from nextstep.lookupdb import ContextSlot, LookupDB, slot_key
from nextstep.cli import main


def config_line(mode="context", alpha="0.8"):
    return (
        f"config: alpha={alpha} theta=0.5 window_capacity=10 engine_mode={mode}"
        " extension_direction=append-observation"
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def repl(capsys, monkeypatch, script, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    return run_cli(capsys, "repl", *argv)


# -- gen -------------------------------------------------------------------


def test_gen_writes_the_two_requirement_depth_first_trace(capsys):
    code, out, err = run_cli(
        capsys, "gen", "--scenario", "a", "--components", "1",
        "--requirements", "2",
    )
    assert code == 0
    steps = [int(line.split()[0]) for line in out.splitlines()]
    assert steps == [1, 2, 3, 4, 2, 3, 4]
    assert "config:" in err


def test_gen_requirements_default_to_three(capsys):
    code, out, _ = run_cli(capsys, "gen", "--scenario", "b", "--components", "1")
    assert code == 0
    assert len(out.splitlines()) == 10


def test_gen_same_seed_writes_identical_files(capsys, tmp_path):
    paths = (tmp_path / "one.txt", tmp_path / "two.txt")
    for path in paths:
        code, _, _ = run_cli(
            capsys, "gen", "--scenario", "mix", "--seed", "7",
            "--components", "4", "--output", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gen_requires_components(capsys):
    code, _, err = run_cli(capsys, "gen", "--scenario", "a")
    assert code == 1


def test_gen_rejects_unknown_scenario(capsys):
    code, _, _ = run_cli(capsys, "gen", "--scenario", "z", "--components", "1")
    assert code == 1


TOP_USAGE = "usage: nextstep [-h] {gen,run,compare,repl,db-inspect} ...\n"


@pytest.mark.parametrize("argv,err", [
    (["gen", "--scenario", "a", "--components", "1", "--frobnicate"],
     "usage: nextstep gen [-h] --scenario {a,b,mix} --components COMPONENTS\n"
     "                    [--requirements REQUIREMENTS] [--seed SEED]\n"
     "                    [--output OUTPUT]\n"
     "nextstep gen: error: unrecognized arguments: --frobnicate\n"),
    (["run", "trace.txt", "--frobnicate"],
     "usage: nextstep run [-h] [--output OUTPUT] [--save-db PATH] [--alpha ALPHA]\n"
     "                    [--theta THETA] [--window-capacity WINDOW_CAPACITY]\n"
     "                    [--engine {context,baseline}]\n"
     "                    [--extension-direction {append-observation,extend-into-past}]\n"
     "                    trace\n"
     "nextstep run: error: unrecognized arguments: --frobnicate\n"),
    (["repl", "--engine", "bogus"],
     "usage: nextstep repl [-h] [--load PATH] [--steps STEPS]\n"
     "                     [--classifications CLASSIFICATIONS] [--alpha ALPHA]\n"
     "                     [--theta THETA] [--window-capacity WINDOW_CAPACITY]\n"
     "                     [--engine {context,baseline}]\n"
     "                     [--extension-direction {append-observation,extend-into-past}]\n"
     "nextstep repl: error: argument --engine: invalid choice: 'bogus'"
     " (choose from 'context', 'baseline')\n"),
    (["compare", "trace.txt"],
     "usage: nextstep compare [-h] --output-prefix OUTPUT_PREFIX [--alpha ALPHA]\n"
     "                        [--theta THETA] [--window-capacity WINDOW_CAPACITY]\n"
     "                        [--extension-direction {append-observation,extend-into-past}]\n"
     "                        trace\n"
     "nextstep compare: error: the following arguments are required: --output-prefix\n"),
    ([], TOP_USAGE + "nextstep: error: the following arguments are required: command\n"),
    (["--frobnicate", "run", "trace.txt"],
     TOP_USAGE + "nextstep: error: unrecognized arguments: --frobnicate\n"),
    (["--frobnicate", "run", "trace.txt", "--bad"],
     TOP_USAGE + "nextstep: error: unrecognized arguments: --frobnicate --bad\n"),
], ids=["gen-unknown-flag", "run-unknown-flag", "repl-bad-engine", "compare-no-prefix",
        "no-command", "top-unknown-flag", "unknown-flags-on-both-sides"])
def test_unknown_flag_is_a_usage_error(capsys, monkeypatch, argv, err):
    # argparse wraps usage lines to the terminal's width; COLUMNS fixes it.
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (1, "", err)


def test_help_exits_zero(capsys):
    # `run --help` is pinned by test_run_help_shows_the_config_defaults.
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: nextstep [-h]")


def test_python_dash_m_runs_the_cli_and_carries_its_exit_code():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    help_run, no_trace = (
        subprocess.run([sys.executable, "-m", "nextstep", *argv], env=env,
                       capture_output=True, text=True, timeout=60)
        for argv in (["--help"], ["run"])
    )
    assert help_run.returncode == 0
    assert help_run.stdout.startswith("usage: nextstep")
    assert no_trace.returncode == 1


# -- run -------------------------------------------------------------------


def make_trace(capsys, tmp_path, *argv):
    path = tmp_path / "trace.txt"
    code, _, _ = run_cli(capsys, "gen", "--output", str(path), *argv)
    assert code == 0
    return path


def test_run_baseline_masters_the_depth_first_scenario(capsys, tmp_path):
    trace = make_trace(capsys, tmp_path, "--scenario", "a", "--components", "30")
    code, out, err = run_cli(capsys, "run", str(trace), "--engine", "baseline")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,step,predicted,correct,cum_correct,cum_acc,roll_acc"
    assert lines[-1].endswith("1.000000")
    assert "engine_mode=baseline" in err


def test_run_writes_csv_and_snapshot_files(capsys, tmp_path):
    trace = make_trace(capsys, tmp_path, "--scenario", "a", "--components", "3")
    csv_path = tmp_path / "metrics.csv"
    db_path = tmp_path / "rules.db"
    code, out, err = run_cli(
        capsys, "run", str(trace), "--output", str(csv_path),
        "--save-db", str(db_path),
    )
    assert code == 0
    assert out == ""
    assert csv_path.read_text().startswith("t,step,")
    assert db_path.read_text().startswith("LOOKUPDB v1 ")
    assert f"wrote {db_path}" in err


def test_run_failed_replace_keeps_the_previous_output(capsys, tmp_path, monkeypatch):
    trace = make_trace(capsys, tmp_path, "--scenario", "a", "--components", "3")
    csv_path = tmp_path / "metrics.csv"
    csv_path.write_text("previous\n")

    def broken_replace(source, target):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", broken_replace)
    code, _, err = run_cli(capsys, "run", str(trace), "--output", str(csv_path))
    assert code == 2
    assert "replace failed" in err
    assert csv_path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "trace.txt"]


def test_run_echoes_the_effective_config(capsys, tmp_path):
    trace = make_trace(capsys, tmp_path, "--scenario", "a", "--components", "2")
    _, _, err = run_cli(capsys, "run", str(trace))
    assert err.splitlines()[0] == config_line()
    _, _, err = run_cli(
        capsys, "run", str(trace), "--engine", "baseline", "--alpha", "0.7",
        "--theta", "0.25", "--window-capacity", "6",
        "--extension-direction", "extend-into-past",
    )
    assert err.splitlines()[0] == (
        "config: alpha=0.7 theta=0.25 window_capacity=6 engine_mode=baseline"
        " extension_direction=extend-into-past"
    )


@pytest.mark.parametrize("command,flag,value", [
    # Every matched rule grows after a correct suggestion, and only the
    # rules that predicted the step count contexts; no flag widens or
    # narrows either set.
    ("run", "--extension-scope", "all-matching"),
    ("run", "--context-update-scope", "all-matching"),
    # roll_acc always covers the last 25 scored steps.
    ("run", "--roll-window", "4"),
    ("compare", "--roll-window", "4"),
])
def test_deleted_flags_are_rejected(capsys, tmp_path, command, flag, value):
    trace = make_trace(capsys, tmp_path, "--scenario", "a", "--components", "1")
    extra = ["--output-prefix", str(tmp_path / "report")] if command == "compare" else []
    code, out, err = run_cli(capsys, command, str(trace), *extra, flag, value)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag} {value}" in err
    assert list(tmp_path.iterdir()) == [trace]


def test_run_help_shows_the_config_defaults(capsys):
    code, out, _ = run_cli(capsys, "run", "--help")
    assert code == 0
    help_text = " ".join(out.split())
    for default in ("default 0.8", "default 0.5", "default 10"):
        assert default in help_text


def test_run_rejects_out_of_range_alpha(capsys, tmp_path):
    trace = make_trace(capsys, tmp_path, "--scenario", "a", "--components", "1")
    code, _, err = run_cli(capsys, "run", str(trace), "--alpha", "1.5")
    assert code == 1
    assert "alpha" in err


def test_run_missing_trace_is_a_data_error(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "run", str(tmp_path / "nope.txt"))
    assert code == 2


def test_run_malformed_trace_reports_the_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\nbogus\n")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "line 2:" in err


def test_run_undecodable_trace_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 0=2\n2\n\xff3\n")
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: line 3: byte 0xff is not UTF-8 (invalid start byte)"


@pytest.mark.parametrize("text", ["", "# no records\n\n"], ids=["empty", "comments"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_trace_without_records_is_a_data_error(capsys, tmp_path, command, text):
    trace = tmp_path / "trace.txt"
    trace.write_text(text)
    if command == "run":
        outputs = ("--output", str(tmp_path / "m.csv"),
                   "--save-db", str(tmp_path / "rules.db"))
    else:
        outputs = ("--output-prefix", str(tmp_path / "report"))
    code, out, err = run_cli(capsys, command, str(trace), *outputs)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert [path.name for path in tmp_path.iterdir()] == ["trace.txt"]


def test_run_is_deterministic(capsys, tmp_path):
    trace = make_trace(capsys, tmp_path, "--scenario", "mix", "--components", "6",
                       "--seed", "4")
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run_cli(capsys, "run", str(trace), "--output", str(path))
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


# -- compare ------------------------------------------------------------------


def test_compare_writes_both_csvs_and_the_svg(capsys, tmp_path):
    trace = make_trace(capsys, tmp_path, "--scenario", "mix", "--components", "4")
    prefix = tmp_path / "report"
    code, _, err = run_cli(capsys, "compare", str(trace),
                           "--output-prefix", str(prefix))
    assert code == 0
    context_csv = (tmp_path / "report_context.csv").read_text()
    baseline_csv = (tmp_path / "report_baseline.csv").read_text()
    svg = (tmp_path / "report.svg").read_text()
    assert context_csv.startswith("t,step,")
    assert baseline_csv.startswith("t,step,")
    assert svg.lstrip().startswith("<svg")
    assert err.count("wrote ") == 3
    assert err.splitlines()[0] == config_line(mode="context+baseline")


def test_compare_failed_render_keeps_every_previous_output(capsys, tmp_path, monkeypatch):
    trace = make_trace(capsys, tmp_path, "--scenario", "mix", "--components", "4")
    prefix = tmp_path / "report"
    code, _, _ = run_cli(capsys, "compare", str(trace), "--output-prefix", str(prefix))
    assert code == 0
    # a longer trace, so every output would change if it were written
    trace = make_trace(capsys, tmp_path, "--scenario", "mix", "--components", "6")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(before) == [
        "report.svg", "report_baseline.csv", "report_context.csv", "trace.txt"
    ]

    def broken_render(*args):
        raise RuntimeError("render failed")

    monkeypatch.setattr(nextstep.cli, "render_comparison_svg", broken_render)
    with pytest.raises(RuntimeError):
        main(["compare", str(trace), "--output-prefix", str(prefix)])
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert after == before


# -- db-inspect ------------------------------------------------------------------


def test_db_inspect_empty_snapshot(capsys, tmp_path):
    path = tmp_path / "empty.db"
    write_snapshot(LookupDB(), 0.8, 0.5, path)
    code, out, _ = run_cli(capsys, "db-inspect", str(path))
    assert code == 0
    assert out == "0 entries\n"


def test_db_inspect_format_and_order(capsys, tmp_path):
    db = LookupDB()
    entry = db.add((1, 2, 3), 1, 0.9)
    entry.slots[slot_key(1, 0)] = ContextSlot(10, {1: 9, 0: 1})
    db.add((2,), 3, 0.35)
    db.add((2,), 4, 0.75)
    path = tmp_path / "rules.db"
    write_snapshot(db, 0.8, 0.5, path)
    code, out, _ = run_cli(capsys, "db-inspect", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 entries"
    # longest first, then strongest
    assert lines[1] == "cond=1,2,3 pred=1 p=0.900 | 1,0=1:0.90"
    assert lines[2] == "cond=2 pred=4 p=0.750"
    assert lines[3] == "cond=2 pred=3 p=0.350"


def test_db_inspect_bad_snapshot_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "bad.db"
    path.write_text("NOT A SNAPSHOT\n")
    code, _, err = run_cli(capsys, "db-inspect", str(path))
    assert code == 2
    assert "line 1:" in err


UNDECODABLE_SNAPSHOT = (
    b"LOOKUPDB v1 alpha=0.8 theta=0.5\nE 0 cond=1 pred=2 p=0.5\nS 0 0 total=1 5:1\xff\n"
)
UNDECODABLE_ERROR = "error: line 3: byte 0xff is not UTF-8 (invalid start byte)"


def test_db_inspect_undecodable_snapshot_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "bad.db"
    path.write_bytes(UNDECODABLE_SNAPSHOT)
    code, out, err = run_cli(capsys, "db-inspect", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [UNDECODABLE_ERROR]


def test_db_inspect_order_is_stable_under_reload(capsys, tmp_path):
    db = LookupDB()
    db.add((2,), 3, 0.4)
    db.add((3, 2), 4, 0.4)
    db.add((2,), 4, 0.8)
    first = tmp_path / "first.db"
    write_snapshot(db, 0.8, 0.5, first)
    code, out_first, _ = run_cli(capsys, "db-inspect", str(first))
    assert code == 0
    reloaded, alpha, theta = __import__("nextstep").read_snapshot(first)
    second = tmp_path / "second.db"
    write_snapshot(reloaded, alpha, theta, second)
    code, out_second, _ = run_cli(capsys, "db-inspect", str(second))
    assert code == 0
    assert out_first == out_second


# -- repl -------------------------------------------------------------------------


def test_repl_cold_start_has_no_suggestion(capsys, monkeypatch):
    code, out, _ = repl(capsys, monkeypatch, "2\n")
    assert code == 0
    assert out.splitlines() == ["no suggestion", "no suggestion"]


def test_repl_suggests_after_the_cycle_warms_up(capsys, monkeypatch):
    code, out, _ = repl(capsys, monkeypatch, "2\n3\n2\n3\n2\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["no suggestion"] * 3
    assert lines[3].startswith("suggestion: step=3 actual_p=0.200000 cond=2")
    assert lines[4].startswith("suggestion: step=2")
    assert lines[5].startswith("suggestion: step=3 actual_p=0.360000 cond=2")


def test_repl_bad_line_reports_and_keeps_state(capsys, monkeypatch):
    code, out, _ = repl(capsys, monkeypatch, "2\n3\nwat\n2\n3\n2\n")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("error:") for line in lines)
    assert lines[-1].startswith("suggestion: step=3")


def test_repl_rejects_a_line_the_trace_reader_rejects(capsys, monkeypatch):
    code, out, _ = repl(capsys, monkeypatch, "2\n 3 0=1\u3000\n")
    assert code == 0
    assert ("error: character '\\u3000' is not allowed: "
            "fields are separated by ASCII whitespace") in out.splitlines()
    # A record that names a classification twice; the repl keeps going.
    code, out, _ = repl(capsys, monkeypatch, "2\n3\n2 0=2,0=3\n2\n:quit\n")
    assert (code, out.splitlines()) == (0, ["no suggestion"] * 3 + [
        "error: classification 0 given twice",
        "no suggestion", "suggestion: step=3 actual_p=0.200000 cond=2"])


def test_repl_learns_contexts(capsys, monkeypatch):
    code, out, _ = repl(capsys, monkeypatch, "2 0=5\n3 0=5\n2 0=5\n")
    assert code == 0
    assert out.splitlines()[-1].startswith("suggestion: step=3")


def test_repl_save_load_round_trip(capsys, monkeypatch, tmp_path):
    path = tmp_path / "session.db"
    code, out_first, _ = repl(
        capsys, monkeypatch, f"2\n3\n2\n3\n2\n:save {path}\n:quit\n"
    )
    assert code == 0
    assert f"saved {path}" in out_first
    suggestion = [l for l in out_first.splitlines() if l.startswith("suggestion")][-1]
    assert suggestion == "suggestion: step=3 actual_p=0.360000 cond=2"

    # one step re-creates the matching window without touching the rules:
    # a single record cannot match anything one step back yet
    code, out_second, _ = repl(capsys, monkeypatch, "2\n", "--load", str(path))
    assert code == 0
    assert out_second.splitlines()[-1] == suggestion


def test_repl_load_meta_command_swaps_the_database(capsys, monkeypatch, tmp_path):
    path = tmp_path / "session.db"
    repl(capsys, monkeypatch, f"2\n3\n2\n3\n2\n:save {path}\n:quit\n")
    capsys.readouterr()
    code, out, _ = repl(
        capsys, monkeypatch, f":load {path}\n2\n3\n2\n"
    )
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith(f"loaded {path}") for line in lines)
    assert lines[-1].startswith("suggestion: step=3")


def test_repl_load_command_with_an_undecodable_snapshot_keeps_the_engine(
    capsys, monkeypatch, tmp_path
):
    path = tmp_path / "bad.db"
    path.write_bytes(UNDECODABLE_SNAPSHOT)
    code, out, _ = repl(capsys, monkeypatch, f"2\n3\n2\n3\n:load {path}\n2\n:quit\n")
    assert code == 0
    lines = out.splitlines()
    assert UNDECODABLE_ERROR in lines
    assert not any(line.startswith("loaded ") for line in lines)
    assert lines[-1].startswith("suggestion: step=3")


def test_repl_db_command_lists_rules(capsys, monkeypatch):
    code, out, _ = repl(capsys, monkeypatch, "2\n3\n:db\n:quit\n")
    assert code == 0
    assert "1 entries" in out
    assert "cond=2 pred=3 p=0.200" in out


@pytest.mark.parametrize("script,out", [
    ("2\n3\n  :db\n", ["no suggestion"] * 3 + ["1 entries", "cond=2 pred=3 p=0.200"]
     + ["no suggestion"]),
    ("2\n:quit \r\n3\n", ["no suggestion"] * 2),
    ("2\n3\n\t# note\n2\n", ["no suggestion"] * 4
     + ["suggestion: step=3 actual_p=0.200000 cond=2"]),
    (" 1 0=2\n 2 0=2\n:db\n", ["no suggestion"] * 3
     + ["1 entries", "cond=1 pred=2 p=0.200 | 0,0=2:1.00", "no suggestion"]),
], ids=["indented-command", "command-crlf", "indented-comment", "indented-record"])
def test_repl_reads_lines_with_surrounding_whitespace(capsys, monkeypatch, script, out):
    code, stdout, _ = repl(capsys, monkeypatch, script)
    assert (code, stdout.splitlines()) == (0, out)


@pytest.mark.parametrize("command,error", [
    (":frobnicate", "error: unknown command ':frobnicate'"),
    (":save", "error: :save needs a path"),
    (":load", "error: :load needs a path"),
], ids=["unknown", "save-without-path", "load-without-path"])
def test_repl_unknown_meta_command_is_reported(capsys, monkeypatch, command, error):
    # The engine is kept: the rule learned before the command still suggests.
    code, out, _ = repl(capsys, monkeypatch, f"2\n3\n{command}\n2\n:quit\n")
    assert (code, out.splitlines()) == (0, ["no suggestion"] * 3 + [error] + [
        "no suggestion", "suggestion: step=3 actual_p=0.200000 cond=2"])


def test_repl_missing_load_file_is_a_data_error(capsys, monkeypatch, tmp_path):
    code, _, err = repl(capsys, monkeypatch, "", "--load", str(tmp_path / "no.db"))
    assert code == 2


def test_repl_echoes_config_to_stderr(capsys, monkeypatch):
    _, _, err = repl(capsys, monkeypatch, "", "--alpha", "0.9")
    assert "alpha=0.9" in err
    assert err.splitlines() == [config_line(alpha="0.9")]


def foreign_snapshot(tmp_path):
    """A snapshot whose only rule predicts step 9."""
    path = tmp_path / "foreign.db"
    db = LookupDB()
    db.add((1,), 9, 0.9)
    write_snapshot(db, 0.8, 0.5, path)
    return path


def test_repl_load_with_undeclared_steps_is_a_data_error(capsys, monkeypatch, tmp_path):
    path = foreign_snapshot(tmp_path)
    code, out, err = repl(
        capsys, monkeypatch, "1\n:quit\n",
        "--steps", "1,2", "--classifications", "", "--load", str(path),
    )
    assert code == 2
    assert "entry 0 uses step 9" in err
    assert "suggestion" not in out


def test_repl_load_command_with_undeclared_steps_keeps_the_engine(
    capsys, monkeypatch, tmp_path
):
    path = foreign_snapshot(tmp_path)
    code, out, _ = repl(capsys, monkeypatch, f"2\n3\n:load {path}\n2\n:db\n:quit\n")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("error: ") and "entry 0 uses step 9" in line
               for line in lines)
    assert not any(line.startswith("loaded ") for line in lines)
    assert "2 entries" in out
    assert "pred=9" not in out
    assert lines[-1].startswith("suggestion: step=3")


def counted_snapshot(tmp_path):
    """A snapshot whose only rule counts contexts of classification 7."""
    path = tmp_path / "counted.db"
    path.write_text(
        "LOOKUPDB v1 alpha=0.8 theta=0.5\n"
        "E 0 cond=1 pred=2 p=0.5\n"
        "S 7 0 total=3 4:3\n"
    )
    return path


def test_repl_load_with_an_undeclared_classification_is_a_data_error(
    capsys, monkeypatch, tmp_path
):
    path = counted_snapshot(tmp_path)
    code, out, err = repl(
        capsys, monkeypatch, "1\n:db\n:quit\n",
        "--steps", "1,2", "--classifications", "0,1", "--load", str(path),
    )
    assert code == 2
    assert "entry 0 uses classification 7, which is not declared" in err
    assert out == ""


def test_repl_load_command_with_an_undeclared_classification_keeps_the_engine(
    capsys, monkeypatch, tmp_path
):
    path = counted_snapshot(tmp_path)
    code, out, _ = repl(capsys, monkeypatch, f"2\n3\n:load {path}\n:db\n:quit\n")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("error: ") and "uses classification 7" in line
               for line in lines)
    assert not any(line.startswith("loaded ") for line in lines)
    assert "7,0=" not in out


def loose(ch):
    """The error for a number spelled with ``_``, ``+`` or non-ASCII."""
    return f"character {ch!r} is not allowed: numbers are ASCII digits, without '_' or '+'"


@pytest.mark.parametrize("steps,message", [
    ("1,x", "bad step id 'x'"),
    ("1,-2", "step id -2 must not be negative"),
    ("1,+2", loose("+")),
    ("1_0", loose("_")),
    ("1,\u0661", loose("\u0661")),
])
def test_repl_bad_step_list_is_a_usage_error(capsys, monkeypatch, steps, message):
    code, out, err = repl(capsys, monkeypatch, "1\n", "--steps", steps)
    assert code == 1
    assert err.splitlines() == [f"error: {message}"]
    assert out == ""
