"""Trace parsing, replay metrics, CSV and SVG reports."""

from __future__ import annotations

import dataclasses
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, strategies as st

import nextstep.evaluation
from nextstep import (
    Observation,
    PredictorConfig,
    compare_engines,
    read_trace,
    render_comparison_svg,
    run_trace,
    write_trace,
)
from nextstep.errors import TraceFormatError
from nextstep.evaluation import (
    CSV_HEADER,
    MetricsRow,
    derive_universes,
    dump_trace,
    format_record,
    metrics_to_csv,
    parse_record,
    parse_trace,
)
from nextstep.scenarios import generate_trace

from . import reference

ALPHA = 0.8
Q = 1.0 - ALPHA


def loose(ch):
    """The error for a number spelled with ``_``, ``+`` or non-ASCII."""
    return f"character {ch!r} is not allowed: numbers are ASCII digits, without '_' or '+'"


def separator(ch):
    """The error for a non-ASCII whitespace character on a data line."""
    return f"character {ch!r} is not allowed: fields are separated by ASCII whitespace"


# -- record and trace format --------------------------------------------------


def test_record_round_trip():
    for text in ("3", "1 0=2,1=0", "2 5=17"):
        assert format_record(parse_record(text)) == text


def test_record_context_order_is_canonical():
    assert format_record(parse_record("1 1=0,0=2")) == "1 0=2,1=0"


@pytest.mark.parametrize("bad", ["", "x", "-1", "1 0", "1 0=", "1 0=x", "1 0=-2"])
def test_bad_records_are_rejected(bad):
    with pytest.raises(ValueError):
        parse_record(bad)


@pytest.mark.parametrize("text,message", [
    ("x", "bad step 'x'"),
    ("", "bad step ''"),
    ("1.5 0=2", "bad step '1.5'"),
    ("-1", "step -1 must not be negative"),
    # int() takes '_' separators, a '+' sign and non-ASCII digits; the
    # format does not, in the step or in a pair.
    ("1_0", loose("_")),
    ("+1", loose("+")),
    ("\u0663", loose("\u0663")),
    ("1 0_0=1", loose("_")),
    ("1 0=+1", loose("+")),
    ("1 0=1,1=\u0663", loose("\u0663")),
    ("2 0=2,0=3", "classification 0 given twice"),
])
def test_bad_step_messages(text, message):
    with pytest.raises(ValueError) as excinfo:
        parse_record(text)
    assert str(excinfo.value) == message


def test_parse_trace_skips_blanks_and_comments():
    trace = parse_trace([
        "# header", "", "1 0=2", "  ", "2",
        "\t# c\n", " \n", "\r\n", "  # x\n", "# twice\n", "# twice\n", "1 0=2",
    ])
    assert [(o.step, dict(o.contexts)) for o in trace] == [(1, {0: 2}), (2, {}), (1, {0: 2})]


def test_parse_trace_rejects_non_ascii_whitespace_on_a_data_line():
    # str.strip() takes it as whitespace, but the line is checked before
    # it is stripped, as the snapshot reader checks its lines.  Blank and
    # comment lines are not checked.
    trace = parse_trace(["\u3000", "# \u3000 \xa0", "1 0=2"])
    assert [(o.step, dict(o.contexts)) for o in trace] == [(1, {0: 2})]
    with pytest.raises(TraceFormatError) as excinfo:
        parse_trace(["1", "\u3000", " 2 0=1\u3000"])
    assert str(excinfo.value) == "line 3: " + separator("\u3000")


def test_parse_trace_reports_the_offending_line():
    with pytest.raises(TraceFormatError) as excinfo:
        parse_trace(["1", "2", "huh"])
    assert "line 3:" in str(excinfo.value)
    with pytest.raises(TraceFormatError) as excinfo:
        parse_trace(["# +1_0 \u0663", "1", "1_0 0=+1,1=\u0663"])
    assert str(excinfo.value) == "line 3: " + loose("_")
    with pytest.raises(TraceFormatError) as excinfo:
        parse_trace(["1", "2 0=2,0=3"])
    assert str(excinfo.value) == "line 2: classification 0 given twice"


def test_repeated_lines_read_as_one_shared_observation():
    # A repeated line is read once and every repeat is that observation;
    # its contexts are read-only, so no repeat can change another.
    trace = parse_trace(["1 0=2\n", "1 0=2\n", "1 0=2\n", "3\n", "3"])
    repeats, (bare, last) = trace[:3], trace[3:]
    assert all(o is repeats[0] for o in repeats)
    assert repeats[0] == Observation(1, {0: 2})
    # Lines that differ in their raw text are read apart.
    assert bare == last == Observation(3) and bare is not last
    for observation in trace + [parse_record("4 1=0")]:
        built = Observation(observation.step, observation.contexts)
        assert observation == built
        assert repr(observation) == repr(built)
        with pytest.raises(TypeError):
            observation.contexts[1] = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            observation.step = 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            observation.contexts = {}
        with pytest.raises(TypeError):
            hash(observation)
    assert [dict(o.contexts) for o in trace] == [{0: 2}] * 3 + [{}, {}]


# Pieces of trace lines, valid and not: the reader must accept and reject
# exactly what the reference reader does, with the same line and message.
# Each piece is well formed in most draws, so that most traces get past
# their first line and many are read whole.
def _mostly(good, bad):
    return st.integers(min_value=0, max_value=7).flatmap(lambda n: bad if n == 0 else good)


_SPACE = _mostly(
    st.sampled_from(["", "", " ", "  ", "\t"]),
    st.sampled_from(["\u3000", "\xa0", " \u3000"]),
)
_NUMBER = _mostly(
    st.integers(min_value=0, max_value=3).map(str),
    st.sampled_from(["-0", "-1", "+1", "1_0", "07", "x", "", "\u0663"]),
)
_PAIR = _mostly(
    st.builds(
        "{}{}{}={}{}".format,
        st.sampled_from(["", "", "", " "]), _NUMBER, st.sampled_from(["", "", "", " "]),
        _NUMBER, st.sampled_from(["", "", "", " "]),
    ),
    st.one_of(st.just(""), _NUMBER),
)
_DATA = st.builds(
    "{}{}{}{}".format,
    _SPACE,
    _NUMBER,
    _mostly(
        st.builds(
            lambda sep, pairs: sep + ",".join(pairs),
            _mostly(st.just(" "), st.sampled_from(["  ", "\t", "\u3000", "\xa0"])),
            st.lists(_PAIR, min_size=1, max_size=3),
        ),
        st.just(""),
    ),
    _SPACE,
)
_COMMENT = st.builds(
    "{}#{}".format, _SPACE, st.sampled_from(["", " x", " 1 0=2", " +1_0 \u0663"])
)
_LINE = st.builds(
    str.__add__,
    st.one_of(_SPACE, _COMMENT, _DATA),
    st.sampled_from(["", "\n", "\r\n"]),
)


def _read(parse, lines):
    try:
        return parse(lines), None
    except TraceFormatError as exc:
        return None, (exc.line_no, str(exc))


def _agrees_with_the_reference_reader(lines):
    observations, error = _read(parse_trace, lines)
    expected, expected_error = _read(reference.parse_trace, lines)
    assert error == expected_error
    if error is not None:
        return
    assert observations == expected
    assert [type(o) for o in observations] == [Observation] * len(expected)
    # Each data line gave one observation, and the same object for the
    # same raw text, line end and surrounding whitespace included.
    data_lines = [raw for raw in lines if raw.lstrip()[:1] not in ("", "#")]
    first: dict[str, Observation] = {}
    for raw, observation in zip(data_lines, observations, strict=True):
        assert first.setdefault(raw, observation) is observation
    assert len({id(o) for o in observations}) == len(first)
    if expected:
        assert derive_universes(observations) == reference.derive_universes(expected)
    else:
        with pytest.raises(ValueError, match="^trace is empty$"):
            derive_universes(observations)


@given(st.lists(_LINE, max_size=8))
def test_reader_agrees_with_the_reference_reader(lines):
    _agrees_with_the_reference_reader(lines)


# Traces drawn from a pool of at most four lines, so that most lines
# repeat an earlier one.  Pool lines often share one valid record and
# differ only in the whitespace around it, non-ASCII included, or in
# their line end, which the reader's table of accepted lines must tell
# apart.  The others are any line, blank, comment or bad.
_AROUND = st.sampled_from(["", " ", "\t", "\u3000", "\xa0"])
_END = st.sampled_from(["", "\n", "\r\n"])
_RECORD = st.builds(
    Observation,
    st.integers(min_value=0, max_value=3),
    st.dictionaries(
        st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=3), max_size=2
    ),
).map(format_record)


def _pool_line(record):
    return st.one_of(st.builds("{}{}{}{}".format, _AROUND, st.just(record), _AROUND, _END), _LINE)


_POOL_TRACE = (
    _RECORD.flatmap(lambda record: st.lists(_pool_line(record), min_size=2, max_size=4))
    .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=12))
)


@given(_POOL_TRACE)
# A repeat must be its first line's observation, a skipped line must not
# stand for a record, and a line with non-ASCII whitespace around an
# accepted record is bad.
@example(["3", "3"])
@example(["1\n", "# x\n", "# x\n"])
@example(["1 0=2\n", "1 0=2\u3000"])
def test_repeated_lines_read_as_the_reference_reader_reads_them(lines):
    _agrees_with_the_reference_reader(lines)


def test_trace_file_round_trip(tmp_path):
    trace = generate_trace("mix", 3, 2, seed=5)
    path = tmp_path / "trace.txt"
    write_trace(trace, path)
    again = read_trace(path)
    assert [(o.step, dict(o.contexts)) for o in again] == [
        (o.step, dict(o.contexts)) for o in trace
    ]
    assert dump_trace(again) == dump_trace(trace)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_undecodable_trace_byte_names_its_line(tmp_path, end):
    """Lines end as the text reader ends them, also past its first chunk."""
    path = tmp_path / "trace.txt"
    path.write_bytes((end * 3000 + f"1{end}2 0=1{end}").encode() + b"3 0=\xe9" + end.encode())
    with pytest.raises(TraceFormatError) as excinfo:
        read_trace(path)
    assert str(excinfo.value) == "line 3003: byte 0xe9 is not UTF-8 (invalid continuation byte)"


def test_derive_universes():
    trace = [Observation(2, {0: 5}), Observation(4, {1: 0})]
    steps, classifications = derive_universes(trace)
    assert steps == frozenset({2, 4})
    assert classifications == frozenset({0, 1})


def test_derive_universes_allows_context_free_traces():
    steps, classifications = derive_universes([Observation(2), Observation(3)])
    assert steps == frozenset({2, 3})
    assert classifications == frozenset()


def test_derive_universes_rejects_empty_traces():
    with pytest.raises(ValueError):
        derive_universes([])
    with pytest.raises(ValueError):
        run_trace([], PredictorConfig())


# -- replay metrics -------------------------------------------------------------


def test_run_trace_scores_from_the_second_record():
    trace = parse_trace(["2", "3", "2", "3", "2", "3"])
    _, rows = run_trace(trace, PredictorConfig())
    assert [row.t for row in rows] == [1, 2, 3, 4, 5]
    assert [row.predicted for row in rows] == [None, None, 3, 2, 3]
    assert [row.correct for row in rows] == [False, False, True, True, True]
    assert [row.cum_correct for row in rows] == [0, 0, 1, 2, 3]
    assert rows[-1].cum_accuracy == pytest.approx(3 / 5)


def test_run_trace_rolling_window():
    # the first two scored steps miss, every later one hits; roll_acc
    # averages the last 25 scored steps, so the misses leave it at t = 27
    trace = parse_trace(["2", "3"] * 30)
    _, rows = run_trace(trace, PredictorConfig())
    assert [row.correct for row in rows] == [False, False] + [True] * 57
    for row in rows:
        recent = rows[max(row.t - 25, 0):row.t]
        assert row.roll_accuracy == sum(r.correct for r in recent) / len(recent)
    assert rows[2].roll_accuracy == pytest.approx(1 / 3)
    assert rows[24].roll_accuracy == pytest.approx(23 / 25)
    assert rows[25].roll_accuracy == pytest.approx(24 / 25)
    assert rows[26].roll_accuracy == 1.0


def test_single_record_trace_primes_but_scores_nothing():
    engine, rows = run_trace([Observation(2)], PredictorConfig())
    assert rows == []
    assert len(engine.db) == 0


def test_run_trace_derives_universes_from_the_trace():
    trace = generate_trace("mix", 4, 2, seed=1)
    engine, _ = run_trace(trace, PredictorConfig())
    assert engine.steps == frozenset({1, 2, 3, 4})
    assert engine.classifications == frozenset({0, 1})


def test_compare_engines_runs_both_modes_on_one_trace():
    trace = generate_trace("mix", 6, 2, seed=2)
    context_rows, baseline_rows = compare_engines(trace, PredictorConfig())
    assert len(context_rows) == len(baseline_rows) == len(trace) - 1
    again_context, again_baseline = compare_engines(trace, PredictorConfig())
    assert metrics_to_csv(context_rows) == metrics_to_csv(again_context)
    assert metrics_to_csv(baseline_rows) == metrics_to_csv(again_baseline)


# -- CSV ---------------------------------------------------------------------------


def test_csv_of_three_hand_made_rows_is_exact():
    rows = [
        MetricsRow(1, 2, None, False, 0, 0.0, 0.0),
        MetricsRow(2, 3, 3, True, 1, 0.5, 0.5),
        MetricsRow(3, 4, 2, False, 1, 1 / 3, 1 / 3),
    ]
    assert metrics_to_csv(rows) == (
        "t,step,predicted,correct,cum_correct,cum_acc,roll_acc\n"
        "1,2,,0,0,0.000000,0.000000\n"
        "2,3,3,1,1,0.500000,0.500000\n"
        "3,4,2,0,1,0.333333,0.333333\n"
    )


def test_csv_of_no_rows_is_just_the_header():
    assert metrics_to_csv([]) == CSV_HEADER + "\n"


# -- SVG ----------------------------------------------------------------------------


def render_report():
    trace = generate_trace("mix", 6, 2, seed=2)
    context_rows, baseline_rows = compare_engines(trace, PredictorConfig())
    return render_comparison_svg(context_rows, baseline_rows)


def test_svg_is_well_formed_xml():
    root = ET.fromstring(render_report())
    assert root.tag.endswith("svg")


def test_svg_has_two_series_per_panel():
    root = ET.fromstring(render_report())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 4
    strokes = [el.get("stroke") for el in polylines]
    assert strokes.count("red") == 2
    assert strokes.count("blue") == 2


def test_svg_labels_both_panels():
    text = render_report()
    assert "cumulative" in text.lower()
    assert "rolling" in text.lower()


def test_svg_is_deterministic():
    assert render_report() == render_report()


# -- output files ------------------------------------------------------------------


WRITERS = [
    pytest.param("dump_trace", lambda path: write_trace([Observation(1)], path),
                 id="trace"),
]


@pytest.mark.parametrize("render,write", WRITERS)
def test_failed_render_keeps_the_previous_file(tmp_path, monkeypatch, render, write):
    path = tmp_path / "out"
    write(path)
    before = path.read_bytes()

    def broken_render(*args):
        raise RuntimeError("render failed")

    monkeypatch.setattr(nextstep.evaluation, render, broken_render)
    with pytest.raises(RuntimeError):
        write(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
