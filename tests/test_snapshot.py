"""Snapshot serialization: byte-stable dumps, validating parser."""

from __future__ import annotations

import io
import os
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import nextstep.lookupdb
from nextstep import Observation, PredictorConfig, read_snapshot, run_trace, write_snapshot
from nextstep.errors import SnapshotFormatError
from nextstep.lookupdb import ContextSlot, LookupDB, dump_snapshot, parse_snapshot
from nextstep.scenarios import generate_trace

from . import reference


def small_db():
    db = LookupDB()
    entry = db.add((1, 2, 3), 1, 0.9)
    entry.slots[(0, 0)] = ContextSlot(2, {5: 2})
    entry.slots[(1, -2)] = ContextSlot(1, {3: 1})
    db.add((2,), 3, 0.2)
    return db


def random_db(seed, entries=60):
    rng = random.Random(seed)
    db = LookupDB()
    seen = set()
    while len(db) < entries:
        condition = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
        prediction = rng.randint(1, 4)
        if (condition, prediction) in seen:
            continue
        seen.add((condition, prediction))
        entry = db.add(condition, prediction, rng.random())
        for index in range(1 - len(condition), 1):
            if rng.random() < 0.5:
                continue
            seen_contexts = [rng.randint(0, 6) for _ in range(rng.randint(1, 5))]
            slot = ContextSlot(len(seen_contexts), dict(Counter(seen_contexts)))
            entry.slots[(rng.randint(0, 1), index)] = slot
    return db


def test_dump_format_is_exact():
    assert dump_snapshot(small_db(), 0.8, 0.5) == (
        "LOOKUPDB v1 alpha=0.8 theta=0.5\n"
        "E 0 cond=1,2,3 pred=1 p=0.9\n"
        "S 0 0 total=2 5:2\n"
        "S 1 -2 total=1 3:1\n"
        "E 1 cond=2 pred=3 p=0.2\n"
    )


def test_empty_db_dump_is_header_only():
    assert dump_snapshot(LookupDB(), 0.8, 0.5) == "LOOKUPDB v1 alpha=0.8 theta=0.5\n"


def test_round_trip_is_byte_identical():
    for seed in (1, 2, 3):
        db = random_db(seed)
        text = dump_snapshot(db, 0.8, 0.5)
        loaded, alpha, theta = parse_snapshot(text)
        assert (alpha, theta) == (0.8, 0.5)
        assert dump_snapshot(loaded, alpha, theta) == text


def test_alpha_theta_survive_round_trip():
    text = dump_snapshot(LookupDB(), 0.95, 0.25)
    _, alpha, theta = parse_snapshot(text)
    assert (alpha, theta) == (0.95, 0.25)


def test_parse_accepts_file_objects():
    text = dump_snapshot(small_db(), 0.8, 0.5)
    db, _, _ = parse_snapshot(io.StringIO(text))
    assert len(db) == 2


def test_file_round_trip(tmp_path):
    path = tmp_path / "rules.db"
    write_snapshot(small_db(), 0.8, 0.5, path)
    db, alpha, theta = read_snapshot(path)
    assert dump_snapshot(db, alpha, theta) == dump_snapshot(small_db(), 0.8, 0.5)


def test_failed_dump_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "rules.db"
    write_snapshot(small_db(), 0.8, 0.5, path)
    before = path.read_bytes()

    def broken_dump(*args):
        raise RuntimeError("dump failed")

    monkeypatch.setattr(nextstep.lookupdb, "dump_snapshot", broken_dump)
    with pytest.raises(RuntimeError):
        write_snapshot(LookupDB(), 0.8, 0.5, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rules.db"]


def test_failed_replace_removes_the_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "rules.db"
    write_snapshot(small_db(), 0.8, 0.5, path)
    before = path.read_bytes()

    def broken_replace(source, target):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError):
        write_snapshot(LookupDB(), 0.8, 0.5, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rules.db"]


def test_parsed_entries_keep_ids_and_values():
    db, _, _ = parse_snapshot(dump_snapshot(small_db(), 0.8, 0.5))
    entry = db.entry(0)
    assert entry.condition == (1, 2, 3)
    assert entry.prediction == 1
    assert entry.p == 0.9
    assert entry.slots[(0, 0)].per_context == {5: 2}
    assert entry.slots[(0, 0)].total == 2
    assert db.entry(1).condition == (2,)


HEADER = "LOOKUPDB v1 alpha=0.8 theta=0.5\n"
ENTRY = "E 0 cond=1 pred=2 p=0.5\n"
EXPECTED_HEADER = "expected header 'LOOKUPDB v1 alpha=... theta=...'"


def loose(ch):
    """The error for a number spelled with ``_``, ``+`` or non-ASCII."""
    return f"character {ch!r} is not allowed: numbers are ASCII digits, without '_' or '+'"


def separator(ch):
    """The error for a non-ASCII whitespace character on a data line."""
    return f"character {ch!r} is not allowed: fields are separated by ASCII whitespace"


# (text, line number, message): every raise site of the reader.
BAD_SNAPSHOTS = [
    ("RULEBOOK v1 alpha=0.8 theta=0.5\n", 1, EXPECTED_HEADER),
    ("LOOKUPDB v2 alpha=0.8 theta=0.5\n", 1, "unsupported snapshot version 'v2'"),
    ("LOOKUPDB v1 alpha=1.5 theta=0.5\n", 1, "alpha 1.5 outside (0, 1)"),
    ("LOOKUPDB v1 alpha=0.8 theta=1.0\n", 1, "theta 1.0 outside [0, 1)"),
    ("LOOKUPDB v1 alpha=0.8\n", 1, EXPECTED_HEADER),
    ("", 1, "missing snapshot header"),
    ("LOOKUPDB v1 alpha=x theta=0.5\n", 1, "bad alpha 'x'"),
    ("LOOKUPDB v1 alpha=0.8 theta=x\n", 1, "bad theta 'x'"),
    (HEADER + "E 1 cond=1 pred=2 p=0.5\n", 2, "entry id 1 out of order, expected 0"),
    (HEADER + "E 0 cond= pred=2 p=0.5\n", 2, "expected cond=<value>, got 'cond='"),
    (HEADER + "E 0 cond=1 pred=2 p=1.5\n", 2, "probability 1.5 outside [0, 1]"),
    (HEADER + "E 0 cond=x pred=2 p=0.5\n", 2, "bad condition 'x'"),
    (HEADER + "S 0 0 total=1 5:1\n", 2, "slot line before any entry line"),
    (HEADER + ENTRY + ENTRY, 3, "entry id 0 out of order, expected 1"),
    (HEADER + ENTRY + "S 0 1 total=1 5:1\n", 3, "condition index 1 outside [0, 0]"),
    (HEADER + ENTRY + "S 0 -1 total=1 5:1\n", 3, "condition index -1 outside [0, 0]"),
    (HEADER + ENTRY + "S 0 0 total=2 5:1\n", 3, "context counts sum to 1, total says 2"),
    (HEADER + ENTRY + "S 0 0 total=0\n", 3, "slot total 0 must be positive"),
    (HEADER + ENTRY + "S 0 0 total=1 5:1\nS 0 0 total=1 5:1\n", 4,
     "duplicate slot for classification 0 index 0"),
    (HEADER + "bogus\n", 2, "unknown line tag 'bogus'"),
    (HEADER + "E x cond=1 pred=2 p=0.5\n", 2, "bad entry id 'x'"),
    (HEADER + "E 0 cond=1 pred=x p=0.5\n", 2, "bad prediction 'x'"),
    (HEADER + "E 0 cond=1 pred=-2 p=0.5\n", 2, "prediction -2 must not be negative"),
    (HEADER + "E 0 cond=1 pred=2 p=x\n", 2, "bad p 'x'"),
    (HEADER + "E 0 cond=1 pred=2 q=0.5\n", 2, "expected p=<value>, got 'q=0.5'"),
    (HEADER + "E 0 cond=1 pred=2\n", 2,
     "entry line needs: E <id> cond=... pred=... p=..."),
    (HEADER + "E 0 cond=1,-2,3 pred=3 p=0.5\n", 2,
     "step id -2 must be a non-negative int"),
    (HEADER + ENTRY + "E 1 cond=1 pred=2 p=0.5\n", 3,
     "entry with condition (1,) predicting 2 already exists"),
    (HEADER + ENTRY + "S x 0 total=1 5:1\n", 3, "bad classification id 'x'"),
    (HEADER + ENTRY + "S -1 0 total=1 5:1\n", 3,
     "classification id -1 must not be negative"),
    (HEADER + ENTRY + "S 0 x total=1 5:1\n", 3, "bad condition index 'x'"),
    (HEADER + ENTRY + "S 0 0 total=x 5:1\n", 3, "bad total 'x'"),
    (HEADER + ENTRY + "S 0 0 count=1 5:1\n", 3, "expected total=<value>, got 'count=1'"),
    (HEADER + ENTRY + "S 0 0 total=1 x:1\n", 3, "bad context id 'x'"),
    (HEADER + ENTRY + "S 0 0 total=1 5:x\n", 3, "bad context count 'x'"),
    (HEADER + ENTRY + "S 0 0 total=1 5:-1\n", 3, "context count -1 must not be negative"),
    (HEADER + ENTRY + "S 0 0 total=1 5:0\n", 3, "context count 0 must be positive"),
    (HEADER + ENTRY + "S 0 0 total=2 5:1 5:1\n", 3, "duplicate context 5 in slot"),
    (HEADER + ENTRY + "S 0 0\n", 3,
     "slot line needs: S <cc> <index> total=<n> ctx:count..."),
    (HEADER + ENTRY + "S 0 0 total=1 -5:1\n", 3, "context id -5 must not be negative"),
    (HEADER + ENTRY + "S 0 0 total=1 5\n", 3, "bad context count ''"),
    (HEADER + ENTRY + "S 0 0 total=1 5:1:1\n", 3, "bad context count '1:1'"),
    (HEADER + ENTRY + "S 0 0 total=1 :1\n", 3, "bad context id ''"),
    (HEADER + ENTRY + "S 0 0 total=\n", 3, "expected total=<value>, got 'total='"),
    (HEADER + ENTRY + "S 0 0 total==1 5:1\n", 3, "bad total '=1'"),
    # The first bad pair names the error, not a later one.
    (HEADER + ENTRY + "S 0 0 total=2 5:1 5:1 x:1\n", 3, "duplicate context 5 in slot"),
    (HEADER + ENTRY + "S 0 0 total=2 5:0 x:1\n", 3, "context count 0 must be positive"),
    # A repeated context with a count of 0 is named by its count.
    (HEADER + ENTRY + "S 0 0 total=2 5:1 5:0\n", 3, "context count 0 must be positive"),
    # int() and float() take '_' separators, a '+' sign and non-ASCII
    # digits; the format does not, in any number of any line.
    ("LOOKUPDB v1 alpha=0.8_0 theta=0.5\n", 1, loose("_")),
    ("LOOKUPDB v1 alpha=0.8 theta=+0.5\n", 1, loose("+")),
    ("LOOKUPDB v1 alpha=\u0660.8 theta=0.5\n", 1, loose("\u0660")),
    (HEADER + "E +0 cond=1 pred=2 p=0.5\n", 2, loose("+")),
    (HEADER + "E 0 cond=1_0 pred=2 p=0.5\n", 2, loose("_")),
    (HEADER + "E 0 cond=1,\u0663 pred=2 p=0.5\n", 2, loose("\u0663")),
    (HEADER + "E 0 cond=1 pred=+2 p=0.5\n", 2, loose("+")),
    (HEADER + "E 0 cond=1 pred=2 p=0.5_0\n", 2, loose("_")),
    (HEADER + "E 0 cond=1 pred=2 p=\uff10.5\n", 2, loose("\uff10")),
    (HEADER + "E 0 cond=1_0,+2,\u0663 pred=+2 p=0.5_0\n", 2, loose("_")),
    (HEADER + ENTRY + "S +0 0 total=1 5:1\n", 3, loose("+")),
    (HEADER + ENTRY + "S 0 -0_0 total=1 5:1\n", 3, loose("_")),
    (HEADER + ENTRY + "S 0 \u0660 total=1 5:1\n", 3, loose("\u0660")),
    (HEADER + ENTRY + "S 0 0 total=1_0 5:10\n", 3, loose("_")),
    (HEADER + ENTRY + "S 0 0 total=+1 5:1\n", 3, loose("+")),
    (HEADER + ENTRY + "S 0 0 total=1 +5:1\n", 3, loose("+")),
    (HEADER + ENTRY + "S 0 0 total=1 5:\u0661\n", 3, loose("\u0661")),
    (HEADER + ENTRY + "S 0 0 total=10 5_0:10\n", 3, loose("_")),
    # str.split() takes it as a separator; the format does not.
    (HEADER + "E 0 cond=1 pred=2 p=0.5\xa0\n", 2, separator("\xa0")),
]


# 1-4 pairs: up to two good ones over two contexts, so that contexts
# repeat, then one or two of any shape, malformed ones mostly on context 5.
_GOOD_PAIR = st.sampled_from(["0:1", "5:1", "5:2"])
_SLOT_PAIR = st.one_of(
    _GOOD_PAIR, st.sampled_from(["x", "-5", "5:0", "5:-1", "5", "5:1:1", ":1", "5:x"])
)


@given(st.lists(_GOOD_PAIR, max_size=2), st.lists(_SLOT_PAIR, min_size=1, max_size=2))
def test_slot_pairs_read_as_the_two_pass_reader_reads_them(good, rest):
    tokens = good + rest
    try:
        per_context, total = reference.parse_pairs(tokens)
    except ValueError as exc:
        text = HEADER + ENTRY + f"S 0 0 total=1 {' '.join(tokens)}\n"
        with pytest.raises(SnapshotFormatError) as excinfo:
            parse_snapshot(text)
        assert str(excinfo.value) == f"line 3: {exc}"
        return
    db, _, _ = parse_snapshot(HEADER + ENTRY + f"S 0 0 total={total} {' '.join(tokens)}\n")
    assert db.entry(0).slots == {(0, 0): ContextSlot(total, per_context)}


def test_bad_condition_id_is_named_with_its_line():
    text = ("LOOKUPDB v1 alpha=0.8 theta=0.5\n"
            "E 0 cond=1,2 pred=3 p=0.5\nE 1 cond=1,-2,3 pred=3 p=0.5\n")
    with pytest.raises(SnapshotFormatError) as excinfo:
        parse_snapshot(text)
    assert "line 3:" in str(excinfo.value)
    assert "step id -2 " in str(excinfo.value)


@pytest.mark.parametrize(
    "text,line_no,message",
    BAD_SNAPSHOTS,
    ids=[f"{text}-{line_no}" for text, line_no, _ in BAD_SNAPSHOTS],
)
def test_malformed_snapshots_report_the_line(text, line_no, message):
    with pytest.raises(SnapshotFormatError) as excinfo:
        parse_snapshot(text)
    assert str(excinfo.value) == f"line {line_no}: {message}"
    assert excinfo.value.line_no == line_no


def tolerated(blank):
    """A hand-edited snapshot: no line of it is in canonical form."""
    return (
        " LOOKUPDB v1 alpha=0.8 theta=0.5\r\n"
        "# edited by hand: +1_000 \u00e9\r\n"
        f"{blank}"
        "E 0  cond=1,2\tpred=3   p=0.5\r\n"
        "S 0 -1 total=2 4:1  5:1 \r\n"
    )


def parse_from(kind, text, tmp_path):
    if kind == "str":
        return parse_snapshot(text)
    if kind == "stringio":
        return parse_snapshot(io.StringIO(text))
    path = tmp_path / "rules.db"
    path.write_bytes(text.encode("utf-8"))
    return read_snapshot(path)


# A lone form feed is whitespace on a line of its own, not a line break.
@pytest.mark.parametrize("blank", ["\r\n", " \t\n", "\x0c\n"], ids=["crlf", "spaces", "ff"])
@pytest.mark.parametrize("kind", ["str", "stringio", "path"])
def test_reader_tolerates_blanks_comments_spacing_and_crlf(kind, blank, tmp_path):
    db, alpha, theta = parse_from(kind, tolerated(blank), tmp_path)
    assert dump_snapshot(db, alpha, theta) == (
        "LOOKUPDB v1 alpha=0.8 theta=0.5\n"
        "E 0 cond=1,2 pred=3 p=0.5\n"
        "S 0 -1 total=2 4:1 5:1\n"
    )
    with pytest.raises(SnapshotFormatError) as excinfo:
        parse_from(kind, tolerated(blank) + "bogus\r\n", tmp_path)
    assert str(excinfo.value) == "line 6: unknown line tag 'bogus'"


def churn_trace(events, seed):
    """Uniform random steps 1-4 with two often-present classifications."""
    rng = random.Random(seed)
    return [
        Observation(
            rng.randint(1, 4), {cc: rng.randrange(5) for cc in (0, 1) if rng.random() < 0.9}
        )
        for _ in range(events)
    ]


@pytest.mark.parametrize(
    "observations,mode",
    [
        (churn_trace(2_000, 4242), "baseline"),
        (generate_trace("mix", 40, 3, seed=4242), "context"),
    ],
    ids=["churn-baseline", "mix-context"],
)
def test_engine_snapshots_round_trip_at_scale(observations, mode):
    engine, _ = run_trace(observations, PredictorConfig(engine_mode=mode))
    text = dump_snapshot(engine.db, 0.8, 0.5)
    loaded, alpha, theta = parse_snapshot(text)
    assert dump_snapshot(loaded, alpha, theta) == text
    assert [entry.slots for entry in loaded] == [entry.slots for entry in engine.db]
    widest = max(len(line.split()) - 4 for line in text.splitlines() if line[0] == "S")
    assert widest >= (10 if mode == "context" else 2)
    # One key tuple per distinct (cc, index) across the whole load.
    keys = [key for entry in loaded for key in entry.slots]
    assert len({id(key) for key in keys}) == len(set(keys))


def test_an_undecodable_byte_names_its_line(tmp_path):
    """The reader decodes in chunks: the line is found past the first one."""
    path = tmp_path / "rules.db"
    text = dump_snapshot(random_db(1, entries=600), 0.8, 0.5)
    lines = text.encode("utf-8").split(b"\n")
    assert len(text) > 20_000
    lines[-40] += b"\xff"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(SnapshotFormatError) as excinfo:
        read_snapshot(path)
    assert str(excinfo.value) == (
        f"line {len(lines) - 39}: byte 0xff is not UTF-8 (invalid start byte)"
    )
