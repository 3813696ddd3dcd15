"""Snapshot serialization: byte-stable dumps, validating parser."""

from __future__ import annotations

import io
import os
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import nextstep.lookupdb
from nextstep import (
    Engine,
    Observation,
    PredictorConfig,
    read_snapshot,
    run_trace,
    write_snapshot,
)
from nextstep.errors import SnapshotFormatError, UnknownIdError, WindowRangeError
from nextstep.evaluation import derive_universes
from nextstep.lookupdb import (
    ContextSlot,
    LookupDB,
    dump_snapshot,
    parse_snapshot,
    record_contexts,
    slot_key,
    slot_keys,
    split_slot_key,
)
from nextstep.scenarios import generate_trace
from nextstep.window import ObservationWindow

from . import reference


def small_db():
    db = LookupDB()
    entry = db.add((1, 2, 3), 1, 0.9)
    entry.slots[slot_key(0, 0)] = ContextSlot(2, {5: 2})
    entry.slots[slot_key(1, -2)] = ContextSlot(1, {3: 1})
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
            entry.slots[slot_key(rng.randint(0, 1), index)] = slot
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


@pytest.mark.parametrize("theta", [0, 0.0, 0.25], ids=["int-0", "float-0", "0.25"])
def test_every_accepted_theta_rereads_and_redumps_byte_identical(theta):
    # Both are written as floats: an int 0 rereads as the 0.0 it was
    # written as and re-dumps to the same bytes.
    config = PredictorConfig(alpha=0.95, theta=theta)
    text = dump_snapshot(small_db(), config.alpha, config.theta)
    assert text.startswith(f"LOOKUPDB v1 alpha=0.95 theta={float(theta)!r}\n")
    db, alpha, theta = parse_snapshot(text)
    assert (alpha, theta) == (config.alpha, config.theta)
    assert dump_snapshot(db, alpha, theta) == text


def test_a_classification_id_past_32_bits_round_trips():
    # The slot key keeps the classification above its low 32 bits.
    big = 2**32 + 3
    engine = Engine(PredictorConfig(), steps=(1, 2), classifications=(0, big))
    trace = [(1, {big: 4}), (2, {big: 5, 0: 1}), (1, {big: 4}), (2, {big: 6}), (1, {0: 2})]
    for step, contexts in trace:
        engine.predict()
        engine.learn(Observation(step, contexts))
    pair = list(engine.db)[2]
    assert pair.condition == (1, 2)
    pair.slots[slot_key(big, -1)] = ContextSlot(1, {9: 1})
    pair.slots[slot_key(0, 0)] = ContextSlot(1, {8: 1})
    text = dump_snapshot(engine.db, 0.8, 0.5)
    assert f"S 0 0 total=1 1:1\nS {big} 0 total=2 5:1 6:1\n" in text
    assert text.endswith(f"pred=2 p=0.15999999999999998\nS 0 0 total=1 8:1\nS {big} -1 total=1 9:1\n")
    loaded, alpha, theta = parse_snapshot(text)
    assert dump_snapshot(loaded, alpha, theta) == text
    assert [entry.slots for entry in loaded] == [entry.slots for entry in engine.db]
    Engine(PredictorConfig(), steps=(1, 2), classifications=(0, big), db=loaded)
    with pytest.raises(UnknownIdError, match=f"uses classification {big},"):
        Engine(PredictorConfig(), steps=(1, 2), classifications=(0,), db=loaded)


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
    entry = list(db)[0]
    assert entry.condition == (1, 2, 3)
    assert entry.prediction == 1
    assert entry.p == 0.9
    assert entry.slots[slot_key(0, 0)].per_context == {5: 2}
    assert entry.slots[slot_key(0, 0)].total == 2
    assert list(db)[1].condition == (2,)


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
    assert list(db)[0].slots == {slot_key(0, 0): ContextSlot(total, per_context)}


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


AT_SCALE = pytest.mark.parametrize(
    "observations,mode",
    [
        (churn_trace(2_000, 4242), "baseline"),
        (generate_trace("mix", 40, 3, seed=4242), "context"),
    ],
    ids=["churn-baseline", "mix-context"],
)


@AT_SCALE
def test_engine_snapshots_round_trip_at_scale(observations, mode):
    engine, _ = run_trace(observations, PredictorConfig(engine_mode=mode))
    text = dump_snapshot(engine.db, 0.8, 0.5)
    loaded, alpha, theta = parse_snapshot(text)
    assert dump_snapshot(loaded, alpha, theta) == text
    assert [entry.slots for entry in loaded] == [entry.slots for entry in engine.db]
    widest = max(len(line.split()) - 4 for line in text.splitlines() if line[0] == "S")
    assert widest >= (10 if mode == "context" else 2)
    # One key object per distinct slot key across the whole load.
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


@AT_SCALE
def test_a_loaded_db_holds_one_slot_per_distinct_counter_list(observations, mode):
    # One slot object per distinct counter list, not one per slot line.
    engine, _ = run_trace(observations, PredictorConfig(engine_mode=mode))
    text = dump_snapshot(engine.db, 0.8, 0.5)
    lists = [line.partition(" total=")[2] for line in text.splitlines() if line[0] == "S"]
    assert len(lists) > 3 * len(set(lists))
    loaded, _, _ = parse_snapshot(text)
    slots = [slot for entry in loaded for slot in entry.slots.values()]
    assert len(slots) == len(lists)
    assert len({id(slot) for slot in slots}) == len(set(lists))
    assert all(entry.shared for entry in loaded)
    assert not any(entry.shared for entry in engine.db)


@AT_SCALE
def test_an_engine_resumed_from_a_load_steps_as_over_the_uncached_load(observations, mode):
    # Replay half the trace, then finish it on an engine over each load.
    config = PredictorConfig(engine_mode=mode)
    half = len(observations) // 2
    engine, _ = run_trace(observations[:half], config)
    text = dump_snapshot(engine.db, config.alpha, config.theta)
    steps, classifications = derive_universes(observations)
    runs = []
    for parse in (parse_snapshot, reference.parse_snapshot):
        resumed = Engine(config, steps, classifications, parse(text)[0])
        predictions = []
        for observation in observations[half:]:
            predictions.append(resumed.predict())
            resumed.learn(observation)
        runs.append((predictions, dump_snapshot(resumed.db, config.alpha, config.theta)))
    predictions, _ = runs[0]
    assert runs[1] == runs[0]
    assert sum(prediction is not None for prediction in predictions) > len(predictions) // 2


# -- repeated slot lines ----------------------------------------------------


def assert_counting_one_rule_leaves_the_others(text):
    """Count into each rule of a fresh load of ``text`` alone.

    Every other rule must still read as the uncached reader loads it.
    The table holds a context for each classification in the text at
    every condition index, so the counted rule grows each of its slots.
    """
    expected = db_state(reference.parse_snapshot(text)[0])
    classifications = sorted({split_slot_key(key)[0] for *_, slots in expected
                              for key, _ in slots}) or [0]
    rows = max((len(condition) for _, condition, *_ in expected), default=1)
    table = [dict.fromkeys(classifications, 9)] * rows
    keys = slot_keys(classifications, rows)
    for at in range(len(expected)):
        db, _, _ = parse_snapshot(text)
        record_contexts([list(db)[at]], table, keys)
        state = db_state(db)
        del state[at]
        assert state == expected[:at] + expected[at + 1:]


# Entries 0 and 1 are read from the same slot line.
TWINS = (
    HEADER
    + "E 0 cond=1 pred=2 p=0.5\nS 0 0 total=2 5:1 6:1\n"
    + "E 1 cond=2 pred=1 p=0.5\nS 0 0 total=2 5:1 6:1\n"
)


def test_repeated_slot_lines_get_their_own_counters():
    db, _, _ = parse_snapshot(TWINS)
    first, second = (entry.slots[slot_key(0, 0)] for entry in db)
    assert first == second == ContextSlot(2, {5: 1, 6: 1})
    assert_counting_one_rule_leaves_the_others(TWINS)
    record_contexts([list(db)[1]], [{0: 6}], slot_keys((0,), 1))
    # Counting gave entry 1 a slot of its own: read the slots again.
    first, second = (entry.slots[slot_key(0, 0)] for entry in db)
    assert (first, second) == (ContextSlot(2, {5: 1, 6: 1}), ContextSlot(3, {5: 1, 6: 2}))


def test_a_loaded_engine_counts_into_one_of_two_repeated_slots():
    db, _, _ = parse_snapshot(TWINS)
    engine = Engine(PredictorConfig(), steps=(1, 2), classifications=(0,), db=db)
    # 1 then 2 is a hit for entry 0 (cond=1 pred=2), which counts context 5.
    engine.learn(Observation(1, {0: 5}))
    engine.learn(Observation(2, {0: 7}))
    assert list(db)[0].slots[slot_key(0, 0)] == ContextSlot(3, {5: 2, 6: 1})
    assert list(db)[1].slots[slot_key(0, 0)] == ContextSlot(2, {5: 1, 6: 1})


# One counter list under three heads: twice under entry 0, once under
# entry 1, and never on a line that repeats an earlier one.
SHARED_COUNTERS = (
    HEADER
    + "E 0 cond=1,2 pred=3 p=0.5\nS 0 0 total=2 5:1 6:1\nS 1 -1 total=2 5:1 6:1\n"
    + "E 1 cond=2 pred=1 p=0.5\nS 1 0 total=2 5:1 6:1\n"
)


def test_a_repeated_counter_list_loads_into_its_own_dict():
    db, _, _ = parse_snapshot(SHARED_COUNTERS)

    def slots():
        return [list(db)[0].slots[slot_key(0, 0)], list(db)[0].slots[slot_key(1, -1)],
                list(db)[1].slots[slot_key(1, 0)]]

    assert slots() == [ContextSlot(2, {5: 1, 6: 1})] * 3
    assert_counting_one_rule_leaves_the_others(SHARED_COUNTERS)
    record_contexts([list(db)[1]], [{1: 6}], slot_keys((1,), 1))
    assert slots() == [ContextSlot(2, {5: 1, 6: 1})] * 2 + [ContextSlot(3, {5: 1, 6: 2})]


def test_each_counter_list_dumps_with_its_own_total_and_counts():
    db = LookupDB()
    first = db.add((1, 2), 3, 0.5)
    # Built by hand: its total disagrees with its counts' sum, so
    # parse_snapshot would reject the line it dumps to.
    first.slots[slot_key(0, -1)] = ContextSlot(5, {5: 1, 6: 2})
    first.slots[slot_key(0, 0)] = ContextSlot(3, {5: 1, 6: 2})
    second = db.add((3, 2), 1, 0.25)
    second.slots[slot_key(0, 0)] = ContextSlot(3, {5: 1, 6: 2})
    second.slots[slot_key(1, 0)] = ContextSlot(3, {6: 2, 5: 1})
    second.slots[slot_key(1, -1)] = ContextSlot(3, {5: 2, 6: 1})
    def slots():
        return [(key, slot.total, list(slot.per_context.items()), id(slot.per_context))
                for entry in db for key, slot in entry.slots.items()]

    before = slots()
    text = dump_snapshot(db, 0.8, 0.5)
    assert text == HEADER + (
        "E 0 cond=1,2 pred=3 p=0.5\n"
        "S 0 -1 total=5 5:1 6:2\n"
        "S 0 0 total=3 5:1 6:2\n"
        "E 1 cond=3,2 pred=1 p=0.25\n"
        "S 0 0 total=3 5:1 6:2\n"
        "S 1 -1 total=3 5:2 6:1\n"
        "S 1 0 total=3 5:1 6:2\n"
    )
    assert text == reference.dump_snapshot(db, 0.8, 0.5)
    assert slots() == before


# An entry line after one whose cond= token it repeats: (line, message).
REPEATED_CONDITIONS = [
    ("E 1 cond=1,2 pred=3 p=0.5", "entry with condition (1, 2) predicting 3 already exists"),
    ("E 1 cond=01,2 pred=3 p=0.5", "entry with condition (1, 2) predicting 3 already exists"),
    ("E 1 cond=1,2 pred=x p=0.5", "bad prediction 'x'"),
    ("E 1 cond=1,2 pred=-4 p=0.5", "prediction -4 must not be negative"),
    ("E 1 cond=1,2 q=4 p=0.5", "expected pred=<value>, got 'q=4'"),
    ("E 1 cond=1,2 pred=4 p=x", "bad p 'x'"),
    ("E 1 cond=1,2 pred=4 q=0.5", "expected p=<value>, got 'q=0.5'"),
    ("E 1 cond=1,2 pred=4 p=1.5", "probability 1.5 outside [0, 1]"),
    ("E 1 cond=1,2 pred=4 p=nan", "probability nan outside [0, 1]"),
]


@pytest.mark.parametrize(
    "line,message",
    REPEATED_CONDITIONS,
    ids=["taken", "taken-other-spelling", "bad-pred", "negative-pred", "no-pred",
         "bad-p", "no-p", "p-above-1", "p-nan"],
)
def test_a_repeated_condition_is_still_checked_with_its_rule(line, message):
    text = HEADER + "E 0 cond=1,2 pred=3 p=0.5\nS 0 -1 total=1 5:1\n" + line + "\n"
    with pytest.raises(SnapshotFormatError) as excinfo:
        parse_snapshot(text)
    assert str(excinfo.value) == f"line 4: {message}"
    assert excinfo.value.line_no == 4
    assert read_outcome(parse_snapshot, text) == read_outcome(reference.parse_snapshot, text)


def test_rules_over_a_repeated_condition_land_on_its_trie_node():
    text = (HEADER + "E 0 cond=1,2 pred=3 p=0.5\nE 1 cond=2 pred=3 p=0.5\n"
            + "E 2 cond=1,2 pred=4 p=0.25\nE 3 cond=01,2 pred=1 p=0.5\n")
    db, _, _ = parse_snapshot(text)
    assert [(entry.condition, entry.prediction, entry.p) for entry in db] == [
        ((1, 2), 3, 0.5), ((2,), 3, 0.5), ((1, 2), 4, 0.25), ((1, 2), 1, 0.5)
    ]
    window = ObservationWindow(3, (1, 2))
    for step in (1, 2):
        window.push(Observation(step, {}))
    matches = db.matching_entries(window)
    assert [entry.entry_id for entry in matches] == [0, 1, 2, 3]
    path = db.walk(window)[1]
    assert path[1].rules == {3: list(db)[0], 4: list(db)[2], 1: list(db)[3]}


# (lines, line number, message): a repeat of an earlier slot line that
# does not fit where it now sits.
MISPLACED_REPEATS = [
    (["E 0 cond=1,2 pred=3 p=0.5", "S 0 -1 total=1 5:1",
      "E 1 cond=1 pred=3 p=0.5", "S 0 -1 total=1 5:1"],
     5, "condition index -1 outside [0, 0]"),
    (["E 0 cond=1 pred=2 p=0.5", "S 0 0 total=1 5:1", "S 0 0 total=1 5:1"],
     4, "duplicate slot for classification 0 index 0"),
]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("kind", ["str", "stringio", "path"])
@pytest.mark.parametrize(
    "lines,line_no,message", MISPLACED_REPEATS, ids=["shorter-entry", "same-entry"]
)
def test_a_misplaced_repeated_slot_line_names_its_own_line(
    lines, line_no, message, kind, end, tmp_path
):
    text = end.join([HEADER.rstrip("\n"), *lines, ""])
    with pytest.raises(SnapshotFormatError) as excinfo:
        parse_from(kind, text, tmp_path)
    assert str(excinfo.value) == f"line {line_no}: {message}"
    assert excinfo.value.line_no == line_no


# Counter lists and conditions drawn from small pools, so that most slot
# lines, counter lists and conditions repeat an earlier one.
_COUNTER_LIST = st.dictionaries(st.integers(0, 6), st.integers(1, 3), min_size=1, max_size=4)
_CONDITION = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


@st.composite
def repeating_dbs(draw):
    """Databases whose rules repeat conditions and whose slots repeat text.

    A condition comes back under another prediction, and a counter list
    under another ``(cc, index)`` head, as well as under the same one.
    A counter list also comes back with its counts in another insertion
    order, and as another list of the same total and size: its counts
    moved one context along, so ``{5: 1, 6: 2}`` beside ``{5: 2, 6: 1}``.
    """
    conditions = draw(st.lists(_CONDITION, min_size=1, max_size=3))
    counter_lists = draw(st.lists(_COUNTER_LIST, min_size=1, max_size=3))
    db = LookupDB()
    for _ in range(draw(st.integers(0, 8))):
        condition = draw(st.sampled_from(conditions))
        try:
            entry = db.add(condition, draw(st.integers(1, 3)), draw(st.floats(0.0, 1.0)))
        except ValueError:  # a (condition, prediction) pair drawn twice
            continue
        for _ in range(draw(st.integers(0, 3))):
            cc = draw(st.integers(0, 1))
            index = draw(st.integers(1 - len(condition), 0))
            items = list(draw(st.sampled_from(counter_lists)).items())
            how = draw(st.sampled_from(["same", "reordered", "counts-moved"]))
            if how == "reordered":
                items = draw(st.permutations(items))
            elif how == "counts-moved":
                ids, counts = zip(*items)
                items = zip(ids, counts[1:] + counts[:1])
            counts = dict(items)
            slot = ContextSlot(sum(counts.values()), counts)
            entry.slots.setdefault(slot_key(cc, index), slot)
    return db


def db_state(db):
    """Every entry's fields and slots, slots in their stored order."""
    return [
        (entry.entry_id, entry.condition, entry.prediction, entry.p, list(entry.slots.items()))
        for entry in db
    ]


def read_outcome(parse, text):
    """What ``parse`` makes of ``text``: its state, or its error's line and message."""
    try:
        db, alpha, theta = parse(text)
    except SnapshotFormatError as exc:
        return exc.line_no, str(exc)
    return alpha, theta, db_state(db)


@given(repeating_dbs(), st.sampled_from(["\n", "\r\n"]))
def test_dump_and_read_agree_with_the_uncached_ones(db, end):
    text = dump_snapshot(db, 0.8, 0.25)
    assert text == reference.dump_snapshot(db, 0.8, 0.25)
    text = text.replace("\n", end)
    loaded, alpha, theta = parse_snapshot(text)
    assert read_outcome(parse_snapshot, text) == read_outcome(reference.parse_snapshot, text)
    assert [entry.slots for entry in loaded] == [entry.slots for entry in db]
    assert_counting_one_rule_leaves_the_others(text)


def test_a_rejected_batch_leaves_every_mark_and_slot_as_it_was():
    db, _, _ = parse_snapshot(SHARED_COUNTERS)

    def state():
        return [(entry.shared, [(key, id(slot), slot.total, dict(slot.per_context))
                                for key, slot in entry.slots.items()])
                for entry in db]

    before = state()
    assert all(shared for shared, _ in before)
    # Entry 1 (length 1) fits the one-row table and comes first; entry 0
    # (length 2) does not, so the batch is rejected before anything moves.
    with pytest.raises(WindowRangeError, match="condition of length 2 is longer than the 1"):
        record_contexts([list(db)[1], list(db)[0]], [{0: 6, 1: 6}], slot_keys((0, 1), 1))
    assert state() == before


# A row of a context table: each classification's context, when known.
_TABLE_ROW = st.dictionaries(st.integers(0, 1), st.integers(0, 6), max_size=2)


@given(repeating_dbs(), st.data())
def test_counting_into_a_load_dumps_as_counting_into_the_uncached_load(db, data):
    text = dump_snapshot(db, 0.8, 0.25)
    loaded = parse_snapshot(text)[0]
    uncached = reference.parse_snapshot(text)[0]
    rules = len(loaded)
    for _ in range(data.draw(st.integers(1, 4))):
        last = max(rules - 1, 0)
        picked = data.draw(st.lists(st.integers(0, last), unique=True, max_size=rules))
        # Up to three rows: a batch with a rule longer than the table is
        # rejected by both.
        table = data.draw(st.lists(_TABLE_ROW, max_size=3))
        keys = slot_keys((0, 1), len(table))
        outcomes = []
        for each in (loaded, uncached):
            entries = list(each)
            try:
                record_contexts([entries[at] for at in picked], table, keys)
                outcomes.append(None)
            except WindowRangeError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert db_state(loaded) == db_state(uncached)
        assert dump_snapshot(loaded, 0.8, 0.25) == reference.dump_snapshot(uncached, 0.8, 0.25)


@given(repeating_dbs(), st.data())
def test_a_mutated_snapshot_reads_as_the_uncached_reader_reads_it(db, data):
    lines = dump_snapshot(db, 0.8, 0.25).splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["copy", "insert", "char", "rule"]))
    if how == "char":
        line = lines[at]
        pos = data.draw(st.integers(0, len(line) - 1))
        lines[at] = line[:pos] + data.draw(st.sampled_from(" 0123-:=xSE\t")) + line[pos + 1:]
    elif how == "rule":
        # An entry line takes the condition, prediction and p of any
        # entry line, its own included, and keeps its id.
        entries = [i for i, line in enumerate(lines) if line.startswith("E ")]
        if entries:
            at = data.draw(st.sampled_from(entries))
            rule = lines[data.draw(st.sampled_from(entries))].partition(" cond=")[2]
            lines[at] = f"{lines[at].partition(' cond=')[0]} cond={rule}"
    else:
        other = data.draw(st.sampled_from(lines))
        lines[at:at + (how == "copy")] = [other]
    text = "".join(lines)
    assert read_outcome(parse_snapshot, text) == read_outcome(reference.parse_snapshot, text)
