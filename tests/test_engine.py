"""Predictor engine: scoring, learning pipeline, extension."""

from __future__ import annotations

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import nextstep.engine
from nextstep import Engine, Observation, PredictorConfig
from nextstep.engine import ENGINE_MODES, EXTENSION_DIRECTIONS, context_fit, relevance_mean
from nextstep.errors import UnknownIdError, WindowRangeError
from nextstep.lookupdb import (
    ContextSlot,
    LookupDB,
    dump_snapshot,
    parse_snapshot,
    slot_key,
    slot_keys,
    split_slot_key,
)
from nextstep.window import ObservationWindow
from .reference import RefEngine, find_entry

ALPHA = 0.8
Q = 1.0 - ALPHA


def make_engine(**overrides):
    defaults = dict(steps=(1, 2, 3, 4), classifications=(0, 1))
    config_fields = {k: v for k, v in overrides.items()
                     if k not in ("steps", "classifications", "db")}
    for key in config_fields:
        overrides.pop(key)
    defaults.update(overrides)
    return Engine(PredictorConfig(**config_fields), **defaults)


def feed(engine, steps, contexts=None):
    """predict() before each learn(); returns the prediction list."""
    predictions = []
    for index, step in enumerate(steps):
        result = engine.predict()
        predictions.append(None if result is None else result.step)
        ctx = {} if contexts is None else contexts[index]
        engine.learn(Observation(step, ctx))
    return predictions


# -- configuration --------------------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(alpha=0.0), dict(alpha=1.0), dict(alpha=-0.1),
    dict(theta=-0.1), dict(theta=1.0),
    # A bool would pass the range checks as 0 or 1.
    dict(theta=False), dict(alpha=True),
    dict(window_capacity=1), dict(window_capacity=2.5),
    dict(engine_mode="magic"),
    dict(extension_direction="sideways"),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        PredictorConfig(**bad)


def test_config_defaults():
    config = PredictorConfig()
    assert (config.alpha, config.theta, config.window_capacity) == (0.8, 0.5, 10)
    assert config.engine_mode == "context"
    assert config.extension_direction == "append-observation"


def test_a_large_window_capacity_costs_nothing_at_construction():
    # Slot keys are built as pushes lengthen the window, not for every
    # position of the capacity before the first step.
    tracemalloc.start()
    try:
        engine = make_engine(window_capacity=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert feed(engine, [1, 2, 1, 2], [{0: 1}, {1: 2}, {0: 1}, {1: 2}]) == [
        None, None, None, 2]


@pytest.mark.parametrize("condition,prediction", [((1,), 9), ((9, 1), 2)])
def test_db_using_an_undeclared_step_is_rejected(condition, prediction):
    db = LookupDB()
    db.add((1,), 2, 0.5)
    db.add(condition, prediction, 0.9)
    with pytest.raises(UnknownIdError, match="entry 1 uses step 9"):
        Engine(PredictorConfig(), (1, 2), (), db)


def test_db_counting_an_undeclared_classification_is_rejected():
    db = LookupDB()
    db.add((1,), 2, 0.5)
    entry = db.add((2,), 1, 0.9)
    entry.slots[slot_key(0, 0)] = ContextSlot(3, {4: 3})
    entry.slots[slot_key(7, 0)] = ContextSlot(3, {4: 3})
    with pytest.raises(UnknownIdError, match="entry 1 uses classification 7, "
                       "which is not declared"):
        Engine(PredictorConfig(), (1, 2), (0, 1), db)
    assert Engine(PredictorConfig(), (1, 2), (0, 7), db).db is db


@pytest.mark.parametrize("step", [1.0, True])
@pytest.mark.parametrize("pair_rule_known", [False, True])
def test_learn_rejects_a_step_that_is_not_an_int_without_mutating(
    step, pair_rule_known
):
    engine = make_engine()
    feed(engine, [1, 2, 1, 2] if pair_rule_known else [1, 2])
    length, pushes = len(engine.window), engine.window.pushes
    before = dump_snapshot(engine.db, ALPHA, 0.5)
    with pytest.raises(UnknownIdError):
        engine.learn(Observation(step))
    assert (len(engine.window), engine.window.pushes) == (length, pushes)
    assert dump_snapshot(engine.db, ALPHA, 0.5) == before


# -- relevance scoring -----------------------------------------------------


def fit_of(slots, contexts, theta=0.5):
    """context_fit of a length-len(contexts) rule whose counters are
    ``slots``, against a window whose oldest-first context records are
    ``contexts``; classifications 0 and 1 are declared."""
    window = ObservationWindow(5, steps=(1,), classifications=(0, 1))
    for record in contexts:
        window.push(Observation(1, record))
    entry = LookupDB().add((1,) * len(contexts), 1, 0.5)
    entry.slots.update(slots)
    return context_fit(entry, window.context_table(), slot_keys((0, 1), 5), theta)


def test_relevance_of_no_evidence_is_one():
    assert relevance_mean(None) == 1.0


def test_relevance_with_nothing_above_threshold_is_zero():
    assert relevance_mean([]) == 0.0
    # weights 0.5, 0.0 and 0.25: evidence, none of it strong
    slots = {
        slot_key(0, -1): slot_of(5, 6),
        slot_key(1, -1): slot_of(5),
        slot_key(0, 0): slot_of(1, 2, 2, 2),
    }
    assert fit_of(slots, [{0: 5, 1: 6}, {0: 1}]) == []


def test_relevance_averages_only_weights_above_threshold():
    assert relevance_mean([0.9, 0.6]) == (0.9 + 0.6) / 2
    # weights 1.0, 0.25 and 2/3: the weak middle one is dropped
    slots = {
        slot_key(0, -1): slot_of(5),
        slot_key(1, -1): slot_of(1, 2, 2, 2),
        slot_key(0, 0): slot_of(4, 4, 3),
    }
    strong = fit_of(slots, [{0: 5, 1: 1}, {0: 4}])
    assert strong == [1.0, 2 / 3]
    assert relevance_mean(strong) == (1.0 + 2 / 3) / 2


def test_relevance_threshold_is_strict():
    # a weight equal to theta is not strong
    assert fit_of({slot_key(0, 0): slot_of(5, 6)}, [{0: 5}], theta=0.5) == []
    assert fit_of({slot_key(0, 0): slot_of(5, 6)}, [{0: 5}], theta=0.499999) == [0.5]


def test_no_evidence_scores_one_and_weak_evidence_vetoes():
    # None and [] differ: slots only where the window has no context
    # are no evidence at all, counted weak weights are a veto
    absent = fit_of({slot_key(1, 0): slot_of(5), slot_key(0, -1): slot_of(5)}, [{}, {0: 5}])
    assert absent is None
    assert relevance_mean(absent) == 1.0
    weak = fit_of({slot_key(0, 0): slot_of(5, 6)}, [{0: 5}])
    assert weak == []
    assert relevance_mean(weak) == 0.0
    assert fit_of({}, [{0: 5}]) is None


_SEEN = st.lists(st.integers(0, 3), min_size=1, max_size=6)


@st.composite
def positions_with_evidence(draw):
    """Oldest-first (window context record, counted contexts) pairs.

    One cell is forced where the window's context meets a counted slot,
    so that every example is evidence and none scores None.
    """
    positions = draw(
        st.lists(
            st.tuples(
                st.dictionaries(st.integers(0, 1), st.integers(0, 3), max_size=2),
                st.dictionaries(st.integers(0, 1), _SEEN, max_size=2),
            ),
            min_size=1,
            max_size=4,
        )
    )
    pos = draw(st.integers(0, len(positions) - 1))
    cc = draw(st.integers(0, 1))
    record, counted = positions[pos]
    positions[pos] = (
        {**record, cc: draw(st.integers(0, 3))},
        {**counted, cc: draw(_SEEN)},
    )
    return positions


@given(positions_with_evidence(), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_relevance_stays_within_unit_interval(positions, theta):
    # predict() stops scoring once p drops below the best fit * p, which
    # is only exact while no fit exceeds 1; positions run oldest first,
    # each a window context record and the rule's counted contexts
    slots = {
        slot_key(cc, pos + 1 - len(positions)): slot_of(*seen)
        for pos, (_, counted) in enumerate(positions)
        for cc, seen in counted.items()
    }
    strong = fit_of(slots, [record for record, _ in positions], theta)
    assert strong is not None
    assert 0.0 <= relevance_mean(strong) <= 1.0


def test_context_fit_reads_condition_positions():
    window = ObservationWindow(5, steps=(1, 2), classifications=(0, 1))
    window.push(Observation(1, {0: 7}))
    window.push(Observation(2, {0: 8, 1: 3}))
    db = LookupDB()
    entry = db.add((1, 2), 1, 0.5)
    entry.slots[slot_key(0, -1)] = slot_of(7)
    entry.slots[slot_key(0, 0)] = slot_of(8, 8, 9)
    got = context_fit(entry, window.context_table(), slot_keys((0, 1), 5), 0.5)
    # classification 1 at index -1 is absent from the window record and
    # the (1, 0) slot was never counted, so neither contributes; index
    # -1's weight comes before index 0's
    assert got == [1.0, 2 / 3]


def test_context_fit_counts_mismatching_context_as_zero_weight():
    window = ObservationWindow(5, steps=(1,), classifications=(0,))
    window.push(Observation(1, {0: 6}))
    db = LookupDB()
    entry = db.add((1,), 1, 0.5)
    entry.slots[slot_key(0, 0)] = slot_of(5)
    got = context_fit(entry, window.context_table(), slot_keys((0,), 5), 0.0)
    # one piece of evidence of weight 0, not strong even at theta 0:
    # hard veto
    assert got == []
    assert relevance_mean(got) == 0.0


def test_context_fit_rejects_a_condition_longer_than_the_table():
    window = ObservationWindow(5, steps=(1, 2, 3), classifications=(0,))
    window.push(Observation(3, {0: 5}))
    db = LookupDB()
    entry = db.add((2, 3), 1, 0.5)
    entry.slots[slot_key(0, 0)] = slot_of(5)
    with pytest.raises(WindowRangeError):
        context_fit(entry, window.context_table(), slot_keys((0,), 5), 0.5)


# -- prediction and ranking -------------------------------------------------


def test_no_matching_rule_means_no_prediction():
    engine = make_engine()
    assert engine.predict() is None
    engine.learn(Observation(1))
    assert engine.predict() is None


def test_higher_actual_p_wins():
    engine = make_engine()
    engine.learn(Observation(3))
    engine.db.add((3,), 1, 0.4)
    engine.db.add((3,), 2, 0.6)
    assert engine.predict().step == 2


def test_tie_prefers_shorter_condition():
    engine = make_engine()
    engine.learn(Observation(2))
    engine.learn(Observation(3))
    engine.db.add((2, 3), 1, 0.5)
    engine.db.add((3,), 4, 0.5)
    result = engine.predict()
    assert result.step == 4
    assert result.condition == (3,)


def test_tie_then_prefers_higher_raw_p():
    # 0.8 * 0.5 == 0.4 exactly, so both candidates tie on actualP
    engine = make_engine(theta=0.25)
    engine.learn(Observation(3, {0: 7}))
    strong = engine.db.add((3,), 1, 0.8)
    strong.slots[slot_key(0, 0)] = slot_of(7, 8)
    engine.db.add((3,), 2, 0.4)
    result = engine.predict()
    assert result.step == 1
    assert result.actual_p == 0.4


def test_final_tie_prefers_older_entry():
    engine = make_engine()
    engine.learn(Observation(3))
    engine.db.add((3,), 4, 0.5)
    engine.db.add((3,), 2, 0.5)
    assert engine.predict().step == 4


def test_baseline_mode_ignores_context_weights():
    window_contexts = {0: 7}
    for mode, expected in (("context", 2), ("baseline", 1)):
        engine = make_engine(engine_mode=mode)
        engine.learn(Observation(3, window_contexts))
        vetoed = engine.db.add((3,), 1, 0.9)
        vetoed.slots[slot_key(0, 0)] = slot_of(8)  # never saw context 7: weight 0, hard veto
        engine.db.add((3,), 2, 0.5)
        assert engine.predict().step == expected


def test_prediction_result_names_the_winning_entry():
    engine = make_engine()
    engine.learn(Observation(3))
    engine.db.add((3,), 1, 0.4)
    engine.db.add((3,), 2, 0.6)
    result = engine.predict()
    assert result.entry_id == 1


def test_a_prediction_result_is_read_only_and_keeps_its_fields():
    engine = make_engine()
    engine.learn(Observation(3))
    engine.db.add((3,), 2, 0.6)
    result = engine.predict()
    assert (result.step, result.actual_p, result.entry_id, result.condition) == (
        2, 0.6, 0, (3,))
    assert repr(result) == (
        "PredictionResult(step=2, actual_p=0.6, entry_id=0, condition=(3,))")
    for name in ("step", "actual_p", "entry_id", "condition"):
        with pytest.raises(AttributeError):
            setattr(result, name, None)
    assert result.step == 2


# -- the bounded scan ---------------------------------------------------------


def slot_of(*contexts):
    """Counters that have seen exactly these contexts."""
    return ContextSlot(len(contexts), dict(Counter(contexts)))


def test_vetoed_top_rule_yields_to_a_lower_p_rule():
    engine = make_engine()
    engine.learn(Observation(3, {0: 7}))
    top = engine.db.add((3,), 1, 0.9)
    top.slots[slot_key(0, 0)] = slot_of(8)  # never saw context 7: veto
    engine.db.add((3,), 2, 0.3)
    engine.db.add((3,), 4, 0.2)
    result = engine.predict()
    assert (result.step, result.actual_p) == (2, 0.3)


def test_rule_whose_p_equals_the_leading_actual_p_is_still_scored():
    # the leader's actual p is 0.5 * 0.8 == 0.4 exactly; the shorter
    # rule's p is also 0.4, so the scan must not stop there: it ties on
    # actual p and wins on condition length
    engine = make_engine(theta=0.25)
    engine.learn(Observation(2))
    engine.learn(Observation(3, {0: 7}))
    leader = engine.db.add((2, 3), 1, 0.8)
    leader.slots[slot_key(0, 0)] = slot_of(7, 8)
    engine.db.add((3,), 4, 0.4)
    result = engine.predict()
    assert (result.step, result.actual_p, result.condition) == (4, 0.4, (3,))


def test_scan_stops_once_no_rule_can_win(monkeypatch):
    engine = make_engine()
    engine.learn(Observation(3))
    engine.db.add((3,), 1, 0.9)
    for prediction in (2, 3, 4):
        engine.db.add((3,), prediction, 0.1)
    calls = []

    def counting_fit(*args):
        calls.append(args[0].entry_id)
        return context_fit(*args)

    monkeypatch.setattr(nextstep.engine, "context_fit", counting_fit)
    assert len(engine.db.matching_entries(engine.window)) == 4
    assert engine.predict().step == 1
    assert calls == [0]


# -- the frozen 2,3 cycle ----------------------------------------------------


def test_alternating_cycle_step_by_step():
    engine = make_engine(steps=(2, 3), classifications=())
    predictions = feed(engine, [2, 3, 2, 3, 2, 3])
    assert predictions == [None, None, None, 3, 2, 3]

    p36 = ALPHA * Q + Q
    expected = [
        ((2,), 3, ALPHA * p36 + Q),
        ((3,), 2, p36),
        ((2, 3), 3, ALPHA * Q),
        ((3, 2), 2, ALPHA * p36),
        ((2, 3, 2), 3, ALPHA * p36 + Q),
        ((3, 2, 3), 2, ALPHA * Q),
        ((2, 3, 2, 3), 3, ALPHA * Q),
    ]
    state = [(e.condition, e.prediction, e.p) for e in engine.db]
    assert state == expected
    assert all(e.slots == {} for e in engine.db)


def test_alternating_cycle_snapshot_bytes():
    engine = make_engine(steps=(2, 3), classifications=())
    feed(engine, [2, 3, 2, 3, 2, 3])
    assert dump_snapshot(engine.db, 0.8, 0.5) == (
        "LOOKUPDB v1 alpha=0.8 theta=0.5\n"
        "E 0 cond=2 pred=3 p=0.48799999999999993\n"
        "E 1 cond=3 pred=2 p=0.35999999999999993\n"
        "E 2 cond=2,3 pred=3 p=0.15999999999999998\n"
        "E 3 cond=3,2 pred=2 p=0.288\n"
        "E 4 cond=2,3,2 pred=3 p=0.48799999999999993\n"
        "E 5 cond=3,2,3 pred=2 p=0.15999999999999998\n"
        "E 6 cond=2,3,2,3 pred=3 p=0.15999999999999998\n"
    )


def test_three_step_cycle_locks_in_within_two_laps():
    engine = make_engine()
    cycle = [2, 3, 4] * 4
    predictions = feed(engine, cycle)
    assert predictions[6:] == cycle[6:]


# -- learning pipeline -------------------------------------------------------


def test_two_steps_store_exactly_the_pair_rule():
    engine = make_engine()
    feed(engine, [2, 3])
    assert len(engine.db) == 1
    entry = list(engine.db)[0]
    assert (entry.condition, entry.prediction) == ((2,), 3)
    assert entry.p == Q


def test_pair_rule_counts_its_creation_contexts():
    engine = make_engine()
    engine.learn(Observation(2, {0: 7, 1: 1}))
    engine.learn(Observation(3, {0: 7}))
    entry = find_entry(engine.db, (2,), 3)
    assert entry.slots[slot_key(0, 0)].per_context == {7: 1}
    assert entry.slots[slot_key(1, 0)].per_context == {1: 1}


def test_learn_without_open_prediction_reports_none():
    engine = make_engine()
    assert engine.learn(Observation(1)) is None


def test_learn_scores_and_clears_the_open_prediction():
    engine = make_engine()
    feed(engine, [2, 3, 2])
    assert engine.predict().step == 3
    assert engine.learn(Observation(3)) is True
    # no predict() since: nothing to score
    assert engine.learn(Observation(2)) is None


def test_wrong_prediction_is_reported_and_decays_p():
    engine = make_engine()
    feed(engine, [2, 3, 2])
    assert engine.predict().step == 3
    assert engine.learn(Observation(4)) is False
    assert find_entry(engine.db, (2,), 3).p == ALPHA * Q


def test_context_updates_only_on_hits():
    engine = make_engine()
    engine.learn(Observation(1, {0: 5}))
    engine.learn(Observation(2, {0: 5}))
    wrong = engine.db.add((2,), 4, 0.5)
    engine.learn(Observation(1, {0: 5}))
    right = find_entry(engine.db, (2,), 1)
    assert wrong.p == ALPHA * 0.5
    assert wrong.slots == {}
    # the freshly added pair rule counted its creation event only
    assert right.slots[slot_key(0, 0)].per_context == {5: 1}


# -- extension ----------------------------------------------------------------


def test_extension_needs_a_correct_prediction():
    engine = make_engine()
    feed(engine, [2, 3, 2])
    engine.predict()
    engine.learn(Observation(4))  # wrong: no growth
    assert all(len(e.condition) == 1 for e in engine.db)


def test_appended_child_keeps_prediction_and_adds_observed_step():
    engine = make_engine()
    feed(engine, [2, 3, 2, 3])
    child = find_entry(engine.db, (2, 3), 3)
    assert child is not None
    assert child.p == Q  # inherited from the only donor, (3,)->2 at p=q


def test_extension_children_start_with_empty_counters():
    engine = make_engine()
    contexts = [{0: 7, 1: 1}] * 4
    feed(engine, [1, 2, 1, 2], contexts)
    parent = find_entry(engine.db, (1,), 2)
    child = find_entry(engine.db, (1, 2), 2)
    assert parent.slots != {}
    assert child is not None
    assert child.slots == {}


def test_wrong_but_matching_rules_also_spawn_children_by_default():
    engine = make_engine()
    feed(engine, [2, 3, 2, 3])
    # matches the next event and predicts wrongly, but scores too low
    # to steal the prediction itself
    engine.db.add((3,), 4, 0.1)
    engine.predict()
    engine.learn(Observation(2))
    assert find_entry(engine.db, (3, 2), 4) is not None


def test_extension_skips_existing_children():
    engine = make_engine(steps=(2, 3), classifications=())
    feed(engine, [2, 3, 2, 3, 2, 3, 2, 3])
    pairs = [(e.condition, e.prediction) for e in engine.db]
    assert len(pairs) == len(set(pairs))


@pytest.mark.parametrize("capacity", [2, 5])
@pytest.mark.parametrize("direction", ["append-observation", "extend-into-past"])
def test_extension_stops_one_step_short_of_the_window(direction, capacity):
    # a child is a suffix of the window that still leaves an older step
    # to prepend, so both directions stop at capacity - 1
    engine = make_engine(window_capacity=capacity, steps=(2, 3), classifications=(),
                         extension_direction=direction)
    feed(engine, [2, 3] * 10)
    assert max(len(e.condition) for e in engine.db) == capacity - 1


def test_into_past_child_prepends_the_older_step():
    engine = make_engine(extension_direction="extend-into-past")
    feed(engine, [1, 2, 3, 1, 2, 3, 1, 2, 3])
    assert find_entry(engine.db, (1, 2), 3) is not None
    # children grow backwards only, never toward the predicted step
    assert find_entry(engine.db, (2, 3), 3) is None


@pytest.mark.parametrize("direction", ["append-observation", "extend-into-past"])
def test_child_condition_taken_by_another_prediction_still_grows(direction):
    # After 2 3 2 the rule (2,)->3 predicts 3, and observing 3 extends
    # it.  Its child's condition is already stored predicting 4, so a
    # child looked up by length alone would be skipped.
    child = (2, 3) if direction == "append-observation" else (3, 2)
    engine = make_engine(extension_direction=direction)
    shadow = make_shadow(direction=direction)

    def add_rival(t):
        if t == 3:
            engine.db.add(child, 4, 0.5)
            shadow.entries.append({"cond": child, "pred": 4, "p": 0.5, "slots": {}})

    events = [(2, {}), (3, {}), (2, {}), (3, {})]
    events += random_events(random.Random(26), 60)
    run_lockstep(engine, shadow, events[:4], between=add_rival)
    assert find_entry(engine.db, child, 3) is not None
    assert find_entry(engine.db, child, 4) is not None
    run_lockstep(engine, shadow, events[4:])


def mature(engine, lap, contexts=None):
    """Feed ``lap`` until a whole lap stores no rule."""
    for _ in range(300):
        size = len(engine.db)
        feed(engine, lap, contexts)
        if len(engine.db) == size:
            return
    pytest.fail("the rule database never stopped growing")


def test_a_mature_correct_step_extends_without_probing_the_db(monkeypatch):
    engine = make_engine(steps=(1, 2, 3), classifications=())
    lap = [1, 2, 3]
    mature(engine, lap)
    inside = []
    probes = []
    learned = []
    original_learn = Engine.learn

    def counting(name):
        original = getattr(LookupDB, name)

        def wrapper(db, *args):
            if inside:
                probes.append((name, args))
            return original(db, *args)
        return wrapper

    def tracking_learn(self, *args):
        inside.append(True)
        try:
            learned.append(original_learn(self, *args))
            return learned[-1]
        finally:
            inside.pop()

    for name in ("add", "add_on_path", "matching_entries"):
        monkeypatch.setattr(LookupDB, name, counting(name))
    monkeypatch.setattr(Engine, "learn", tracking_learn)
    size = len(engine.db)
    assert feed(engine, lap * 10) == lap * 10
    assert len(engine.db) == size
    assert learned == [True] * 30
    assert probes == []


@pytest.mark.parametrize("direction", ["append-observation", "extend-into-past"])
def test_a_mature_correct_step_neither_inherits_nor_grows(monkeypatch, direction):
    # Every parent already has its child, so no p is inherited and the
    # growth step is never entered.
    engine = make_engine(steps=(1, 2, 3), classifications=(),
                         extension_direction=direction)
    lap = [1, 2, 3]
    mature(engine, lap)
    calls = Counter()

    def counting(name):
        original = getattr(Engine, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for name in ("_inherited_p", "_extend"):
        monkeypatch.setattr(Engine, name, counting(name))
    assert feed(engine, lap * 10) == lap * 10
    assert calls == Counter()


def test_one_call_counts_every_rule_that_predicted_the_step_and_the_pair_rule(
    monkeypatch,
):
    # Two rules predict 2 and one predicts 3 after 4 3 1; observing 2
    # also stores the pair rule (1,)->2.  The children grown on this
    # correct step start with empty counters and are not counted.
    db = LookupDB()
    short = db.add((3, 1), 2, 0.5)
    db.add((1,), 3, 0.3)
    long = db.add((4, 3, 1), 2, 0.4)
    engine = make_engine(db=db)
    for step in (4, 3, 1):
        engine.window.push(Observation(step, {0: step}))
    calls = []
    original = nextstep.engine.record_contexts

    def recording(entries, table, keys):
        calls.append(list(entries))
        return original(entries, table, keys)

    monkeypatch.setattr(nextstep.engine, "record_contexts", recording)
    assert engine.predict().step == 2
    assert engine.learn(Observation(2, {0: 2})) is True
    pair = find_entry(engine.db, (1,), 2)
    assert [[entry.entry_id for entry in call] for call in calls] == [
        [short.entry_id, long.entry_id, pair.entry_id]
    ]
    assert pair.slots[slot_key(0, 0)].per_context == {1: 1}
    assert len(engine.db) > 4
    assert all(entry.slots == {} for entry in list(engine.db)[4:])


@pytest.mark.parametrize("direction", ["append-observation", "extend-into-past"])
def test_children_inherit_p_from_rules_older_than_the_fresh_pair_rule(direction):
    # The step repeats (previous == step), so the fresh pair rule (1,)->1
    # matches the window after the push.  Its p = 1 - alpha must not
    # reach the children: they inherit from the rules that matched that
    # window before it was stored, here only (1,)->3 at ALPHA * 0.16.
    db = LookupDB()
    db.add((2, 1), 1, 0.5)
    db.add((1,), 3, 0.16)
    engine = make_engine(steps=(1, 2, 3), classifications=(), db=db,
                         extension_direction=direction)
    for step in (3, 2, 1):
        engine.window.push(Observation(step))
    assert engine.predict().step == 1
    assert engine.learn(Observation(1)) is True
    assert find_entry(engine.db, (1,), 1).p == Q
    assert len(engine.db) == 5
    children = list(engine.db)[3:5]
    if direction == "append-observation":
        assert [(c.condition, c.prediction) for c in children] == [
            ((2, 1, 1), 1), ((1, 1), 3)]
    else:
        assert [(c.condition, c.prediction) for c in children] == [
            ((3, 2, 1), 1), ((2, 1), 3)]
    assert [c.p for c in children] == [ALPHA * 0.16] * 2


@pytest.mark.parametrize("direction", ["append-observation", "extend-into-past"])
def test_children_take_ids_in_their_parents_id_order(direction):
    # The walk yields the length-1 rule before the older length-3 rule,
    # and both grow on the correct step: the older parent's child must
    # still be stored first.
    db = LookupDB()
    db.add((1, 2, 3), 4, 0.5)
    db.add((3,), 4, 0.5)
    engine = make_engine(steps=(1, 2, 3, 4), classifications=(), db=db,
                         extension_direction=direction)
    for step in (4, 1, 2, 3):
        engine.window.push(Observation(step))
    assert [e.entry_id for e in engine.db.walk(engine.window)[0]] == [1, 0]
    assert engine.predict().step == 4
    assert engine.learn(Observation(4)) is True
    children = [(c.condition, c.prediction) for c in list(engine.db)[2:]]
    if direction == "append-observation":
        assert children == [((1, 2, 3, 4), 4), ((3, 4), 4)]
    else:
        assert children == [((4, 1, 2, 3), 4), ((2, 3), 4)]


@pytest.mark.parametrize("direction,child", [
    ("append-observation", (1, 2)), ("extend-into-past", (3, 1)),
], ids=["append-observation", "extend-into-past"])
def test_children_with_no_rule_to_inherit_from_start_at_one_minus_alpha(direction, child):
    # After the push the window ends in 2, and no rule's condition ends
    # in 2, so the child starts at 1 - alpha, the p of a fresh pair rule.
    db = LookupDB()
    db.add((1,), 2, 0.5)
    engine = make_engine(steps=(1, 2, 3), classifications=(), db=db,
                         extension_direction=direction)
    shadow = make_shadow(classifications=(), direction=direction)
    shadow.entries = [{"cond": (1,), "pred": 2, "p": 0.5, "slots": {}}]
    run_lockstep(engine, shadow, [(3, {}), (1, {})])
    assert engine.predict().step == shadow.predict()[0] == 2
    assert engine.learn(Observation(2)) is shadow.learn(2, {}) is True
    assert engine_state(engine) == shadow.state()
    assert find_entry(engine.db, child, 2).p == 1.0 - ALPHA


# -- baseline equivalence --------------------------------------------------------


def test_baseline_equals_relevance_forced_to_one(monkeypatch):
    from nextstep.scenarios import generate_trace
    from nextstep.evaluation import derive_universes, metrics_to_csv, run_trace

    trace = generate_trace("mix", 8, 2, seed=3)
    baseline_engine, baseline_rows = run_trace(
        trace, PredictorConfig(engine_mode="baseline")
    )
    monkeypatch.setattr(
        nextstep.engine, "relevance_mean", lambda strong: 1.0
    )
    shadow_engine, shadow_rows = run_trace(
        trace, PredictorConfig(engine_mode="context")
    )
    assert metrics_to_csv(baseline_rows) == metrics_to_csv(shadow_rows)
    assert dump_snapshot(baseline_engine.db, 0.8, 0.5) == dump_snapshot(
        shadow_engine.db, 0.8, 0.5
    )


# -- equivalence with the brute-force shadow ---------------------------------------


def engine_state(engine):
    """RefEngine.state() of the engine: slot keys as (cc, index) pairs."""
    out = []
    for entry in engine.db:
        slots = {split_slot_key(key): dict(sorted(slot.per_context.items()))
                 for key, slot in sorted(entry.slots.items()) if slot.total}
        out.append((entry.condition, entry.prediction, entry.p, slots))
    return out


def random_events(rng, count, classifications=(0, 1)):
    events = []
    for _ in range(count):
        contexts = {cc: rng.randrange(4) for cc in classifications
                    if rng.random() < 0.8}
        events.append((rng.randint(1, 4), contexts))
    return events


def make_shadow(capacity=10, classifications=(0, 1), alpha=0.8, theta=0.5,
                **overrides):
    return RefEngine(alpha=alpha, theta=theta, capacity=capacity,
                     classifications=classifications, **overrides)


def run_lockstep(engine, shadow, events, between=None, skip_predict=()):
    """Drive engine and shadow through the same events, comparing each
    prediction and score.  ``between(t)`` runs after step t's predict()
    and before its learn(); steps in ``skip_predict`` call learn() only."""
    for t, (step, contexts) in enumerate(events):
        if t not in skip_predict:
            mine = engine.predict()
            theirs = shadow.predict()
            if mine is None:
                assert theirs is None
            else:
                assert theirs == (mine.step, mine.actual_p, mine.entry_id)
        if between is not None:
            between(t)
        correct = engine.learn(Observation(step, contexts))
        assert correct == shadow.learn(step, contexts)
    assert engine_state(engine) == shadow.state()


SHADOW_COMBOS = list(itertools.product(
    ("context", "baseline"),
    ("append-observation", "extend-into-past"),
))

# Every combination at three window capacities with the default alpha
# and theta, then at capacity 5 with a faster decay and a lower
# relevance threshold.
SHADOW_CASES = [
    pytest.param(
        *combo, capacity, 0.8, 0.5,
        id="-".join(combo) + ("" if capacity == 5 else f"-capacity{capacity}"),
    )
    for capacity in (5, 3, 2)
    for combo in SHADOW_COMBOS
] + [
    pytest.param(*combo, 5, 0.6, 0.25,
                 id="-".join(combo) + "-alpha0.6-theta0.25")
    for combo in SHADOW_COMBOS
]


@pytest.mark.parametrize("mode,direction,capacity,alpha,theta", SHADOW_CASES)
def test_engine_agrees_with_shadow_reimplementation(mode, direction, capacity,
                                                    alpha, theta):
    for seed in (11, 12, 13):
        rng = random.Random(seed)
        config = PredictorConfig(
            alpha=alpha,
            theta=theta,
            engine_mode=mode,
            extension_direction=direction,
            window_capacity=capacity,
        )
        engine = Engine(config, steps=(1, 2, 3, 4), classifications=(0, 1))
        shadow = make_shadow(capacity, alpha=alpha, theta=theta, mode=mode,
                             direction=direction)
        run_lockstep(engine, shadow, random_events(rng, 140))


@pytest.mark.parametrize("capacity", [5, 2])
@pytest.mark.parametrize("mode", ["context", "baseline"])
def test_sparse_classifications_declared_out_of_order_agree_with_shadow(
    monkeypatch, mode, capacity
):
    # Slot keys are premade per position from the sorted classifications;
    # sparse ids declared out of order catch a table built in declaration
    # order or at the wrong position.  Every scored rule's strong weights,
    # in order, must equal those of the shadow's evidence.
    classifications = (9, 3, 5)
    scored = []
    compared = 0

    def recording_fit(entry, table, keys, theta):
        strong = context_fit(entry, table, keys, theta)
        scored.append((entry.entry_id, strong))
        return strong

    def compare_evidence(t):
        nonlocal compared
        for entry_id, strong in scored:
            evidence = shadow.evidence(shadow.entries[entry_id])
            if evidence:
                assert strong == [w for *_, w in evidence if w > shadow.theta]
            else:
                assert strong is None
            compared += strong is not None and len(strong) > 1
        scored.clear()

    monkeypatch.setattr(nextstep.engine, "context_fit", recording_fit)
    for seed in (31, 32, 33):
        rng = random.Random(seed)
        config = PredictorConfig(engine_mode=mode, window_capacity=capacity)
        engine = Engine(config, steps=(1, 2, 3, 4), classifications=classifications)
        shadow = make_shadow(capacity, classifications, mode=mode)
        run_lockstep(engine, shadow, random_events(rng, 140, classifications),
                     between=compare_evidence)
    assert (compared > 0) == (mode == "context")


def test_context_fit_weights_equal_the_slot_weights(monkeypatch):
    # context_fit computes ContextSlot.weight inline; every weight it
    # returns must be exactly the slot weight of its cell, in cell order.
    classifications = (9, 3, 5)
    checked = 0

    def checking_fit(entry, table, keys, theta):
        nonlocal checked
        strong = context_fit(entry, table, keys, theta)
        expected = []
        for pos in range(len(entry.condition) - 1, -1, -1):
            for cc in sorted(classifications):
                slot = entry.slots.get(slot_key(cc, -pos))
                if cc in table[pos] and slot is not None:
                    expected.append(slot.weight(table[pos][cc]))
        assert strong == ([w for w in expected if w > theta] if expected else None)
        checked += len(strong or ())
        return strong

    monkeypatch.setattr(nextstep.engine, "context_fit", checking_fit)
    rng = random.Random(34)
    engine = Engine(PredictorConfig(), steps=(1, 2, 3, 4), classifications=classifications)
    for step, contexts in random_events(rng, 400, classifications):
        engine.predict()
        engine.learn(Observation(step, contexts))
    assert checked > 100


# -- one match lookup per window state ------------------------------------------


WINDOW_LENGTH_SNAPSHOT = """LOOKUPDB v1 alpha=0.8 theta=0.5
E 0 cond=1,2,3 pred=1 p=0.5
E 1 cond=1,2,3 pred=4 p=0.5
"""


@pytest.mark.parametrize("source", ["db.add", "v1-snapshot"])
def test_window_length_rules_are_reinforced_decayed_and_counted(source):
    # Extension never grows a rule as long as the window, but one added
    # by hand or loaded from an older snapshot matches a full window and
    # learns from it like any other rule.
    if source == "db.add":
        db = LookupDB()
        db.add((1, 2, 3), 1, 0.5)
        db.add((1, 2, 3), 4, 0.5)
    else:
        db = parse_snapshot(WINDOW_LENGTH_SNAPSHOT)[0]
    engine = make_engine(window_capacity=3, db=db)
    shadow = make_shadow(3)
    shadow.entries = [{"cond": (1, 2, 3), "pred": pred, "p": 0.5, "slots": {}}
                      for pred in (1, 4)]
    hit, miss = list(engine.db)[:2]
    events = [(step, {0: step, 1: 0}) for step in (1, 2, 3, 1)]
    run_lockstep(engine, shadow, events)
    assert hit.p == ALPHA * 0.5 + Q
    assert miss.p == ALPHA * 0.5
    assert {key: slot.per_context for key, slot in hit.slots.items()} == {
        slot_key(0, -2): {1: 1}, slot_key(0, -1): {2: 1}, slot_key(0, 0): {3: 1},
        slot_key(1, -2): {0: 1}, slot_key(1, -1): {0: 1}, slot_key(1, 0): {0: 1},
    }
    run_lockstep(engine, shadow, random_events(random.Random(21), 200))
    assert sum(slot.total for slot in hit.slots.values()) > 6


def test_learn_without_predict_matches_afresh():
    engine = make_engine()
    shadow = make_shadow()
    events = random_events(random.Random(22), 200)
    run_lockstep(engine, shadow, events, skip_predict=set(range(0, 200, 3)))


def test_rule_added_between_predict_and_learn_is_updated():
    engine = make_engine()
    shadow = make_shadow()
    added = []

    def add_rule(t):
        # the newest window steps as a still-unknown rule, longest first,
        # up to the whole window: every one of them matched before the push
        for length in range(len(engine.window), 0, -1):
            condition = tuple(engine.window.step_at(i) for i in range(1 - length, 1))
            for prediction in (1, 2, 3, 4):
                if find_entry(engine.db, condition, prediction) is None:
                    engine.db.add(condition, prediction, 0.5)
                    shadow.entries.append(
                        {"cond": condition, "pred": prediction, "p": 0.5, "slots": {}}
                    )
                    added.append(list(engine.db)[-1])
                    return

    run_lockstep(engine, shadow, random_events(random.Random(23), 120),
                 between=lambda t: t % 5 == 4 and add_rule(t))
    assert added and all(entry.p != 0.5 for entry in added)


def test_push_between_predict_and_learn_is_seen():
    engine = make_engine()
    shadow = make_shadow()
    extra = random_events(random.Random(24), 200)

    def push(t):
        step, contexts = extra[t]
        engine.window.push(Observation(step, contexts))
        shadow.win.append((step, dict(contexts)))
        if len(shadow.win) > shadow.capacity:
            shadow.win.pop(0)

    run_lockstep(engine, shadow, random_events(random.Random(25), 200),
                 between=lambda t: t % 4 == 1 and push(t))


def test_db_swapped_between_predict_and_learn_is_the_one_updated():
    engine = make_engine()
    twin = make_engine()
    feed(engine, [1, 2, 3] * 4)
    feed(twin, [1, 2, 3] * 4)
    assert engine.predict().step == 1
    assert twin.predict().step == 1
    old_db = engine.db
    engine.db = parse_snapshot(dump_snapshot(old_db, ALPHA, 0.5))[0]
    assert len(engine.db) == len(old_db)
    before = dump_snapshot(old_db, ALPHA, 0.5)
    assert engine.learn(Observation(1)) is twin.learn(Observation(1)) is True
    assert dump_snapshot(old_db, ALPHA, 0.5) == before
    assert dump_snapshot(engine.db, ALPHA, 0.5) == dump_snapshot(twin.db, ALPHA, 0.5)
    assert dump_snapshot(engine.db, ALPHA, 0.5) != before


def test_window_swapped_between_predict_and_learn_is_matched():
    engine = make_engine(classifications=())
    feed(engine, [1, 2])
    assert engine.predict() is None  # nothing follows 2 yet
    window = ObservationWindow(engine.window.capacity, engine.steps)
    for step in (3, 1):
        window.push(Observation(step))
    assert window.pushes == engine.window.pushes
    engine.window = window
    engine.learn(Observation(2))
    assert find_entry(engine.db, (1,), 2).p == ALPHA * Q + Q


@pytest.mark.parametrize("direction", ["append-observation", "extend-into-past"])
def test_a_mature_step_looks_the_window_up_once(monkeypatch, direction):
    engine = make_engine(steps=(1, 2, 3), classifications=(),
                         extension_direction=direction)
    lap = [1, 2, 3]
    mature(engine, lap)
    calls = []
    original = LookupDB.walk

    def counting(db, window, offset=0):
        calls.append(offset)
        return original(db, window, offset)

    # matching_entries() walks through walk() too, so this counts every
    # trie walk, whichever of the two the engine calls.
    monkeypatch.setattr(LookupDB, "walk", counting)
    size = len(engine.db)
    predictions = feed(engine, lap * 10)
    assert predictions == lap * 10
    assert len(engine.db) == size
    assert calls == [0] * 30


@pytest.mark.parametrize("direction", ["append-observation", "extend-into-past"])
def test_a_mature_context_step_reads_the_context_table_once(monkeypatch, direction):
    engine = make_engine(steps=(1, 2, 3), classifications=(0,),
                         extension_direction=direction)
    lap = [1, 2, 3]
    contexts = [{0: step} for step in lap]
    mature(engine, lap, contexts)
    calls = []
    original = ObservationWindow.context_table

    def counting(window):
        calls.append(window)
        return original(window)

    monkeypatch.setattr(ObservationWindow, "context_table", counting)
    size = len(engine.db)
    predictions = feed(engine, lap * 10, contexts * 10)
    assert predictions == lap * 10
    assert len(engine.db) == size
    assert calls == [engine.window] * 30


@pytest.mark.parametrize("mode", ENGINE_MODES)
@pytest.mark.parametrize("direction", EXTENSION_DIRECTIONS)
def test_the_state_a_step_reads_is_never_stale(mode, direction):
    # learn() grows the memoised walk path in place when it stores a
    # rule; the memo must be read again before anything uses it.  The
    # run of 3s makes extend-into-past children that also match the
    # window after the push.
    engine = make_engine(engine_mode=mode, extension_direction=direction)
    rng = random.Random(11)
    lap = itertools.cycle((1, 2, 3, 3, 3, 1, 4))
    stored_on_a_correct_step = 0
    for _ in range(120):
        step = next(lap) if rng.random() < 0.8 else rng.randint(1, 4)
        engine.predict()
        size = len(engine.db)
        correct = engine.learn(Observation(step, {0: rng.randrange(3)}))
        stored_on_a_correct_step += correct is True and len(engine.db) > size
        entries, path, table = engine._state()
        fresh_entries, fresh_path = engine.db.walk(engine.window)
        assert list(map(id, entries)) == list(map(id, fresh_entries))
        assert list(map(id, path)) == list(map(id, fresh_path))
        assert table == engine.window.context_table()
    assert stored_on_a_correct_step > 0
    assert {len(entry.condition) for entry in engine.db} > {1}


def test_counters_stay_conserved_on_random_traffic():
    rng = random.Random(5)
    engine = make_engine()
    for step, contexts in random_events(rng, 600):
        engine.predict()
        engine.learn(Observation(step, contexts))
    # A slot exists only once something was counted: no code path scores
    # or dumps a slot with total 0 or a context counted 0 times.
    reloaded, _, _ = parse_snapshot(dump_snapshot(engine.db, ALPHA, 0.5))
    for db in (engine.db, reloaded):
        for entry in db:
            for slot in entry.slots.values():
                assert slot.total == sum(slot.per_context.values())
                assert slot.total >= 1
                assert all(count >= 1 for count in slot.per_context.values())
