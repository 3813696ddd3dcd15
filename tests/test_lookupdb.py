"""Rule table: entries, counters, matching, probability updates."""

from __future__ import annotations

import copy
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from nextstep import Engine, Observation, PredictorConfig
from nextstep.engine import EXTENSION_DIRECTIONS
from nextstep.errors import WindowRangeError
from nextstep.lookupdb import (
    LookupDB,
    condition_matches,
    dump_snapshot,
    parse_snapshot,
    record_contexts,
    slot_key,
    slot_keys,
    split_slot_key,
)
from nextstep.window import ObservationWindow
from .reference import (
    brute_match,
    closed_form_correct,
    closed_form_incorrect,
    find_entry,
)


def window_from(steps, universe=(1, 2, 3, 4), capacity=10):
    window = ObservationWindow(capacity, steps=universe, classifications=(0, 1))
    for step in steps:
        window.push(Observation(step))
    return window


# -- probability update ------------------------------------------------


def learned_p(p0, alpha, k, hit):
    """p of a hand-made rule (3,)->1 after Engine.learn fed it k hits
    (3, 1, 3, 1, ...) or k misses (3, 2, 3, 2, ...).

    No predict() runs, so nothing extends and only the learn() update
    moves the rule's p.
    """
    engine = Engine(PredictorConfig(alpha=alpha), steps=(1, 2, 3))
    entry = engine.db.add((3,), 1, p0)
    for _ in range(k):
        engine.learn(Observation(3))
        engine.learn(Observation(1 if hit else 2))
    return entry.p


def test_update_moves_toward_one_on_correct():
    assert learned_p(0.5, 0.8, 1, hit=True) == pytest.approx(0.6)


def test_update_decays_on_incorrect():
    assert learned_p(0.5, 0.8, 1, hit=False) == pytest.approx(0.4)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_update_stays_in_unit_interval(p, alpha):
    assert 0.0 <= learned_p(p, alpha, 1, hit=True) <= 1.0
    assert 0.0 <= learned_p(p, alpha, 1, hit=False) <= 1.0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=1, max_value=30))
def test_update_iterates_to_the_closed_forms(p0, alpha, k):
    up = learned_p(p0, alpha, k, hit=True)
    down = learned_p(p0, alpha, k, hit=False)
    assert up == pytest.approx(closed_form_correct(p0, alpha, k), abs=1e-12)
    assert down == pytest.approx(closed_form_incorrect(p0, alpha, k), abs=1e-12)


# -- context slots ------------------------------------------------------


_SLOT_PAIRS = st.tuples(st.integers(0, 2**40), st.integers(-10**6, 0))


@given(_SLOT_PAIRS, _SLOT_PAIRS)
def test_slot_keys_invert_exactly_and_sort_as_their_pairs(a, b):
    assert split_slot_key(slot_key(*a)) == a
    assert (slot_key(*a) < slot_key(*b)) == (a < b)
    assert (slot_key(*a) == slot_key(*b)) == (a == b)


def test_slot_key_holds_the_lowest_index_in_its_32_bits():
    lowest = -(2**32 - 1)
    assert split_slot_key(slot_key(7, lowest)) == (7, lowest)
    assert slot_key(6, 0) < slot_key(7, lowest) < slot_key(7, 0)


def count_contexts(*contexts):
    """The (0, 0) slot of a length-1 rule counted once per context."""
    entry = LookupDB().add((1,), 2, 0.5)
    keys = slot_keys((0,), 5)
    for ctx in contexts:
        record_contexts([entry], [{0: ctx}], keys)
    return entry.slots[slot_key(0, 0)]


def test_slot_records_and_weighs():
    slot = count_contexts(5, 5, 7)
    assert slot.total == 3
    assert slot.weight(5) == pytest.approx(2 / 3)
    assert slot.weight(7) == pytest.approx(1 / 3)
    assert slot.weight(9) == 0.0


def test_slot_consistency():
    slot = count_contexts(1, 1, 2, 3)
    assert slot.total == sum(slot.per_context.values())
    assert slot.per_context == {1: 2, 2: 1, 3: 1}


# -- add ----------------------------------------------------------------


def test_add_assigns_dense_ids():
    db = LookupDB()
    a = db.add((1,), 2, 0.2)
    b = db.add((1, 2), 3, 0.2)
    assert (a.entry_id, b.entry_id) == (0, 1)
    assert list(db)[1].condition == (1, 2)


def test_add_keeps_predictions_apart():
    db = LookupDB()
    db.add((1,), 2, 0.2)
    db.add((1,), 3, 0.4)
    assert find_entry(db, (1,), 2).p == pytest.approx(0.2)
    assert find_entry(db, (1,), 3).p == pytest.approx(0.4)
    assert find_entry(db, (1,), 4) is None
    assert find_entry(db, (2,), 2) is None


def test_duplicate_add_rejected():
    db = LookupDB()
    db.add((1,), 2, 0.2)
    with pytest.raises(ValueError):
        db.add((1,), 2, 0.9)


def test_add_validates_inputs():
    db = LookupDB()
    with pytest.raises(ValueError):
        db.add((), 2, 0.2)
    with pytest.raises(ValueError):
        db.add((1,), 2, 1.5)


def test_add_names_the_first_bad_id_in_a_condition():
    db = LookupDB()
    with pytest.raises(ValueError, match=r"step id -3 must be a non-negative int"):
        db.add((1, -3, 2, -5), 2, 0.5)
    with pytest.raises(ValueError, match=r"step id -7 "):
        db.add((1, 2), -7, 0.5)
    assert len(db) == 0
    assert find_entry(db, (1, -3, 2, -5), 2) is None


@pytest.mark.parametrize("condition,prediction", [((1, True), 2), ((1,), True)])
def test_add_rejects_a_bool_step(condition, prediction):
    db = LookupDB()
    with pytest.raises(ValueError, match=r"step id True "):
        db.add(condition, prediction, 0.5)
    assert len(db) == 0


@pytest.mark.parametrize("p", [True, False])
def test_add_rejects_a_bool_p(p):
    # a bool p would be dumped as p=True, which no snapshot reader takes
    db = LookupDB()
    with pytest.raises(ValueError, match=rf"probability {p} must be a float"):
        db.add((2,), 3, p)
    assert len(db) == 0
    assert find_entry(db, (2,), 3) is None


@pytest.mark.parametrize("p,text", [(1, "p=1.0"), (0, "p=0.0")])
def test_add_stores_an_int_p_as_a_float(p, text):
    # an int p dumped as p=1 would reload as 1.0 and dump differently
    db = LookupDB()
    entry = db.add((1,), 2, p)
    assert type(entry.p) is float and entry.p == p
    snapshot = dump_snapshot(db, 0.8, 0.5)
    assert snapshot.endswith(f" {text}\n")
    assert dump_snapshot(parse_snapshot(snapshot)[0], 0.8, 0.5) == snapshot


# -- matching ------------------------------------------------------------


def test_match_at_offset_zero():
    db = LookupDB()
    entry = db.add((2, 3), 4, 0.5)
    assert condition_matches(entry, window_from([1, 2, 3]), 0)
    assert not condition_matches(entry, window_from([2, 3, 1]), 0)


def test_match_at_offset_one():
    db = LookupDB()
    entry = db.add((2, 3), 4, 0.5)
    assert condition_matches(entry, window_from([2, 3, 1]), 1)
    assert not condition_matches(entry, window_from([2, 3, 1]), 0)


def test_match_is_total_when_window_is_short():
    db = LookupDB()
    entry = db.add((1, 2, 3), 4, 0.5)
    assert not condition_matches(entry, window_from([2, 3]), 0)
    assert not condition_matches(entry, window_from([1, 2, 3]), 1)


def test_matching_entries_ids_are_sorted():
    db = LookupDB()
    db.add((3,), 1, 0.5)
    db.add((2, 3), 1, 0.5)
    db.add((3,), 2, 0.5)
    window = window_from([1, 2, 3])
    assert [e.entry_id for e in db.matching_entries(window, 0)] == [0, 1, 2]
    # The walk itself yields trie order: shorter conditions first.
    assert [e.entry_id for e in db.walk(window, 0)[0]] == [0, 2, 1]


def test_matching_entries_rejects_a_negative_offset():
    db = LookupDB()
    db.add((3,), 1, 0.5)
    window = window_from([1, 2, 3])
    with pytest.raises(WindowRangeError):
        db.matching_entries(window, -1)


def random_match_cases(count, seed):
    """Random (db, window, offset) cases shared with the acceptance gate."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        window_steps = [rng.randint(1, 4) for _ in range(rng.randint(0, 8))]
        condition = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        offset = rng.randint(0, 3)
        cases.append((condition, window_steps, offset))
    return cases


def test_match_agrees_with_brute_force_slices():
    db = LookupDB()
    by_condition = {}
    window_cache = {}
    for condition, window_steps, offset in random_match_cases(10_000, seed=2024):
        if condition not in by_condition:
            by_condition[condition] = db.add(condition, 1, 0.5)
        key = tuple(window_steps)
        if key not in window_cache:
            window_cache[key] = window_from(list(reversed(window_steps)))
        got = condition_matches(by_condition[condition], window_cache[key], offset)
        want = brute_match(list(condition), window_steps, offset)
        assert got == want, (condition, window_steps, offset)


def grown_by_add(rng):
    """Random rules stored by add(), one before each (db, window, offset).

    Rules are added between lookups, and before each offset, so the
    trie is checked as it grows and not only once it is built.
    """
    db = LookupDB()
    seen = set()

    def add_random_rule():
        condition = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
        prediction = rng.randint(1, 4)
        if (condition, prediction) not in seen:
            seen.add((condition, prediction))
            db.add(condition, prediction, 0.5)

    for _ in range(40):
        add_random_rule()
    for _ in range(200):
        window = window_from([rng.randint(1, 4) for _ in range(rng.randint(0, 10))])
        for offset in range(0, 3):
            add_random_rule()
            yield db, window, offset


def grown_by_engine(direction, capacity):
    """Rules the engine grows on its walked paths, checked after each learn().

    The trace mostly repeats one lap, so suggestions come true and rules
    grow children up to the longest the window allows, and sometimes
    takes a random step, so the walks stop at every depth.
    """
    def grow(rng):
        engine = Engine(
            PredictorConfig(window_capacity=capacity, extension_direction=direction),
            steps=(1, 2, 3, 4),
        )
        lap = itertools.cycle((1, 2, 3, 1, 4))
        for _ in range(300):
            step = next(lap) if rng.random() < 0.8 else rng.randint(1, 4)
            engine.predict()
            engine.learn(Observation(step))
            for offset in range(0, 3):
                yield engine.db, engine.window, offset
        assert max(len(e.condition) for e in engine.db) == capacity - 1
    return grow


@pytest.mark.parametrize("grow", [pytest.param(grown_by_add, id="add")] + [
    pytest.param(grown_by_engine(direction, capacity), id=f"{direction}-{capacity}")
    for direction in EXTENSION_DIRECTIONS for capacity in (3, 10)
])
def test_matching_entries_equals_per_entry_matching(grow):
    rng = random.Random(7)
    windows = [window_from([rng.randint(1, 4) for _ in range(rng.randint(0, 10))])
               for _ in range(8)]
    for db, window, offset in grow(rng):
        found = db.matching_entries(window, offset)
        fast = [e.entry_id for e in found]
        newest_first = [window.step_at(-i) for i in range(len(window))]
        slow = [e.entry_id for e in db
                if brute_match(list(e.condition), newest_first, offset)]
        assert fast == slow
        assert slow == [e.entry_id for e in db if condition_matches(e, window, offset)]
        # walk() holds the same entries in trie order: by condition
        # length, then id.  It is what the engine reads at offset 0.
        walked, path = db.walk(window, offset)
        assert sorted(e.entry_id for e in walked) == fast
        assert [(len(e.condition), e.entry_id) for e in walked] == sorted(
            (len(e.condition), e.entry_id) for e in walked)
        # The entries are the rules of the path's nodes, node by node.
        assert walked == [e for node in path for e in node.rules.values()]
        # path holds the nodes the walk passed: node k holds the matches
        # of length k + 1, and the path ends where no stored condition
        # has the run's newest steps as its suffix any more.
        run = newest_first[offset:]
        depth = 0
        while depth < len(run) and any(
            e.condition[::-1][:depth + 1] == tuple(run[:depth + 1])
            for e in db if len(e.condition) > depth
        ):
            depth += 1
        assert len(path) == depth
        for length, node in enumerate(path, start=1):
            assert node_ids(node) == {e.prediction: e.entry_id for e in found
                                      if len(e.condition) == length}
        assert all(len(e.condition) <= depth for e in found)
        if offset == 0:
            # A trie grown in place is the trie add() builds from scratch.
            readded = LookupDB()
            for entry in db:
                readded.add(entry.condition, entry.prediction, entry.p)
            assert (lookup_state(db, [window] + windows)
                    == lookup_state(readded, [window] + windows))


def test_trie_is_exact_on_a_path_only_a_longer_rule_spelled():
    db = LookupDB()
    db.add((1, 2, 3), 4, 0.5)
    assert find_entry(db, (2, 3), 4) is None
    assert find_entry(db, (3,), 4) is None
    assert find_entry(db, (1, 2, 3), 2) is None
    assert [node_ids(node) for node in db.walk(window_from([2, 3]))[1]] == [{}, {}]
    entry = db.add((2, 3), 4, 0.25)
    assert find_entry(db, (2, 3), 4) is entry
    assert find_entry(db, (1, 2, 3), 4).entry_id == 0
    window = window_from([1, 2, 3])
    assert [e.entry_id for e in db.matching_entries(window)] == [0, 1]
    path = db.walk(window)[1]
    assert [node_ids(node) for node in path] == [{}, {4: 1}, {4: 0}]
    assert path[1].rules[4] is entry


def node_ids(node):
    """A trie node's rules as prediction -> entry id."""
    return {prediction: entry.entry_id for prediction, entry in node.rules.items()}


def lookup_state(db, windows):
    return [
        ([e.entry_id for e in db.matching_entries(window, offset)],
         [node_ids(node) for node in db.walk(window, offset)[1]])
        for window in windows
        for offset in range(3)
    ]


@pytest.mark.parametrize("condition,prediction,p", [
    ((4, 4, 1), 2, 1.5),
    ((4, 4, 1), 2, -0.5),
    ((4, 4, 1), 2, True),
    ((4, 4, 1), -2, 0.5),
    ((-1, 4, 1), 2, 0.5),
    ((4, True, 1), 2, 0.5),
    ((3, 1), 2, 0.5),
    ((), 2, 0.5),
])
def test_rejected_add_leaves_lookups_unchanged(condition, prediction, p):
    db = LookupDB()
    db.add((1,), 2, 0.5)
    db.add((3, 1), 2, 0.5)
    db.add((4, 4, 4), 3, 0.5)
    windows = [window_from(steps) for steps in
               ([4, 4, 4, 1], [2, 3, 1], [1, 4, 4, 1, 2], [4, 4, 4])]
    before = lookup_state(db, windows)
    with pytest.raises(ValueError):
        db.add(condition, prediction, p)
    assert len(db) == 3
    assert lookup_state(db, windows) == before


# -- context recording ----------------------------------------------------


def test_record_contexts_counts_at_condition_positions():
    db = LookupDB()
    entry = db.add((1, 2), 3, 0.5)
    window = ObservationWindow(5, steps=(1, 2, 3), classifications=(0, 1))
    window.push(Observation(1, {0: 10}))
    window.push(Observation(2, {0: 11, 1: 5}))
    window.push(Observation(3, {0: 12}))
    # condition sits one step back: slots keyed 0 and -1 read indices -1, -2
    record_contexts([entry], window.context_table()[1:], slot_keys((0, 1), 5))
    assert entry.slots[slot_key(0, 0)].per_context == {11: 1}
    assert entry.slots[slot_key(1, 0)].per_context == {5: 1}
    assert entry.slots[slot_key(0, -1)].per_context == {10: 1}
    assert slot_key(1, -1) not in entry.slots


def test_record_contexts_skips_absent_classifications():
    db = LookupDB()
    entry = db.add((1,), 2, 0.5)
    window = ObservationWindow(5, steps=(1, 2), classifications=(0,))
    window.push(Observation(1))
    window.push(Observation(2))
    record_contexts([entry], window.context_table()[1:], slot_keys((0,), 5))
    assert entry.slots == {}


def test_record_contexts_rejects_a_condition_longer_than_the_table():
    db = LookupDB()
    entry = db.add((1, 2), 3, 0.5)
    window = ObservationWindow(5, steps=(1, 2, 3), classifications=(0,))
    window.push(Observation(2, {0: 4}))
    window.push(Observation(3, {0: 5}))
    with pytest.raises(WindowRangeError):
        record_contexts([entry], window.context_table()[1:], slot_keys((0,), 5))
    assert entry.slots == {}


def test_record_contexts_rejects_a_batch_before_counting_any_rule_in_it():
    db = LookupDB()
    keys = slot_keys((0, 1), 5)
    first = db.add((3,), 1, 0.5)
    too_long = db.add((2, 3), 1, 0.5)
    last = db.add((3,), 2, 0.5)
    record_contexts([first, last], [{0: 4, 1: 6}], keys)
    before = copy.deepcopy([entry.slots for entry in (first, too_long, last)])
    # One table row: the length-2 rule in the middle of the batch is too
    # long, and neither the rule counted before it nor the one after moves.
    with pytest.raises(WindowRangeError):
        record_contexts([first, too_long, last], [{0: 5, 1: 6}], keys)
    assert [entry.slots for entry in (first, too_long, last)] == before
    assert first.slots[slot_key(0, 0)].per_context == {4: 1}
