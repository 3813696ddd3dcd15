"""Sliding observation window behaviour."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from nextstep import Observation
from nextstep.errors import UnknownIdError, WindowRangeError
from nextstep.evaluation import parse_record
from nextstep.window import ObservationWindow


def make_window(capacity=4):
    return ObservationWindow(capacity, steps=(1, 2, 3), classifications=(0, 1))


def steps_of(observations):
    return [observation.step for observation in observations]


def test_capacity_must_be_at_least_two():
    with pytest.raises(ValueError):
        ObservationWindow(1, steps=(1,))
    with pytest.raises(ValueError):
        ObservationWindow(0, steps=(1,))


def test_step_universe_must_not_be_empty():
    with pytest.raises(ValueError):
        ObservationWindow(3, steps=())


def test_starts_empty():
    window = make_window()
    assert len(window) == 0


def test_newest_is_index_zero():
    window = make_window()
    window.push(Observation(1))
    window.push(Observation(2))
    assert window.step_at(0) == 2
    assert window.step_at(-1) == 1


def test_oldest_falls_out_at_capacity():
    window = make_window(capacity=2)
    for step in (1, 2, 3):
        window.push(Observation(step))
    assert len(window) == 2
    assert window.step_at(0) == 3
    assert window.step_at(-1) == 2
    with pytest.raises(WindowRangeError):
        window.step_at(-2)


def test_positive_index_rejected():
    window = make_window()
    window.push(Observation(1))
    with pytest.raises(WindowRangeError):
        window.step_at(1)


def test_empty_window_read_says_the_window_is_empty():
    window = make_window()
    with pytest.raises(WindowRangeError, match="empty window") as raised:
        window.step_at(0)
    assert "[0, 0]" not in str(raised.value)


def test_newest_first_reads_back_from_the_offset():
    window = make_window(capacity=3)
    assert steps_of(window.newest_first()) == []
    for step in (1, 2, 3, 1):
        window.push(Observation(step))
    assert steps_of(window.newest_first()) == [1, 3, 2]
    assert steps_of(window.newest_first(1)) == [3, 2]
    assert steps_of(window.newest_first(2)) == [2]
    assert steps_of(window.newest_first(3)) == []
    assert steps_of(window.newest_first(4)) == []
    with pytest.raises(WindowRangeError):
        window.newest_first(-1)


def test_push_rejects_undeclared_step_without_mutating():
    window = make_window()
    window.push(Observation(1))
    with pytest.raises(UnknownIdError):
        window.push(Observation(9))
    assert len(window) == 1
    assert window.step_at(0) == 1
    assert window.pushes == 1


@pytest.mark.parametrize("step", [1.0, True])
def test_push_rejects_a_step_that_is_not_an_int_without_mutating(step):
    window = make_window()
    window.push(Observation(2))
    with pytest.raises(UnknownIdError):
        window.push(Observation(step))
    assert len(window) == 1
    assert window.step_at(0) == 2
    assert window.pushes == 1


def test_push_rejects_undeclared_classification_without_mutating():
    # True and 1.0 hash like the declared classification 1 but are no id
    window = make_window()
    window.push(Observation(2))
    for cc in (7, True, 1.0, "1"):
        with pytest.raises(UnknownIdError, match="is not declared"):
            window.push(Observation(1, {cc: 3}))
        assert len(window) == 1
        assert window.step_at(0) == 2
        assert window.context_table() == [{}]
        assert window.pushes == 1


def test_push_rejects_negative_context():
    window = make_window()
    with pytest.raises(ValueError):
        window.push(Observation(1, {0: -1}))


def test_context_lookup():
    window = make_window()
    window.push(Observation(1, {0: 5}))
    window.push(Observation(2, {0: 6, 1: 1}))
    # table[-index] is window index index
    table = window.context_table()
    assert len(table) == 2
    assert table[0] == {0: 6, 1: 1}
    assert table[1] == {0: 5}


def test_context_table_rows_are_plain_dicts():
    # The counting and scoring loops call .get on every row; a dict's is
    # faster than a read-only view's.
    window = make_window()
    window.push(Observation(1, {0: 5}))
    window.push(parse_record("2 1=1"))
    window.push(Observation(3))
    assert [type(row) for row in window.context_table()] == [dict] * 3


def test_observation_contexts_are_copied_on_construction():
    source = {0: 5}
    observation = Observation(1, source)
    source[0] = 99
    source[1] = 2
    assert observation.contexts == {0: 5}


def test_observation_is_a_read_only_value():
    observation = Observation(1, {0: 5})
    with pytest.raises(TypeError):
        observation.contexts[0] = 6
    with pytest.raises(TypeError):
        del observation.contexts[0]
    for name, value in (("step", 2), ("contexts", {0: 6})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(observation, name, value)
    with pytest.raises(TypeError):
        hash(observation)
    assert observation == Observation(1, {0: 5})
    assert observation != Observation(1, {0: 6})


@pytest.mark.parametrize("remake", [
    *(
        lambda o, protocol=protocol: pickle.loads(pickle.dumps(o, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ),
    copy.copy,
    copy.deepcopy,
    dataclasses.replace,
], ids=[
    *(f"pickle{protocol}" for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    "copy", "deepcopy", "replace",
])
def test_observation_survives_pickle_copy_and_replace(remake):
    for observation in (Observation(1, {0: 5, 1: 2}), Observation(3), parse_record("2 1=1")):
        again = remake(observation)
        assert type(again) is Observation
        assert again == observation
        assert repr(again) == repr(observation)
        with pytest.raises(TypeError):
            again.contexts[0] = 6
        window = make_window()
        window.push(again)
        assert window.context_table() == [observation.contexts]
    assert dataclasses.replace(Observation(1, {0: 5}), contexts={1: 2}) == Observation(1, {1: 2})


@given(st.lists(st.integers(min_value=1, max_value=3), max_size=30),
       st.integers(min_value=2, max_value=6))
def test_window_always_holds_the_newest_pushes(steps, capacity):
    window = ObservationWindow(capacity, steps=(1, 2, 3))
    for step in steps:
        window.push(Observation(step))
    expected = steps[-capacity:][::-1]
    assert len(window) == len(expected)
    for index, step in enumerate(expected):
        assert window.step_at(-index) == step
    for offset in range(len(expected) + 2):
        assert steps_of(window.newest_first(offset)) == expected[offset:]
