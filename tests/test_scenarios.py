"""Synthetic enactment traces: block shapes, context tagging, determinism."""

from __future__ import annotations

import pytest

from nextstep.scenarios import (
    CC_COMPONENT,
    CC_STYLE,
    STYLE_BREADTH_FIRST,
    STYLE_DEPTH_FIRST,
    block_steps,
    generate_trace,
)


def steps_of(trace):
    return [observation.step for observation in trace]


def test_depth_first_block_shape():
    assert block_steps(STYLE_DEPTH_FIRST, 2) == [1, 2, 3, 4, 2, 3, 4]
    assert block_steps(STYLE_DEPTH_FIRST, 3) == [1, 2, 3, 4, 2, 3, 4, 2, 3, 4]


def test_breadth_first_block_shape():
    assert block_steps(STYLE_BREADTH_FIRST, 3) == [1, 2, 2, 2, 3, 3, 3, 4, 4, 4]


def test_single_requirement_blocks_coincide():
    assert block_steps(STYLE_DEPTH_FIRST, 1) == block_steps(STYLE_BREADTH_FIRST, 1)


def test_unknown_style_rejected():
    with pytest.raises(ValueError):
        block_steps(7, 2)


def test_scenario_a_trace():
    trace = generate_trace("a", 1, 2)
    assert steps_of(trace) == [1, 2, 3, 4, 2, 3, 4]


def test_scenario_b_trace_length():
    assert len(generate_trace("b", 1, 3)) == 10


def test_every_record_carries_component_and_style():
    trace = generate_trace("a", 3, 2)
    for index, observation in enumerate(trace):
        block = index // 7
        assert observation.contexts[CC_COMPONENT] == 2 + block
        assert observation.contexts[CC_STYLE] == STYLE_DEPTH_FIRST


def test_b_blocks_are_tagged_breadth_first():
    trace = generate_trace("b", 2, 2)
    assert {obs.contexts[CC_STYLE] for obs in trace} == {STYLE_BREADTH_FIRST}


def test_mix_is_deterministic_per_seed():
    first = generate_trace("mix", 12, 3, seed=9)
    second = generate_trace("mix", 12, 3, seed=9)
    assert [(o.step, o.contexts) for o in first] == [
        (o.step, o.contexts) for o in second
    ]


def test_mix_seeds_differ():
    seeds = {tuple(steps_of(generate_trace("mix", 12, 3, seed=s))) for s in range(6)}
    assert len(seeds) > 1


def test_mix_blocks_use_both_real_shapes():
    trace = generate_trace("mix", 40, 3, seed=7)
    assert len(trace) == 400
    styles = [trace[i].contexts[CC_STYLE] for i in range(0, 400, 10)]
    # frozen style draw for the evaluation seed
    assert "".join(map(str, styles)) == "0110000011010100100110101101010001100000"
    for block, style in enumerate(styles):
        block_trace = steps_of(trace[block * 10:(block + 1) * 10])
        assert block_trace == block_steps(style, 3)


def test_mix_style_tag_matches_block_shape():
    trace = generate_trace("mix", 6, 2, seed=3)
    for block in range(6):
        records = trace[block * 7:(block + 1) * 7]
        style = records[0].contexts[CC_STYLE]
        assert steps_of(records) == block_steps(style, 2)
        assert {o.contexts[CC_STYLE] for o in records} == {style}


@pytest.mark.parametrize("kind,components,requirements", [
    ("z", 1, 1), ("a", 0, 1), ("a", 1, 0), ("mix", -2, 3),
])
def test_generator_validates_inputs(kind, components, requirements):
    with pytest.raises(ValueError):
        generate_trace(kind, components, requirements)
