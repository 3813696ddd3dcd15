"""Golden digests: predictions and final snapshots pinned byte for byte.

Every engine mode and extension direction replays a scenario trace and
a uniform random trace, each under the default config and under a
tuned one (faster decay, lower threshold, shorter window); the sha256
of the predicted steps and of the final dump_snapshot must equal the
pinned values.  Every run counts
contexts only under the rules that predicted the step.  A deliberate
behaviour change updates the pins and says so in CHANGES.md; an
optimisation must leave them alone.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from nextstep import Observation, PredictorConfig, run_trace
from nextstep.engine import ENGINE_MODES, EXTENSION_DIRECTIONS
from nextstep.lookupdb import dump_snapshot
from nextstep.scenarios import generate_trace


def uniform_trace(seed: int, count: int) -> list[Observation]:
    """Steps 0-5 drawn uniformly; each of two classifications is known
    with probability 0.7 and then takes one of three contexts."""
    rng = random.Random(seed)
    trace = []
    for _ in range(count):
        step = rng.randrange(6)
        contexts = {cc: rng.randrange(3) for cc in (0, 1) if rng.random() < 0.7}
        trace.append(Observation(step, contexts))
    return trace


def mix_trace() -> list[Observation]:
    return generate_trace("mix", 40, 3, seed=7)


def default_uniform_trace() -> list[Observation]:
    return uniform_trace(seed=1009, count=1000)


TUNED = {"alpha": 0.6, "theta": 0.25, "window_capacity": 4}

# Pinned runs: name -> (trace factory, config fields overridden).
TRACES = {
    "mix": (mix_trace, {}),
    "uniform": (default_uniform_trace, {}),
    "mix-tuned": (mix_trace, TUNED),
    "uniform-tuned": (default_uniform_trace, TUNED),
}

COMBOS = list(itertools.product(ENGINE_MODES, EXTENSION_DIRECTIONS))


def digests(trace: list[Observation], combo: tuple[str, str],
            overrides: dict | None = None) -> tuple[str, str]:
    mode, direction = combo
    config = PredictorConfig(engine_mode=mode, extension_direction=direction,
                             **(overrides or {}))
    engine, rows = run_trace(trace, config)
    predictions = "".join(f"{row.predicted}\n" for row in rows)
    snapshot = dump_snapshot(engine.db, config.alpha, config.theta)
    return (
        hashlib.sha256(predictions.encode()).hexdigest(),
        hashlib.sha256(snapshot.encode()).hexdigest(),
    )


GOLDEN = {
    "mix": {
        "context/append-observation": (
            "f5bbb200ee78f56f7c4d3530b35ee26993aa4b3d55826b7fc097512d9d32d66c",
            "09b3ef0f9c28f4dc0153c8645dd82556510576ffacf82514e61f4902cd723d68",
        ),
        "context/extend-into-past": (
            "9daa98ffe7abdfdf5a1b596fe70dbc898861914d1895a6a5dd2a717507977b6b",
            "376b1938176ce59010c2a026ba2dc0e5c60d9b7d7bfe8cacd3b8cc73a5ec961c",
        ),
        "baseline/append-observation": (
            "772c53992e6df539e0ed07ebe4667aef983d7fe642ca941caa802c20e6e6ef20",
            "fd0d6ce5ebbac334fa5bcaa971feaa4213c4820f7ee939222272f3ff0bcf92e7",
        ),
        "baseline/extend-into-past": (
            "e64fc4918beb18df4d02a09ea8acd26898e395eafe3b3717cd6b52b184be4815",
            "886ec62e3ba2117370560fbb3a534efedb3ae454f6f51f4e357dd9a15a6d4a5d",
        ),
    },
    "uniform": {
        "context/append-observation": (
            "f7e4f7ce6adaf2f060c67a77a32e7ec698ff2a844386c875292378f2ec15c921",
            "bf45f180d32a26b9341f73cb724756e8f32cb9b3f79945e426ae97fb77b977b1",
        ),
        "context/extend-into-past": (
            "8061b34e35c095c352129372d448ea0382c4ec55865ba85b79092ee3ef8e29c3",
            "2f89bdfc61eefd46c699c2b6f5e5b9217f9edbae00972923a522728b3551d828",
        ),
        "baseline/append-observation": (
            "b59e20163fbca4178c6b5f17055ef7f83d337016943a2a3b6a8ffc6a3ada04d9",
            "e04101cbf85528074f3117d10227e880d68ff4691968160d01fbbbec3b9d0f59",
        ),
        "baseline/extend-into-past": (
            "c26377ef5b59ab49deac91a282417706f06a94205f58cb87c211199ec9685376",
            "875cab398c3efc8de60eb4e011013b84ca194884a8ee6989442f2812443ab14d",
        ),
    },
    "mix-tuned": {
        "context/append-observation": (
            "83b57baa1c2c0bbe536d5dde7bda950581e080507dbe184ca5643b08c5a9b873",
            "2648a3b639b30750958552e6cb0d809d899cf5ac3f61b098e75914fa5813d88f",
        ),
        "context/extend-into-past": (
            "f17ab2f1b5ee58e0b74115781d8d99bdd012939144ff50660d94dd2a3bfce6d3",
            "a058eceec261ef4cd7a0ec1157be32ef8439a2ada1fedbff4021d852f9238d35",
        ),
        "baseline/append-observation": (
            "4ae3adbb0b5ea69787bc133458e1e623bc903f9bb813d6b9dff32f502df47cc0",
            "4faf113c27004f796bbd36f2e4c02b7cff73f01c7098e0887f9227c379798250",
        ),
        "baseline/extend-into-past": (
            "860143aa759a2d318703b1b8b5113ed5d6a986f1520fa5b6aa21fd2b11e30fb8",
            "01fbf29bd4d9aa503b480ca3b76bd2ccc417826bacbde9c587208e18f516547b",
        ),
    },
    "uniform-tuned": {
        "context/append-observation": (
            "3675925d8f1a9722635b0bc8b1bd8ad386839c4c228c4ccc252308d14f2c0fde",
            "31e8fd94fba661bb60aefc27cdbb02b5192881974d343dc05f40eed512e852b8",
        ),
        "context/extend-into-past": (
            "0064da58e3de61f31f6885fbc0f27703fa1329ae3f0b8baae7206ee6bfffc376",
            "c51d8c25f9845add0f38ca598831ac3eeeaead2516f7487f335d72168ad7e58e",
        ),
        "baseline/append-observation": (
            "e3c396130cb47a0059f7b97c02b9a97e939f536d4e1c6fcd0f2db44e887bc78d",
            "ae25630b68b93dabfc9728dfeceec702fc0c7df52bb3da0705d6b01278b385b9",
        ),
        "baseline/extend-into-past": (
            "c495d1e09b3631b1decbfdb8806aa0a1832ffc2d24ecda4c06a849c3f2f1beb2",
            "9ba06d45722edcba52aae95ed5799e8a1dde75b652960c6a5a8b06fdf0659a9d",
        ),
    },
}


def test_every_combination_has_a_pin():
    assert set(GOLDEN) == set(TRACES)
    for pins in GOLDEN.values():
        assert set(pins) == {"/".join(combo) for combo in COMBOS}


@pytest.mark.parametrize("combo", COMBOS, ids="/".join)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_outputs_match_the_pinned_digests(trace_name, combo):
    make_trace, overrides = TRACES[trace_name]
    pinned = GOLDEN[trace_name]["/".join(combo)]
    assert digests(make_trace(), combo, overrides) == pinned
