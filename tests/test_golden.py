"""Golden digests: predictions and final snapshots pinned byte for byte.

Every engine mode, context update scope and extension direction
replays a scenario trace and a uniform random trace; the sha256 of the
predicted steps and of the final dump_snapshot must equal the pinned
values.  A deliberate behaviour change updates the pins and says so in
CHANGES.md; an optimisation must leave them alone.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from nextstep import Observation, PredictorConfig, run_trace
from nextstep.engine import (
    CONTEXT_UPDATE_SCOPES,
    ENGINE_MODES,
    EXTENSION_DIRECTIONS,
)
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


TRACES = {
    "mix": lambda: generate_trace("mix", 40, 3, seed=7),
    "uniform": lambda: uniform_trace(seed=1009, count=1000),
}

COMBOS = list(itertools.product(
    ENGINE_MODES, CONTEXT_UPDATE_SCOPES, EXTENSION_DIRECTIONS
))


def digests(trace: list[Observation], combo: tuple[str, str, str]) -> tuple[str, str]:
    mode, scope, direction = combo
    config = PredictorConfig(
        engine_mode=mode,
        context_update_scope=scope,
        extension_direction=direction,
    )
    engine, rows = run_trace(trace, config)
    predictions = "".join(f"{row.predicted}\n" for row in rows)
    snapshot = dump_snapshot(engine.db, config.alpha, config.theta)
    return (
        hashlib.sha256(predictions.encode()).hexdigest(),
        hashlib.sha256(snapshot.encode()).hexdigest(),
    )


GOLDEN = {
    "mix": {
        "context/correct-only/append-observation": (
            "f5bbb200ee78f56f7c4d3530b35ee26993aa4b3d55826b7fc097512d9d32d66c",
            "09b3ef0f9c28f4dc0153c8645dd82556510576ffacf82514e61f4902cd723d68",
        ),
        "context/correct-only/extend-into-past": (
            "9daa98ffe7abdfdf5a1b596fe70dbc898861914d1895a6a5dd2a717507977b6b",
            "376b1938176ce59010c2a026ba2dc0e5c60d9b7d7bfe8cacd3b8cc73a5ec961c",
        ),
        "context/all-matching/append-observation": (
            "f1eb11a309d650c5b4b99e6c8c0391c8eb88c748e2c86f780d9e822f64f88a3c",
            "335da77300d8fc10fa378bade67dbd248a69726cd4aad0a4911a10ee1df6e92d",
        ),
        "context/all-matching/extend-into-past": (
            "f37be13fff7a174f83039ee2edbc26e983f4a69e6b521b524c58da4841f38dc4",
            "af74bb8d3688e1434a27dd28ad6a228a3453395bfe4a01c8b75ff67e207fade5",
        ),
        "baseline/correct-only/append-observation": (
            "772c53992e6df539e0ed07ebe4667aef983d7fe642ca941caa802c20e6e6ef20",
            "fd0d6ce5ebbac334fa5bcaa971feaa4213c4820f7ee939222272f3ff0bcf92e7",
        ),
        "baseline/correct-only/extend-into-past": (
            "e64fc4918beb18df4d02a09ea8acd26898e395eafe3b3717cd6b52b184be4815",
            "886ec62e3ba2117370560fbb3a534efedb3ae454f6f51f4e357dd9a15a6d4a5d",
        ),
        "baseline/all-matching/append-observation": (
            "772c53992e6df539e0ed07ebe4667aef983d7fe642ca941caa802c20e6e6ef20",
            "e74691091033ef836bb3f7e462eb25d62be148c3e48a3f11448413bdac5fe9d4",
        ),
        "baseline/all-matching/extend-into-past": (
            "e64fc4918beb18df4d02a09ea8acd26898e395eafe3b3717cd6b52b184be4815",
            "f04aea2a9ac405ffa4b4bd92882a5a61b1d04bf0e9b8f076c1f9e3cb581359de",
        ),
    },
    "uniform": {
        "context/correct-only/append-observation": (
            "f7e4f7ce6adaf2f060c67a77a32e7ec698ff2a844386c875292378f2ec15c921",
            "bf45f180d32a26b9341f73cb724756e8f32cb9b3f79945e426ae97fb77b977b1",
        ),
        "context/correct-only/extend-into-past": (
            "8061b34e35c095c352129372d448ea0382c4ec55865ba85b79092ee3ef8e29c3",
            "2f89bdfc61eefd46c699c2b6f5e5b9217f9edbae00972923a522728b3551d828",
        ),
        "context/all-matching/append-observation": (
            "10740f9f836416c105f8b53866b2963353e5521a9918f2a4f9d013f170838e06",
            "5fe952eba42b5e8055db21c2f6e41f0c2c5627de9a13f4cb9d154102b2c31aba",
        ),
        "context/all-matching/extend-into-past": (
            "7247af03644670797abe87882e3c2812450f6b5a8df0451f4ba74485ba1b0661",
            "682dbdb0f71f65bbde4fa74011db5ba957849a31d36d1055c6b4a286fe987359",
        ),
        "baseline/correct-only/append-observation": (
            "b59e20163fbca4178c6b5f17055ef7f83d337016943a2a3b6a8ffc6a3ada04d9",
            "e04101cbf85528074f3117d10227e880d68ff4691968160d01fbbbec3b9d0f59",
        ),
        "baseline/correct-only/extend-into-past": (
            "c26377ef5b59ab49deac91a282417706f06a94205f58cb87c211199ec9685376",
            "875cab398c3efc8de60eb4e011013b84ca194884a8ee6989442f2812443ab14d",
        ),
        "baseline/all-matching/append-observation": (
            "b59e20163fbca4178c6b5f17055ef7f83d337016943a2a3b6a8ffc6a3ada04d9",
            "516a845391113762d38dd07d871da96fe997df7221d8c56ee4be5d56615e2cd3",
        ),
        "baseline/all-matching/extend-into-past": (
            "c26377ef5b59ab49deac91a282417706f06a94205f58cb87c211199ec9685376",
            "d3de4a47be301ef46be6f49d7ad04ba50866d9f554764563dd3decc5af47a495",
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
    trace = TRACES[trace_name]()
    assert digests(trace, combo) == GOLDEN[trace_name]["/".join(combo)]
