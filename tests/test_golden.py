"""Golden digests: predictions and final snapshots pinned byte for byte.

Every engine mode, context update scope, extension scope and extension
direction replays a scenario trace and a uniform random trace; the
sha256 of the predicted steps and of the final dump_snapshot must equal
the pinned values.  A deliberate behaviour change updates the pins and
says so in CHANGES.md; an optimisation must leave them alone.
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
    EXTENSION_SCOPES,
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
    ENGINE_MODES, CONTEXT_UPDATE_SCOPES, EXTENSION_SCOPES, EXTENSION_DIRECTIONS
))


def digests(trace: list[Observation], combo: tuple[str, str, str, str]) -> tuple[str, str]:
    mode, scope, ext_scope, direction = combo
    config = PredictorConfig(
        engine_mode=mode,
        context_update_scope=scope,
        extension_scope=ext_scope,
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
        "context/correct-only/all-matching/append-observation": (
            "f5bbb200ee78f56f7c4d3530b35ee26993aa4b3d55826b7fc097512d9d32d66c",
            "09b3ef0f9c28f4dc0153c8645dd82556510576ffacf82514e61f4902cd723d68",
        ),
        "context/correct-only/all-matching/extend-into-past": (
            "9daa98ffe7abdfdf5a1b596fe70dbc898861914d1895a6a5dd2a717507977b6b",
            "376b1938176ce59010c2a026ba2dc0e5c60d9b7d7bfe8cacd3b8cc73a5ec961c",
        ),
        "context/correct-only/correct-only/append-observation": (
            "828042231ff4e6d0858fe2d59159a0408dc1bbe6e0f7c2984e8a4d82f6a3601d",
            "28b362c35337394bb9749f1135ac85847071a2d196945188a4b64a36e821063b",
        ),
        "context/correct-only/correct-only/extend-into-past": (
            "4ac773f0903bcc54eb3885a35bb574f1712ed80d06aac78633cdab57d691e31c",
            "46375e23d45bb7fe93215d33647d613e031bf2ea03dc703e90002cbf93621c4c",
        ),
        "context/all-matching/all-matching/append-observation": (
            "f1eb11a309d650c5b4b99e6c8c0391c8eb88c748e2c86f780d9e822f64f88a3c",
            "335da77300d8fc10fa378bade67dbd248a69726cd4aad0a4911a10ee1df6e92d",
        ),
        "context/all-matching/all-matching/extend-into-past": (
            "f37be13fff7a174f83039ee2edbc26e983f4a69e6b521b524c58da4841f38dc4",
            "af74bb8d3688e1434a27dd28ad6a228a3453395bfe4a01c8b75ff67e207fade5",
        ),
        "context/all-matching/correct-only/append-observation": (
            "79e17149d23ac1424f6a40ebbcae3ef6398b5b4ecd20e2285fc76ee836495ce3",
            "e6892a6792ed348490216ba5f899250a2ed4a2488225bfec7ed29ea73a3e3171",
        ),
        "context/all-matching/correct-only/extend-into-past": (
            "7580af1a9847ead479a4b4c73b30ef7617ce2d450dc17cf3b00d9ad3c35baa4c",
            "20319497c51c8eace11e09168e30f21aa0574c936a20336e4a987dc5c791d965",
        ),
        "baseline/correct-only/all-matching/append-observation": (
            "772c53992e6df539e0ed07ebe4667aef983d7fe642ca941caa802c20e6e6ef20",
            "fd0d6ce5ebbac334fa5bcaa971feaa4213c4820f7ee939222272f3ff0bcf92e7",
        ),
        "baseline/correct-only/all-matching/extend-into-past": (
            "e64fc4918beb18df4d02a09ea8acd26898e395eafe3b3717cd6b52b184be4815",
            "886ec62e3ba2117370560fbb3a534efedb3ae454f6f51f4e357dd9a15a6d4a5d",
        ),
        "baseline/correct-only/correct-only/append-observation": (
            "013b8c371c432a8cf117228d2bc6dc72c91724f5a61c3a5d8f4ebc463a22a4a7",
            "252e1ba1158517c3f6cda4db7b72c79f9631351aa4925cc350481d48de4d05dd",
        ),
        "baseline/correct-only/correct-only/extend-into-past": (
            "1869f0eee2d4349aaf551fa7fa94292e4db36b9d9c190f252862e247da0ef4f9",
            "f1cecea2a40abac373ac7455c639fa6c97452276be49789b1164c0008af108de",
        ),
        "baseline/all-matching/all-matching/append-observation": (
            "772c53992e6df539e0ed07ebe4667aef983d7fe642ca941caa802c20e6e6ef20",
            "e74691091033ef836bb3f7e462eb25d62be148c3e48a3f11448413bdac5fe9d4",
        ),
        "baseline/all-matching/all-matching/extend-into-past": (
            "e64fc4918beb18df4d02a09ea8acd26898e395eafe3b3717cd6b52b184be4815",
            "f04aea2a9ac405ffa4b4bd92882a5a61b1d04bf0e9b8f076c1f9e3cb581359de",
        ),
        "baseline/all-matching/correct-only/append-observation": (
            "013b8c371c432a8cf117228d2bc6dc72c91724f5a61c3a5d8f4ebc463a22a4a7",
            "99ed199f9d023883d99a951db93a9c15ea761f7e7eab8f86517a4bc3d311204f",
        ),
        "baseline/all-matching/correct-only/extend-into-past": (
            "1869f0eee2d4349aaf551fa7fa94292e4db36b9d9c190f252862e247da0ef4f9",
            "75d9d3558ce67e96e64713e7f2550838534a0ca0296e3979738dbfba078631c2",
        ),
    },
    "uniform": {
        "context/correct-only/all-matching/append-observation": (
            "f7e4f7ce6adaf2f060c67a77a32e7ec698ff2a844386c875292378f2ec15c921",
            "bf45f180d32a26b9341f73cb724756e8f32cb9b3f79945e426ae97fb77b977b1",
        ),
        "context/correct-only/all-matching/extend-into-past": (
            "8061b34e35c095c352129372d448ea0382c4ec55865ba85b79092ee3ef8e29c3",
            "2f89bdfc61eefd46c699c2b6f5e5b9217f9edbae00972923a522728b3551d828",
        ),
        "context/correct-only/correct-only/append-observation": (
            "21ffda3476af7928325c642b64ea1c38e2a0cc5b162f07a9bc92a94e369b4f8a",
            "7e4f3cef765f687e0ab622abee6a177599f8fba25cc889b96d95caf0c986e740",
        ),
        "context/correct-only/correct-only/extend-into-past": (
            "6bdfda9f3607cc222cb932927e263068db7d4f858419fc9be1d42b2c63735078",
            "a157e5ba518905ba9fbbdba1993e7a477b3eb829c2660899049a89c06b266fe5",
        ),
        "context/all-matching/all-matching/append-observation": (
            "10740f9f836416c105f8b53866b2963353e5521a9918f2a4f9d013f170838e06",
            "5fe952eba42b5e8055db21c2f6e41f0c2c5627de9a13f4cb9d154102b2c31aba",
        ),
        "context/all-matching/all-matching/extend-into-past": (
            "7247af03644670797abe87882e3c2812450f6b5a8df0451f4ba74485ba1b0661",
            "682dbdb0f71f65bbde4fa74011db5ba957849a31d36d1055c6b4a286fe987359",
        ),
        "context/all-matching/correct-only/append-observation": (
            "62bce48962752d8eedb141c4c4cc7167aafc62c59110f9ccbe8875dad45afce1",
            "d65bc7d8638b1d0ffab570fed0d206ce90cdb5846258cabfe39f6e90db9f9b8b",
        ),
        "context/all-matching/correct-only/extend-into-past": (
            "00511d33759d62fc695410ebfa478ab0dcd55f4a497e976e14d130e3c14899b1",
            "3ed999c3595f95f93436a4cd732bb4ee3502dabe8b10fc302c4af7cfe2a10081",
        ),
        "baseline/correct-only/all-matching/append-observation": (
            "b59e20163fbca4178c6b5f17055ef7f83d337016943a2a3b6a8ffc6a3ada04d9",
            "e04101cbf85528074f3117d10227e880d68ff4691968160d01fbbbec3b9d0f59",
        ),
        "baseline/correct-only/all-matching/extend-into-past": (
            "c26377ef5b59ab49deac91a282417706f06a94205f58cb87c211199ec9685376",
            "875cab398c3efc8de60eb4e011013b84ca194884a8ee6989442f2812443ab14d",
        ),
        "baseline/correct-only/correct-only/append-observation": (
            "0e02c6327c79f775614096feaeeb4d10cf883158934648ebea2d928877f03856",
            "e7297dbdc3debee0f49d62e4cbd5c1719c39c3c833f2e5fecf3a5e1b0b8f1913",
        ),
        "baseline/correct-only/correct-only/extend-into-past": (
            "9d041fb79977360a1a7bb4aacad4b0877d55a316be6aebe8460c2e0c35b50257",
            "64cb9e8fb3132358f6345ce0eb1d5286d8778d7ee7de6990c3fb7a33f6025109",
        ),
        "baseline/all-matching/all-matching/append-observation": (
            "b59e20163fbca4178c6b5f17055ef7f83d337016943a2a3b6a8ffc6a3ada04d9",
            "516a845391113762d38dd07d871da96fe997df7221d8c56ee4be5d56615e2cd3",
        ),
        "baseline/all-matching/all-matching/extend-into-past": (
            "c26377ef5b59ab49deac91a282417706f06a94205f58cb87c211199ec9685376",
            "d3de4a47be301ef46be6f49d7ad04ba50866d9f554764563dd3decc5af47a495",
        ),
        "baseline/all-matching/correct-only/append-observation": (
            "0e02c6327c79f775614096feaeeb4d10cf883158934648ebea2d928877f03856",
            "1e65fb926355a3a4b1835e9abcfc04ad1b26b8820b8037feb739cfe9619e0165",
        ),
        "baseline/all-matching/correct-only/extend-into-past": (
            "9d041fb79977360a1a7bb4aacad4b0877d55a316be6aebe8460c2e0c35b50257",
            "6a5014ecbf2dcbf7fb5209961dd3666c9e9bdcebada393ba2336fbf5babada88",
        ),
    },
}


@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_outputs_match_the_pinned_digests(trace_name):
    trace = TRACES[trace_name]()
    got = {"/".join(combo): digests(trace, combo) for combo in COMBOS}
    assert got == GOLDEN[trace_name]
