"""Seeded benchmark inputs, produced as trace text.

The program under test only ever sees the text; it parses it itself
during set-up.  Each workload replays ``replicas`` independent traces
derived from the run's seed, so one run averages over several inputs
and two seeds give comparable figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

STEPS = frozenset({1, 2, 3, 4})
MIX_REQUIREMENTS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "mix" (scenario trace) or "churn" (uniform random trace)
    engine_mode: str
    size: int  # components for "mix", events for "churn"
    replicas: int
    checkpoint_every: int = 0  # scored steps between save+load; 0 = end of pass only

    def observations(self) -> int:
        if self.kind == "mix":
            return self.size * (1 + 3 * MIX_REQUIREMENTS)
        return self.size

    def describe(self) -> str:
        trace = (
            f"mix trace of {self.size} components"
            if self.kind == "mix"
            else f"churn trace of {self.size} events"
        )
        text = (
            f"{self.replicas} replicas x {trace} "
            f"({self.observations()} observations each), {self.engine_mode} engine"
        )
        if self.checkpoint_every:
            text += f", snapshot save+load every {self.checkpoint_every} steps"
        return text


# Why each workload exists, and what each should show: README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mix-context", "mix", "context", size=200, replicas=4),
        Workload("churn-baseline", "churn", "baseline", size=5_000, replicas=4),
        Workload("checkpoint", "mix", "context", size=200, replicas=4, checkpoint_every=250),
    )
}


def replica_seeds(seed: int, replicas: int) -> list[int]:
    return [seed * 1000 + i for i in range(replicas)]


def mix_text(components: int, seed: int) -> str:
    """The program's own ``mix`` scenario: per-component style coin."""
    from nextstep.scenarios import generate_trace

    lines = []
    for obs in generate_trace("mix", components, MIX_REQUIREMENTS, seed=seed):
        pairs = ",".join(f"{cc}={ctx}" for cc, ctx in sorted(obs.contexts.items()))
        lines.append(f"{obs.step} {pairs}" if pairs else str(obs.step))
    return "\n".join(lines) + "\n"


def churn_text(events: int, seed: int) -> str:
    """Uniform steps 1-4; classifications 0 and 1 each present with
    probability 0.9 and drawing from 5 context values."""
    rng = random.Random(seed)
    lines = []
    for _ in range(events):
        contexts = {cc: rng.randrange(5) for cc in (0, 1) if rng.random() < 0.9}
        step = rng.randint(1, 4)
        pairs = ",".join(f"{cc}={ctx}" for cc, ctx in sorted(contexts.items()))
        lines.append(f"{step} {pairs}" if pairs else str(step))
    return "\n".join(lines) + "\n"


def trace_texts(workload: Workload, seed: int) -> list[str]:
    make = mix_text if workload.kind == "mix" else churn_text
    return [make(workload.size, s) for s in replica_seeds(seed, workload.replicas)]
