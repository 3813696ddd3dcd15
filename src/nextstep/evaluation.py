"""Trace files, batch replay with running metrics, CSV and SVG reports.

A trace file stores one observation per line: the step id, then
optionally one space and comma-separated classification=context pairs.
Blank lines and lines starting with # are ignored.

    2 0=7,1=1
    3

Replay feeds a trace through an engine, scoring each suggestion
against the step that actually followed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Sequence

from .atomicwrite import write_text_atomically
from .engine import Engine, PredictorConfig
from .errors import TraceFormatError, read_utf8
from .window import (
    Observation,
    StepId,
    _owning_observation,
    parse_id,
    reject_loose_numbers,
)

# roll_accuracy is the accuracy of the last ROLL_WINDOW scored predictions.
ROLL_WINDOW = 25


def parse_record(text: str) -> Observation:
    """One trace line to an observation; raises ValueError on bad syntax.

    ``text`` is the raw line: its characters are checked before it is
    stripped, so non-ASCII whitespace around the fields is rejected as
    the snapshot reader rejects it.  The contexts dict is built here,
    once, and handed to the observation, which owns it from then on.
    """
    reject_loose_numbers(text)
    step_text, _, rest = text.strip().partition(" ")
    step = parse_id(step_text, "step")
    contexts: dict[int, int] = {}
    rest = rest.strip()
    if rest:
        for pair in rest.split(","):
            cc_text, sep, ctx_text = pair.partition("=")
            if not sep:
                raise ValueError(f"bad context pair {pair!r}, expected cc=ctx")
            try:
                cc = int(cc_text)
                ctx = int(ctx_text)
            except ValueError:
                raise ValueError(f"bad context pair {pair!r}") from None
            if cc < 0 or ctx < 0:
                raise ValueError(f"context pair {pair!r} must not be negative")
            if cc in contexts:
                raise ValueError(f"classification {cc} given twice")
            contexts[cc] = ctx
    return _owning_observation(step, contexts)


def format_record(observation: Observation) -> str:
    if not observation.contexts:
        return str(observation.step)
    pairs = ",".join(
        f"{cc}={ctx}" for cc, ctx in sorted(observation.contexts.items())
    )
    return f"{observation.step} {pairs}"


def parse_trace(lines: Iterable[str]) -> list[Observation]:
    """Parse trace lines; errors carry the 1-based line number.

    Recorded traces repeat a few distinct lines many times, so each
    accepted line's raw text, line end included, maps to the first
    observation read from it, and a repeat appends that same read-only
    observation instead of checking and splitting the text again.  Only
    accepted lines are kept: a bad line is read, and rejected, anew.
    """
    observations = []
    seen: dict[str, Observation] = {}
    for line_no, raw in enumerate(lines, start=1):
        first = seen.get(raw)
        if first is not None:
            observations.append(first)
            continue
        line = raw.lstrip()
        if not line or line[0] == "#":
            continue
        try:
            observation = parse_record(raw)
        except ValueError as exc:
            raise TraceFormatError(line_no, str(exc)) from None
        seen[raw] = observation
        observations.append(observation)
    return observations


def read_trace(path: str) -> list[Observation]:
    """parse_trace of a UTF-8 file; a byte that is not UTF-8 is a format error."""
    return read_utf8(path, parse_trace, TraceFormatError)


def dump_trace(observations: Iterable[Observation]) -> str:
    return "".join(format_record(obs) + "\n" for obs in observations)


def write_trace(observations: Iterable[Observation], path: str) -> None:
    write_text_atomically(path, dump_trace(observations))


def derive_universes(
    observations: Sequence[Observation],
) -> tuple[frozenset[int], frozenset[int]]:
    """Step and classification universes actually used by a trace."""
    if not observations:
        raise ValueError("trace is empty")
    steps = frozenset(map(attrgetter("step"), observations))
    # The dicts behind the views, which a union reads faster.
    classifications = frozenset().union(*map(attrgetter("_contexts"), observations))
    return steps, classifications


@dataclass(frozen=True)
class MetricsRow:
    """Outcome of one scored replay step (t counts from 1)."""

    t: int
    step: StepId
    predicted: StepId | None
    correct: bool
    cum_correct: int
    cum_accuracy: float
    roll_accuracy: float


def run_trace(
    observations: Sequence[Observation],
    config: PredictorConfig,
) -> tuple[Engine, list[MetricsRow]]:
    """Replay a trace: the first record only primes the window, every
    later record is predicted before it is learned.

    Returns the trained engine together with one metrics row per
    scored record.
    """
    steps, classifications = derive_universes(observations)
    engine = Engine(config, steps, classifications)
    engine.learn(observations[0])
    rows: list[MetricsRow] = []
    cum_correct = 0
    recent: deque[int] = deque(maxlen=ROLL_WINDOW)
    for t, observation in enumerate(observations[1:], start=1):
        result = engine.predict()
        correct = bool(engine.learn(observation))
        cum_correct += correct
        recent.append(int(correct))
        rows.append(
            MetricsRow(
                t,
                observation.step,
                result.step if result else None,
                correct,
                cum_correct,
                cum_correct / t,
                sum(recent) / len(recent),
            )
        )
    return engine, rows


def compare_engines(
    observations: Sequence[Observation],
    config: PredictorConfig,
) -> tuple[list[MetricsRow], list[MetricsRow]]:
    """Replay the same trace context-aware and context-blind."""
    _, context_rows = run_trace(observations, replace(config, engine_mode="context"))
    _, baseline_rows = run_trace(observations, replace(config, engine_mode="baseline"))
    return context_rows, baseline_rows


CSV_HEADER = "t,step,predicted,correct,cum_correct,cum_acc,roll_acc"


def metrics_to_csv(rows: Iterable[MetricsRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        predicted = "" if row.predicted is None else str(row.predicted)
        lines.append(
            f"{row.t},{row.step},{predicted},{int(row.correct)},"
            f"{row.cum_correct},{row.cum_accuracy:.6f},{row.roll_accuracy:.6f}"
        )
    return "\n".join(lines) + "\n"


def render_comparison_svg(
    context_rows: Sequence[MetricsRow],
    baseline_rows: Sequence[MetricsRow],
) -> str:
    """Two stacked panels comparing both replays of one trace.

    Top panel: cumulative correct predictions.  Bottom panel: rolling
    accuracy.  The context-aware series is red, the baseline blue.
    """
    width, height = 800, 620
    margin_left, margin_right = 70.0, 25.0
    panel_h = (height - 180) / 2
    plot_w = width - margin_left - margin_right
    x_max = max(len(context_rows), len(baseline_rows), 1)
    cum_max = max(
        [row.cum_correct for row in list(context_rows) + list(baseline_rows)] + [1]
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g font-family="sans-serif" font-size="12">',
        f'<text x="{margin_left:.2f}" y="20" fill="red">context engine</text>',
        f'<text x="{margin_left + 130:.2f}" y="20" fill="blue">baseline engine</text>',
    ]
    panels = [
        (40.0, "cumulative correct predictions", float(cum_max),
         lambda row: float(row.cum_correct)),
        (40.0 + panel_h + 90, "rolling accuracy", 1.0,
         lambda row: row.roll_accuracy),
    ]
    for top, title, y_max, value in panels:
        bottom = top + panel_h
        parts.append(f'<text x="{margin_left:.2f}" y="{top - 8:.2f}">{title}</text>')
        parts.append(
            f'<line x1="{margin_left:.2f}" y1="{top:.2f}" x2="{margin_left:.2f}" '
            f'y2="{bottom:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{margin_left:.2f}" y1="{bottom:.2f}" '
            f'x2="{margin_left + plot_w:.2f}" y2="{bottom:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin_left - 8:.2f}" y="{bottom:.2f}" text-anchor="end">0</text>'
        )
        parts.append(
            f'<text x="{margin_left - 8:.2f}" y="{top + 10:.2f}" '
            f'text-anchor="end">{y_max:g}</text>'
        )
        parts.append(
            f'<text x="{margin_left:.2f}" y="{bottom + 18:.2f}">1</text>'
        )
        parts.append(
            f'<text x="{margin_left + plot_w:.2f}" y="{bottom + 18:.2f}" '
            f'text-anchor="end">{x_max}</text>'
        )
        parts.append(
            f'<text x="{margin_left + plot_w / 2:.2f}" y="{bottom + 36:.2f}" '
            f'text-anchor="middle">scored step</text>'
        )
        for rows, color in ((context_rows, "red"), (baseline_rows, "blue")):
            points = []
            for row in rows:
                x = margin_left + (row.t - 1) / max(x_max - 1, 1) * plot_w
                y = bottom - value(row) / y_max * panel_h
                points.append(f"{x:.2f},{y:.2f}")
            parts.append(
                f'<polyline fill="none" stroke="{color}" points="{" ".join(points)}"/>'
            )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
