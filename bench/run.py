"""nextstep benchmark: closed-loop replay of seeded traces.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller, one thread, no think time: every observed step is one
``Engine.predict()`` then one ``Engine.learn()``, as ``nextstep run``
and ``nextstep repl`` do.  The program only receives trace text.  A run
replays the workload's replica traces round after round, each pass on a
fresh engine, until ``--seconds`` have passed (at least one round).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays half
the time untraced and half with every layer function wrapped (see
tracer.py), and prints the per-layer metrics, including the tracing
overhead.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` beside this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402
from workloads import STEPS, WORKLOADS, Workload, trace_texts  # noqa: E402

try:
    import nextstep
    from nextstep import evaluation, lookupdb
    from nextstep.engine import Engine, PredictorConfig
except ImportError as exc:  # reported by main(), which exits 2
    nextstep = None
    _IMPORT_ERROR = exc

ORACLE_SAMPLES = 8  # sampled steps per first-round pass for the match oracle
MAX_NOTES = 20
# Nominal time of calibration_work(): the fastest seen on the 2-vCPU
# Intel Xeon (2.1 GHz) virtual machine the bounds in BENCHMARK.json were
# set on.  End-to-end timings are reported at this machine speed.
CALIBRATION_NS = 14_000_000
RAISED_NS = 1 << 62  # step time recorded for a step that raised


def program_missing() -> str | None:
    """Why the package under ``src/`` cannot be benchmarked, if it cannot."""
    if nextstep is None:
        return f"cannot import nextstep from {SRC}: {_IMPORT_ERROR}"
    location = Path(nextstep.__file__).resolve()
    if SRC not in location.parents:
        return f"nextstep was imported from {location}, not from {SRC}"
    return None


class Checks:
    """Output checks and raised steps, counted for ``fail_ratio``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < MAX_NOTES:
            self.notes.append(what)

    def check(self, what: str, predicate) -> None:
        self.attempted += 1
        try:
            ok = predicate()
        except Exception as exc:  # a raising check is a failed check
            self.fail(f"{what}: raised {exc!r}")
            return
        if not ok:
            self.fail(what)


@dataclass
class Outcome:
    """What one pass over a replica produced; equal on every pass."""

    predictions_sha256: str
    snapshot_sha256: str
    correct: int
    scored: int
    tail_correct: int
    tail_scored: int


@dataclass
class Phase:
    """Samples from the passes of one phase (untraced or traced).

    The machine this runs on may slow all work by up to 2x, for a
    fraction of a second or for minutes.  Within a run, each step
    position of each replica keeps its fastest time over the passes,
    and set-up and snapshot timings keep the fastest per replica and per
    snapshot point.  Between runs, ``speed_scale`` takes the timings to
    one nominal machine speed.  A slower program is slower in every
    pass, so it still shows.
    """

    best_step_ns: dict[int, array] = field(default_factory=dict)
    calibration_ns: list[int] = field(default_factory=list)
    best_setup_s: dict[int, float] = field(default_factory=dict)
    best_save_ms: dict[tuple, float] = field(default_factory=dict)
    best_load_ms: dict[tuple, float] = field(default_factory=dict)
    scored: int = 0
    passes: int = 0
    snapshot_bytes: list[int] = field(default_factory=list)
    gc_collections: int = 0
    rules_live: list[int] = field(default_factory=list)
    rules_won: list[int] = field(default_factory=list)
    counter_mass: list[int] = field(default_factory=list)

    def keep_steps(self, replica: int, step_ns: array) -> None:
        best = self.best_step_ns.get(replica)
        self.best_step_ns[replica] = (
            step_ns if best is None else array("q", map(min, best, step_ns))
        )

    def step_times(self) -> array:
        times = array("q")
        for replica in sorted(self.best_step_ns):
            times.extend(self.best_step_ns[replica])
        return times

    def steps_per_s(self) -> float:
        times = self.step_times()
        return len(times) / (sum(times) / 1e9) if times else 0.0

    def speed_scale(self) -> float:
        """Factor that takes this run's timings to the nominal machine
        speed: CALIBRATION_NS over the mean of the fastest quarter of
        the calibration timings taken before each pass."""
        fastest = sorted(self.calibration_ns)[: (len(self.calibration_ns) + 3) // 4]
        return CALIBRATION_NS * len(fastest) / sum(fastest) if fastest else 1.0


def _keep_best(best: dict, key, value: float) -> None:
    best[key] = min(best.get(key, value), value)


def calibration_work() -> int:
    """Fixed pure-Python work that shares no code with the program: dict,
    tuple and list operations of the kind a replay step does."""
    counts: dict[tuple[int, int, int], int] = {}
    kept = []
    for i in range(40_000):
        k = (i * 7919) % 4093
        key = (k, k + 1, k & 7)
        counts[key] = counts.get(key, 0) + 1
        if k & 1:
            kept.append(key)
    return len(kept) + len(counts)


def _time_calibration() -> int:
    started = time.perf_counter_ns()
    calibration_work()
    return time.perf_counter_ns() - started


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode("utf-8"))
    return sha.hexdigest()


class Replay:
    """Replays a workload's replica traces and checks what comes out."""

    def __init__(self, workload: Workload, texts: list[str], snapshot_path: Path):
        self.workload = workload
        self.texts = texts
        self.snapshot_path = snapshot_path
        self.checks = Checks()
        self.first_outcomes: dict[int, Outcome] = {}
        self.tracer: tracing.Tracer | None = None

    def replay_for(self, phase: Phase, seconds: float, totals=None) -> list:
        """Passes over the replicas in turn until ``seconds`` have passed
        and every replica ran once; returns the last traced pass's spans."""
        deadline = time.perf_counter() + seconds
        spans: list = []
        done = 0
        while done < len(self.texts) or time.perf_counter() < deadline:
            replica = done % len(self.texts)
            phase.calibration_ns.append(_time_calibration())
            if self.tracer is None:
                before = _gc_collections()
                self.run_pass(replica, phase)
                phase.gc_collections += _gc_collections() - before
            else:
                self.run_pass(replica, phase)
                spans = self.tracer.drain(totals)
            done += 1
        return spans

    def _paused(self):
        """Let the benchmark's own checks call the program without spans."""
        return self.tracer.pausing() if self.tracer is not None else nullcontext()

    def run_pass(self, replica: int, phase: Phase) -> None:
        checks, workload, tracer = self.checks, self.workload, self.tracer
        started = time.perf_counter()
        try:
            observations = evaluation.parse_trace(io.StringIO(self.texts[replica]))
            steps, classifications = evaluation.derive_universes(observations)
            engine = Engine(
                PredictorConfig(engine_mode=workload.engine_mode), steps, classifications
            )
            engine.learn(observations[0])
        except Exception as exc:
            checks.attempted += 1
            checks.fail(f"replica {replica}: set-up raised {exc!r}")
            return
        _keep_best(phase.best_setup_s, replica, time.perf_counter() - started)

        first = replica not in self.first_outcomes
        count = len(observations)
        every = workload.checkpoint_every
        stops = set(range(every, count, every)) if every else set()
        oracle = set()
        if first:
            stride = max(1, count // ORACLE_SAMPLES)
            oracle = set(range(stride, count, stride))
        stops |= oracle

        checks.attempted += count - 1
        predictions: list[int | None] = []
        winners: list[int] = []
        step_ns = array("q")
        clock = time.perf_counter_ns
        for t in range(1, count):
            if tracer is not None:
                tracer.step = t
            observation = observations[t]
            start = clock()
            try:
                result = engine.predict()
                engine.learn(observation)
            except Exception as exc:
                checks.fail(f"replica {replica} step {t}: raised {exc!r}")
                step_ns.append(RAISED_NS)
                predictions.append(None)
                continue
            step_ns.append(clock() - start)
            if result is None:
                predictions.append(None)
            else:
                predictions.append(result.step)
                winners.append(result.entry_id)
            if t in stops:
                if tracer is not None:
                    tracer.step = None
                if t in oracle:
                    self._check_matches(engine, replica, t)
                if every and t % every == 0:
                    self._save_and_load(engine, phase, (replica, t))
        phase.keep_steps(replica, step_ns)
        phase.scored += count - 1
        phase.passes += 1
        if tracer is not None:
            tracer.step = None

        snapshot = self._save_and_load(engine, phase, (replica, count))
        with self._paused():
            self._check_end_state(engine, replica, phase, predictions, winners)
        outcome = self._outcome(observations, predictions, snapshot or "")
        reference = self.first_outcomes.setdefault(replica, outcome)
        checks.check(
            f"replica {replica}: predictions repeat across passes",
            lambda: outcome.predictions_sha256 == reference.predictions_sha256,
        )
        checks.check(
            f"replica {replica}: final snapshot repeats across passes",
            lambda: outcome.snapshot_sha256 == reference.snapshot_sha256,
        )

    def _check_matches(self, engine, replica: int, t: int) -> None:
        """Indexed matching equals a full condition_matches scan."""
        with self._paused():
            for offset in (0, 1):
                self.checks.check(
                    f"replica {replica} step {t}: matching_entries(offset={offset}) "
                    "equals a full scan",
                    lambda: [e.entry_id for e in engine.db.matching_entries(engine.window, offset)]
                    == [
                        e.entry_id
                        for e in engine.db
                        if lookupdb.condition_matches(e, engine.window, offset)
                    ],
                )

    def _save_and_load(self, engine, phase: Phase, point: tuple) -> str | None:
        """Timed write_snapshot then read_snapshot; the read-back
        database must re-dump byte-identical to the file."""
        path = str(self.snapshot_path)
        config = engine.config
        try:
            started = time.perf_counter()
            lookupdb.write_snapshot(engine.db, config.alpha, config.theta, path)
            saved = time.perf_counter()
            loaded = lookupdb.read_snapshot(path)
            done = time.perf_counter()
        except Exception as exc:
            self.checks.attempted += 1
            self.checks.fail(f"snapshot save/load raised {exc!r}")
            return None
        text = self.snapshot_path.read_text(encoding="utf-8")
        with self._paused():
            self.checks.check(
                "snapshot re-dumps byte-identical to the file it was read from",
                lambda: lookupdb.dump_snapshot(*loaded) == text,
            )
        _keep_best(phase.best_save_ms, point, (saved - started) * 1e3)
        _keep_best(phase.best_load_ms, point, (done - saved) * 1e3)
        phase.snapshot_bytes.append(len(text.encode("utf-8")))
        return text

    def _check_end_state(self, engine, replica, phase, predictions, winners) -> None:
        checks = self.checks
        suggested = [p for p in predictions if p is not None]
        outside = sum(1 for p in suggested if p not in STEPS)
        checks.attempted += len(suggested)
        if outside:
            checks.fail(
                f"replica {replica}: {outside} suggestions outside the step universe", outside
            )
        mass = 0
        for entry in engine.db:
            slots = list(entry.slots.values())
            mass += sum(slot.total for slot in slots)
            checks.check(
                f"replica {replica} rule {entry.entry_id}: context counters sum to totals",
                lambda: all(sum(s.per_context.values()) == s.total for s in slots),
            )
        phase.rules_live.append(len(engine.db))
        phase.rules_won.append(len(set(winners)))
        phase.counter_mass.append(mass)

    @staticmethod
    def _outcome(observations, predictions, snapshot: str) -> Outcome:
        count = len(observations)
        tail_start = count - count // 3
        correct = tail_correct = tail_scored = 0
        for t, predicted in enumerate(predictions, start=1):
            hit = predicted is not None and predicted == observations[t].step
            correct += hit
            if t >= tail_start:
                tail_scored += 1
                tail_correct += hit
        text = "".join("-\n" if p is None else f"{p}\n" for p in predictions)
        return Outcome(
            _digest([text]), _digest([snapshot]), correct, len(predictions),
            tail_correct, tail_scored,
        )


def _percentiles(samples) -> tuple[float, float]:
    """p50 and p99, as statistics.quantiles(method='inclusive')."""
    if len(samples) < 2:
        return (float(samples[0]),) * 2 if samples else (0.0, 0.0)
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[49], cuts[98]


def _median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def end_to_end_metrics(phase: Phase, first_outcomes: dict[int, Outcome]) -> dict:
    outcomes = [first_outcomes[r] for r in sorted(first_outcomes)]
    scored = sum(o.scored for o in outcomes)
    tail = sum(o.tail_scored for o in outcomes)
    times = phase.step_times()
    p50, p99 = _percentiles(times)
    steps = len(times)
    scale = phase.speed_scale()
    return {
        "setup_s": (_median(phase.best_setup_s.values()) * scale, "s", len(phase.best_setup_s)),
        "steps_per_s": (phase.steps_per_s() / scale, "steps/s", steps),
        "step_us_p50": (p50 / 1e3 * scale, "us", steps),
        "step_us_p99": (p99 / 1e3 * scale, "us", steps),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1,
        ),
        "cum_accuracy": (
            sum(o.correct for o in outcomes) / scored if scored else 0.0, "ratio", scored,
        ),
        "tail_accuracy": (
            sum(o.tail_correct for o in outcomes) / tail if tail else 0.0, "ratio", tail,
        ),
        "save_ms_p50": (
            _median(phase.best_save_ms.values()) * scale, "ms", len(phase.best_save_ms),
        ),
        "load_ms_p50": (
            _median(phase.best_load_ms.values()) * scale, "ms", len(phase.best_load_ms),
        ),
    }


def layer_metrics(totals: tracing.LayerTotals, traced: Phase, untraced: Phase) -> dict:
    steps = traced.scored
    tally = totals.tally
    predicts = totals.calls["engine.predict"]
    relevance = tally["relevance_calls"]
    rules = sum(traced.rules_live)
    passes = traced.passes
    scale = traced.speed_scale()

    def us(name, self_time=False):
        return (totals.per_step_us(name, steps, self_time) * scale, "us/step", steps)

    def calls(name):
        return (totals.per_step_calls(name, steps), "calls/step", steps)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    parse_trace = totals.outside_ns.get("evaluation.parse_trace", [])
    dumps = totals.outside_ns.get("lookupdb.dump_snapshot", [])
    parses = totals.outside_ns.get("lookupdb.parse_snapshot", [])
    traced_rate = traced.steps_per_s() / scale
    untraced_rate = untraced.steps_per_s() / untraced.speed_scale()
    return {
        "evaluation.parse_trace_s": (_median(parse_trace) / 1e9 * scale, "s", len(parse_trace)),
        "window.push_us": us("window.push"),
        "window.context_at_calls": calls("window.context_at"),
        "engine.predict_us": us("engine.predict"),
        "engine.learn_us": us("engine.learn"),
        "engine.predict_self_us": us("engine.predict", self_time=True),
        "engine.learn_self_us": us("engine.learn", self_time=True),
        "engine.context_fit_us": us("engine.context_fit"),
        "engine.context_fit_calls": calls("engine.context_fit"),
        "engine.relevance_mean_us": us("engine.relevance_mean"),
        "engine.candidates_per_predict": (
            ratio(tally["candidates"], predicts), "entries", predicts,
        ),
        "engine.veto_ratio": (ratio(tally["vetoes"], relevance), "ratio", relevance),
        "engine.suggest_ratio": (ratio(tally["suggestions"], predicts), "ratio", predicts),
        "lookupdb.matching_entries_us": us("lookupdb.matching_entries"),
        "lookupdb.matching_entries_calls": calls("lookupdb.matching_entries"),
        "lookupdb.record_contexts_us": us("lookupdb.record_contexts"),
        "lookupdb.record_contexts_calls": calls("lookupdb.record_contexts"),
        "lookupdb.add_us": us("lookupdb.add"),
        "lookupdb.rules_added": (ratio(rules, steps), "rules/step", steps),
        "lookupdb.rules_live": (ratio(rules, passes), "rules", passes),
        "lookupdb.rules_won_ratio": (ratio(sum(traced.rules_won), rules), "ratio", rules),
        "lookupdb.counter_mass": (ratio(sum(traced.counter_mass), passes), "count", passes),
        "lookupdb.snapshot_bytes": (
            _median(traced.snapshot_bytes), "bytes", len(traced.snapshot_bytes),
        ),
        "lookupdb.dump_snapshot_ms": (_median(dumps) / 1e6 * scale, "ms", len(dumps)),
        "lookupdb.parse_snapshot_ms": (_median(parses) / 1e6 * scale, "ms", len(parses)),
        "python.gc_collections": (
            ratio(untraced.gc_collections, untraced.passes), "1/pass", untraced.passes,
        ),
        "trace.overhead_ratio": (
            ratio(untraced_rate, traced_rate) - 1 if traced_rate else 0.0,
            "ratio", traced.passes,
        ),
    }


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR,
    log=print,
) -> dict:
    """Run one workload; returns the result object printed last."""
    texts = trace_texts(workload, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot_path = out_dir / f"snapshot-{os.getpid()}.txt"
    replay = Replay(workload, texts, snapshot_path)
    checks = replay.checks
    untraced = Phase()
    try:
        checks.check("no tracer wrapper left before untraced passes",
                     lambda: not tracing.leftover_patches())
        replay.replay_for(untraced, seconds / 2 if trace else seconds)
        if trace:
            traced = Phase()
            totals = tracing.LayerTotals()
            with tracing.Tracer() as tracer:
                replay.tracer = tracer
                spans = replay.replay_for(traced, seconds / 2, totals)
            replay.tracer = None
            checks.check("tracer restored every patched attribute",
                         lambda: not tracing.leftover_patches())
            spans_path = out_dir / f"spans-{workload.name}.tsv"
            tracing.write_spans(spans, spans_path)
            metrics = layer_metrics(totals, traced, untraced)
            log(f"# spans of the last traced pass: {spans_path}")
            log(f"# absent layer functions: {', '.join(tracer.absent) or 'none'}")
            log(
                f"# tracing overhead: untraced {untraced.steps_per_s():.1f} steps/s, "
                f"traced {traced.steps_per_s():.1f} steps/s, as measured"
            )
        else:
            metrics = end_to_end_metrics(untraced, replay.first_outcomes)
    finally:
        snapshot_path.unlink(missing_ok=True)

    outcomes = [replay.first_outcomes[r] for r in sorted(replay.first_outcomes)]
    log(f"# digest predictions_sha256={_digest(o.predictions_sha256 for o in outcomes)}")
    log(f"# digest snapshot_sha256={_digest(o.snapshot_sha256 for o in outcomes)}")
    log(f"# passes: {untraced.passes} untraced" + (f", {traced.passes} traced" if trace else ""))
    log(f"# speed scale: {untraced.speed_scale():.4f} (timings x this = nominal machine speed)")
    for name, (value, unit, samples) in metrics.items():
        log(f"# metric {name} = {value:.6g} {unit} (n={samples})")
    ratio = checks.failed / checks.attempted if checks.attempted else 0.0
    log(f"# fail_ratio = {checks.failed}/{checks.attempted} = {ratio:.6g}")
    for note in checks.notes:
        log(f"# failed: {note}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = program_missing()
    if missing is not None:
        print(f"bench: {missing}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    print(f"# nextstep benchmark, workload {workload.name}: {workload.describe()}")
    print(f"# seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"# nproc={_nproc()} cpu={_cpu_model()!r} "
        f"python={platform.python_version()} ({platform.python_implementation()})"
    )
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
