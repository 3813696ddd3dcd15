"""Outside-in layer tracing: wrap the program's public layer functions.

The tracer patches module attributes and class methods of the
``nextstep`` package with wrappers that record one span per call
(name, start, end, parent span, step id) in memory.  Nothing inside the
program changes; ``restore()`` puts every original back.  A target that
no longer exists is reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (layer name, module, class or None, attribute).  Module attributes are
# patched where the caller looks them up: the engine imports
# record_contexts by name, and write_snapshot/read_snapshot call
# dump_snapshot/parse_snapshot through the lookupdb module globals.
TIMED = (
    ("evaluation.parse_trace", "nextstep.evaluation", None, "parse_trace"),
    ("window.push", "nextstep.window", "ObservationWindow", "push"),
    ("engine.predict", "nextstep.engine", "Engine", "predict"),
    ("engine.learn", "nextstep.engine", "Engine", "learn"),
    ("engine.context_fit", "nextstep.engine", None, "context_fit"),
    ("engine.relevance_mean", "nextstep.engine", None, "relevance_mean"),
    ("lookupdb.matching_entries", "nextstep.lookupdb", "LookupDB", "matching_entries"),
    ("lookupdb.record_contexts", "nextstep.engine", None, "record_contexts"),
    ("lookupdb.add", "nextstep.lookupdb", "LookupDB", "add"),
    ("lookupdb.dump_snapshot", "nextstep.lookupdb", None, "dump_snapshot"),
    ("lookupdb.parse_snapshot", "nextstep.lookupdb", None, "parse_snapshot"),
)
# Called hundreds of times per step: counted, never timed.
COUNTED = (("window.context_at", "nextstep.window", "ObservationWindow", "context_at"),)

_MARK = "_bench_tracer_wrapper"


def _owner(module: str, cls: str | None):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return owner if cls is None else getattr(owner, cls, None)


def leftover_patches() -> list[str]:
    """Names of targets that currently hold a tracer wrapper."""
    left = []
    for name, module, cls, attr in TIMED + COUNTED:
        owner = _owner(module, cls)
        if owner is not None and getattr(getattr(owner, attr, None), _MARK, False):
            left.append(name)
    return left


class Tracer:
    """Span recorder; use as a context manager around traced work.

    ``step`` is the scored step a span belongs to, or None outside the
    step loop (set-up, snapshots).  While ``paused`` the wrappers pass
    straight through, so the benchmark's own checks leave no spans.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter[str] = Counter()
        self.tally: Counter[str] = Counter()
        self.step: int | None = None
        self.paused = False
        self.absent: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for name, module, cls, attr in TIMED:
            self._patch(name, module, cls, attr, self._timed)
        for name, module, cls, attr in COUNTED:
            self._patch(name, module, cls, attr, self._counted)

    def restore(self) -> None:
        """Put every original back."""
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def pausing(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _patch(self, name, module, cls, attr, make) -> None:
        owner = _owner(module, cls)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return
        owned = attr in vars(owner)
        wrapper = make(name, original)
        setattr(wrapper, _MARK, True)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, owned))

    def _timed(self, name, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else (-1, None)
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent[0], self.step)
            if observe is not None and self.step is not None:
                observe(self.tally, result, parent[1])
            return result

        return wrapper

    def _counted(self, name, original):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.paused and self.step is not None:
                counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def drain(self, totals: "LayerTotals") -> list:
        """Fold the recorded spans into ``totals``; return and forget them."""
        spans, self.spans[:] = list(self.spans), []
        totals.add(spans, self.counts, self.tally)
        self.counts.clear()
        self.tally.clear()
        return spans


def _observe_matching(tally, result, parent):
    if parent == "engine.predict":
        tally["candidates"] += len(result)


def _observe_relevance(tally, result, parent):
    tally["relevance_calls"] += 1
    tally["vetoes"] += result == 0.0


def _observe_predict(tally, result, parent):
    tally["suggestions"] += result is not None


_OBSERVERS = {
    "lookupdb.matching_entries": _observe_matching,
    "engine.relevance_mean": _observe_relevance,
    "engine.predict": _observe_predict,
}


class LayerTotals:
    """Per-layer sums over traced steps, and per-call samples outside them."""

    def __init__(self) -> None:
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.tally: Counter[str] = Counter()
        self.outside_ns: defaultdict[str, list[int]] = defaultdict(list)

    def add(self, spans, counts, tally) -> None:
        child_ns = [0] * len(spans)
        for name, start, end, parent, step in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, parent, step), inner in zip(spans, child_ns):
            duration = end - start
            if step is None:
                self.outside_ns[name].append(duration)
                continue
            self.total_ns[name] += duration
            self.self_ns[name] += duration - inner
            self.calls[name] += 1
        self.calls.update(counts)
        self.tally.update(tally)

    def per_step_us(self, name: str, steps: int, self_time: bool = False) -> float:
        source = self.self_ns if self_time else self.total_ns
        return source[name] / steps / 1e3 if steps else 0.0

    def per_step_calls(self, name: str, steps: int) -> float:
        return self.calls[name] / steps if steps else 0.0


def write_spans(spans, path) -> None:
    """Tab-separated spans: name, start_ns, end_ns, parent index, step."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("name\tstart_ns\tend_ns\tparent\tstep\n")
        for name, start, end, parent, step in spans:
            handle.write(f"{name}\t{start}\t{end}\t{parent}\t{-1 if step is None else step}\n")
