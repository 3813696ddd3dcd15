"""The online predictor: score matching rules, learn from each step.

The engine keeps a sliding window of recent observations and a rule
database.  predict() suggests the best-scoring rule whose condition
matches the window's newest steps; learn() pushes the next observation
and then reinforces or decays the rules that matched one step earlier,
counts contexts only under those that predicted the step, and extends them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, NamedTuple

from .lookupdb import (
    ContextTable,
    Entry,
    LookupDB,
    SlotKey,
    context_fit,
    record_contexts,
    slot_keys,
    split_slot_key,
)
from .errors import UnknownIdError
from .window import (
    ClassificationId,
    Observation,
    ObservationWindow,
    StepId,
)

ENGINE_MODES = ("context", "baseline")
EXTENSION_DIRECTIONS = ("append-observation", "extend-into-past")

_BY_P = attrgetter("p")
_BY_ID = attrgetter("entry_id")


@dataclass(frozen=True)
class PredictorConfig:
    """All tunables; validated on construction, immutable afterwards."""

    alpha: float = 0.8
    theta: float = 0.5
    window_capacity: int = 10
    engine_mode: str = "context"
    extension_direction: str = "append-observation"

    def __post_init__(self) -> None:
        # A bool is an int to Python and would pass the range checks as
        # 0 or 1; it is rejected, as LookupDB.add rejects a bool p.
        for name in ("alpha", "theta"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, not a bool, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"theta must be in [0, 1), got {self.theta!r}")
        if not isinstance(self.window_capacity, int) or self.window_capacity < 2:
            raise ValueError(
                f"window capacity must be an int >= 2, got {self.window_capacity!r}"
            )
        _require_choice("engine_mode", self.engine_mode, ENGINE_MODES)
        _require_choice(
            "extension_direction", self.extension_direction, EXTENSION_DIRECTIONS
        )


def _require_choice(name: str, value: str, allowed: tuple[str, ...]) -> None:
    if value not in allowed:
        raise ValueError(f"{name} must be one of {', '.join(allowed)}; got {value!r}")


def relevance_mean(strong: list[float] | None) -> float:
    """Mean of context_fit()'s strong weights, a fit in [0, 1].

    No evidence at all (None) means nothing speaks against the entry: 1.
    Evidence where no weight clears theta ([]) vetoes the entry: 0.
    Every weight is a count over a total, so the mean never exceeds 1;
    predict() relies on that to stop scoring once no entry can win.
    """
    if strong is None:
        return 1.0
    if not strong:
        return 0.0
    return sum(strong) / len(strong)


class PredictionResult(NamedTuple):
    """The winning suggestion and the rule it came from.

    A named tuple: its fields cannot be reassigned, and it is built for
    about half the cost of a frozen dataclass, once per predict().
    """

    step: StepId
    actual_p: float
    entry_id: int
    condition: tuple[StepId, ...]


@dataclass
class Engine:
    """Online next-step predictor over declared step and context universes."""

    config: PredictorConfig
    steps: Iterable[StepId]
    classifications: Iterable[ClassificationId] = ()
    db: LookupDB = field(default_factory=LookupDB)

    def __post_init__(self) -> None:
        self.window = ObservationWindow(
            self.config.window_capacity, self.steps, self.classifications
        )
        self.steps = self.window.steps
        self.classifications = self.window.classifications
        for entry in self.db:
            for step in entry.condition + (entry.prediction,):
                if step not in self.steps:
                    raise UnknownIdError(
                        f"entry {entry.entry_id} uses step {step!r}, "
                        "which is not declared"
                    )
            for key in entry.slots:
                cc, _ = split_slot_key(key)
                if cc not in self.classifications:
                    raise UnknownIdError(
                        f"entry {entry.entry_id} uses classification {cc!r}, "
                        "which is not declared"
                    )
        # Grown by _state() as the window fills: every rule's counters
        # reuse these keys, and their sorted order keeps evidence order
        # stable.  predict() and learn() read them after _state().
        self._slot_keys: list[tuple[tuple[ClassificationId, SlotKey], ...]] = []
        self._last_prediction: StepId | None = None
        # The last state read and the state it belongs to: the db, its
        # size, the window and its push count.  LookupDB and
        # ObservationWindow define no __eq__, so stamps compare them by
        # identity.
        self._stamp: tuple[LookupDB, int, ObservationWindow, int] | None = None
        self._memo: tuple[list[Entry], list, ContextTable] = ([], [], [])

    def _state(self) -> tuple[list[Entry], list, ContextTable]:
        """The window's matches, their trie path and its context table.

        The matches and path are LookupDB.walk's, the matches in trie
        order: shortest condition first, each condition's rules in id
        order.  Only the growth step needs id order, and it sorts the
        few parents learn() picks.  Nothing modifies the matches or the
        table; the path grows only as learn() stores rules on it.  Rules
        are only ever added, so the state is read again only when the
        db, its size, the window or its push count changed: a grown path
        is never read again.  predict() and learn() share one read per
        state.  A correct learn() reads the window after its push before
        it stores any rule, and the next predict() reuses that read when
        no rule was added.
        """
        window = self.window
        stamp = (self.db, len(self.db), window, window.pushes)
        if stamp != self._stamp:
            keys = self._slot_keys
            if len(keys) < len(window):
                keys.extend(slot_keys(self.classifications, len(window), len(keys)))
            self._stamp = stamp
            self._memo = (*self.db.walk(window), window.context_table())
        return self._memo

    def predict(self) -> PredictionResult | None:
        """Suggest the next step, or None when no rule matches.

        The winner has the highest actual p = fit * p; ties go to the
        shorter condition, then the higher p, then the older entry.  A
        fit is at most 1, so actual p never exceeds p: matches are
        scored in descending p and the scan stops at the first whose p
        is below the best actual p so far, as neither it nor any later
        match can win.  An equal p can still tie, so it is scored.
        The sort is stable and the tie key ends in the entry id, so the
        order the matches come in (trie order) does not change the
        winner.  The suggestion is remembered and scored by the next
        learn().
        """
        matches, _, table = self._state()
        keys = self._slot_keys
        scoring = self.config.engine_mode == "context"
        best: Entry | None = None
        best_key: tuple[float, int, float, int] | None = None
        best_actual_p = 0.0
        for entry in sorted(matches, key=_BY_P, reverse=True):
            if entry.p < best_actual_p:
                break
            if scoring:
                fit = relevance_mean(
                    context_fit(entry, table, keys, self.config.theta)
                )
            else:
                fit = 1.0
            actual_p = fit * entry.p
            key = (-actual_p, len(entry.condition), -entry.p, entry.entry_id)
            if best_key is None or key < best_key:
                best, best_key, best_actual_p = entry, key, actual_p
        if best is None:
            self._last_prediction = None
            return None
        self._last_prediction = best.prediction
        return PredictionResult(
            best.prediction, best_actual_p, best.entry_id, best.condition
        )

    def learn(self, observation: Observation) -> bool | None:
        """Ingest the step that actually happened and update every rule.

        Returns whether the open prediction was right, or None when
        there was none to score.  Order matters and is fixed: take the
        rules matching the window before the push, with that window's
        context table and newest step, push the observation, score the
        open prediction, and on a correct step take the rules matching
        the window after the push.  Then one loop over the rules taken
        before the push reinforces or decays each, collects the ones
        that predicted the step and, on a correct step, picks the
        parents that lack a child.  The p children inherit is read only
        when some parent grows, before the fresh length-1 rule is
        stored; the rules that predicted the step and that fresh rule
        count contexts in one record_contexts() call, from that table,
        the span they matched; then the picked parents grow.  A rule
        that missed counts nothing.

        A child is a suffix of the window, after the push when it
        appends the observation and before it when it extends into the
        past.  Either way it stays shorter than the window after the
        push, so no child is as long as ``window_capacity``.  The child
        of a rule of length L exists iff node L of that window's walk
        path holds the parent's prediction; the db is never probed.  The
        pick reads those nodes before anything is stored, and since no
        two children share a length and a prediction, it does not
        depend on the order the rules come in.
        """
        window = self.window
        matches, walked, table = self._state()
        keys = self._slot_keys
        previous = window.step_at(0) if table else None
        window.push(observation)
        step = observation.step
        correct: bool | None = None
        if self._last_prediction is not None:
            correct = self._last_prediction == step
        if correct:
            # The walk reads no p, so the post-push read may come before
            # the updates; it must come before any rule is stored.
            pushed = self._state()[1]
            append = self.config.extension_direction == "append-observation"
            path = pushed if append else walked
            depth = len(path)
            # A rule of this length or longer has a child as long as the
            # window after the push, or longer.
            limit = len(window) - 1
        alpha = self.config.alpha
        gain = 1.0 - alpha
        counted = []
        growing = []
        # A hit reinforces toward 1 and is counted below; a miss decays
        # toward 0.
        for entry in matches:
            prediction = entry.prediction
            if prediction == step:
                entry.p = alpha * entry.p + gain
                counted.append(entry)
            else:
                entry.p = alpha * entry.p
            if correct:
                length = len(entry.condition)
                if length < limit and (
                    length >= depth or prediction not in path[length].rules
                ):
                    growing.append(entry)
        if growing:
            # Read before the pair rule is stored: the pushed nodes are
            # live, and the pair rule lands on their path when
            # previous == step.
            inherit_p = self._inherited_p(pushed)
        # The pair rule (previous,)->step sits at the pre-push walk's
        # first node, if the walk got that far.  An empty walk gains that
        # node; it matched nothing, so no child is stored on it.
        if previous is not None:
            if not walked or step not in walked[0].rules:
                pair = self.db.add_on_path(walked, (previous,), step, gain)
                counted.append(pair)
        if counted:
            record_contexts(counted, table, keys)
        if growing:
            self._extend(growing, path, step, inherit_p)
        self._last_prediction = None
        return correct

    def _inherited_p(self, pushed: list) -> float:
        """The p new children start with.

        It is the highest p among the longest rules with p > 0 on
        ``pushed``, the walk path of the window after the push: the ones
        prediction would lean on now.  With no such rule it is 1 - alpha,
        the p of a fresh pair rule.
        """
        for node in reversed(pushed):
            best = 0.0
            for entry in node.rules.values():
                p = entry.p
                if p > best:
                    best = p
            if best > 0.0:
                return best
        return 1.0 - self.config.alpha

    def _extend(
        self, growing: list[Entry], path: list, step: StepId, inherit_p: float
    ) -> None:
        """Store one child for each parent in ``growing``.

        learn() picked the parents, in the walk's trie order, and only
        calls this when there is one.  Children start at ``inherit_p``;
        ``path`` is the walk path the pick read, of the window after the
        push when appending and before it when extending into the past,
        and ``step`` is the newest step.  The parents are sorted by id
        when there are two or more, so children get their ids in their
        parents' id order.

        Children are stored straight on that path by add_on_path, from
        the node of their length, or from the path's end where the walk
        stopped short.  Their steps come from the parent and the window,
        which checked them, so no id is checked again.  The path grows
        with the nodes made for it, so a later child reuses them.
        """
        append = self.config.extension_direction == "append-observation"
        if len(growing) > 1:
            growing.sort(key=_BY_ID)
        step_at = self.window.step_at
        add_on_path = self.db.add_on_path
        for parent in growing:
            condition = parent.condition
            if append:
                condition += (step,)
            else:
                # Prepend the step just older than the span the parent
                # matched, which sits at window index -(len(condition) + 1).
                condition = (step_at(-len(condition) - 1),) + condition
            # Children start with empty counters on purpose: copying the
            # parent's counters lets statistics gathered by a wrong
            # ancestor outvote everything the child itself ever observes,
            # because old counts never decay.  An empty slot set scores
            # as "nothing speaks against it" until the child earns its
            # own evidence.
            add_on_path(path, condition, parent.prediction, inherit_p)
