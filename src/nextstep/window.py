"""Observations and the sliding window over the most recent ones.

An observation is one enacted step plus whatever context was known at
that moment, as a partial mapping from classification id to context id.
The window keeps the newest ``capacity`` observations and addresses
them relative to now: index 0 is the newest, -1 the one before, and so
on back to ``-(len - 1)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import UnknownIdError, WindowRangeError

StepId = int
ClassificationId = int
ContextId = int


@dataclass(frozen=True, slots=True)
class Observation:
    """One enacted step and the context ids known for it.

    ``contexts`` maps classification id to context id and may cover any
    subset of the declared classifications, including none.  It is a
    read-only view of a dict the observation owns, so an observation is
    a value: one can stand for every repeat of a trace line.
    """

    step: StepId
    contexts: Mapping[ClassificationId, ContextId] = field(default_factory=dict)
    # The dict behind the view.  The window and the trace reader read
    # it directly, as the scoring loops' .get is faster on a dict.
    _contexts: dict[ClassificationId, ContextId] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Copy the mapping so that edits to the caller's dict do not leak in.
        contexts = dict(self.contexts)
        _set_dict(self, contexts)
        _set_view(self, MappingProxyType(contexts))

    def __reduce__(self) -> tuple:
        # The view neither pickles nor deep-copies; the dict does.
        return Observation, (self.step, self._contexts)


# The slots' own setters: the frozen __setattr__ refuses them, and
# object.__setattr__ looks each one up by name, which made a parse of
# 20,000 distinct trace lines about a tenth slower.
_set_step = Observation.step.__set__
_set_dict = Observation._contexts.__set__
_set_view = Observation.contexts.__set__


def _owning_observation(
    step: StepId, contexts: dict[ClassificationId, ContextId]
) -> Observation:
    """An Observation that takes ``contexts`` over instead of copying it.

    The caller vouches that ``contexts`` is a dict it built itself,
    shared with nothing, and that it will not touch it again: from here
    on the observation owns it.  The trace reader builds one fresh dict
    per distinct record and hands it over this way; every other caller
    goes through ``Observation(...)``, which copies its mapping.
    """
    observation = object.__new__(Observation)
    _set_step(observation, step)
    _set_dict(observation, contexts)
    _set_view(observation, MappingProxyType(contexts))
    return observation


class ObservationWindow:
    """Fixed-capacity history of the most recent observations.

    Pushing a new observation evicts the oldest once ``capacity`` is
    reached.  Reads outside the populated range raise WindowRangeError;
    pushes referencing undeclared ids raise UnknownIdError and leave
    the window untouched.
    """

    def __init__(
        self,
        capacity: int,
        steps: Iterable[StepId],
        classifications: Iterable[ClassificationId] = (),
    ):
        if capacity < 2:
            raise ValueError(f"window capacity must be at least 2, got {capacity}")
        self.capacity = capacity
        self.steps = frozenset(steps)
        self.classifications = frozenset(classifications)
        if not self.steps:
            raise ValueError("step universe must not be empty")
        for step in self.steps:
            _require_id("step", step)
        for cc in self.classifications:
            _require_id("classification", cc)
        self._entries: deque[Observation] = deque(maxlen=capacity)
        # Successful pushes so far; lets a reader tell whether the
        # window moved since it last looked.
        self.pushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, observation: Observation) -> None:
        """Append the newest observation, validating it first."""
        step = observation.step
        if not isinstance(step, int) or isinstance(step, bool) or step not in self.steps:
            raise UnknownIdError(f"step {step!r} is not declared")
        for cc, ctx in observation._contexts.items():
            if not isinstance(cc, int) or isinstance(cc, bool) or cc not in self.classifications:
                raise UnknownIdError(f"classification {cc!r} is not declared")
            if not isinstance(ctx, int) or isinstance(ctx, bool) or ctx < 0:
                raise UnknownIdError(f"context id {ctx!r} must be a non-negative int")
        self._entries.appendleft(observation)
        self.pushes += 1

    def step_at(self, index: int) -> StepId:
        """Step observed ``-index`` steps ago; 0 is the newest."""
        if not -len(self._entries) < index <= 0:
            if not self._entries:
                raise WindowRangeError(f"index {index} read from an empty window")
            raise WindowRangeError(
                f"index {index} outside populated range [{1 - len(self._entries)}, 0]"
            )
        return self._entries[-index].step

    def newest_first(self, offset: int = 0) -> Iterator[Observation]:
        """Observations from window index ``-offset`` back to the oldest.

        Yields the observations at ``-offset``, ``-offset - 1``, ... and
        nothing when ``offset`` reaches past the oldest one.  The
        iterator reads the live window: push nothing while using it.
        """
        if offset < 0:
            raise WindowRangeError(f"offset {offset} must not be negative")
        if not offset:
            # The engine's every walk: the deque's own iterator skips
            # islice's per-item step.
            return iter(self._entries)
        return islice(self._entries, offset, None)

    def context_table(self) -> list[dict[ClassificationId, ContextId]]:
        """Context dicts of every populated position, newest first.

        ``table[-index]`` is the dict at window index ``index``.  The
        dicts are the ones behind the observations' views, for a fast
        .get, and must not be modified.
        """
        return [observation._contexts for observation in self._entries]


def _require_id(kind: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{kind} id {value!r} must be a non-negative int")


def reject_loose_numbers(text: str) -> None:
    """Reject what int(), float() and str.split() accept beyond the text formats.

    Those are ``_`` digit separators, a leading ``+``, non-ASCII digits
    and non-ASCII whitespace; a line holding any of them is checked by
    one test, not token by token.
    """
    if text.isascii() and "_" not in text and "+" not in text:
        return
    bad = next(ch for ch in text if ch in "_+" or not ch.isascii())
    if bad.isspace():
        raise ValueError(
            f"character {bad!r} is not allowed: fields are separated by ASCII whitespace"
        )
    raise ValueError(
        f"character {bad!r} is not allowed: numbers are ASCII digits, "
        "without '_' or '+'"
    )


def parse_id(text: str, what: str) -> int:
    """``text`` as a non-negative id; ``what`` names it in the error."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None
    if value < 0:
        raise ValueError(f"{what} {value} must not be negative")
    return value
