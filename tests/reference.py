"""Brute-force shadow implementation used as the test oracle.

Everything here is recomputed from first principles with plain lists
and dicts: the window keeps newest last, entries are dicts, there is
no condition index, and every match is a literal slice comparison.
Agreement between this and the package is what the property tests
check; the two must never share code.

The trace reader's oracle is the reader as it stood before it was made
lean: ``parse_record``, ``parse_trace`` and ``derive_universes``, with
the two number checks they call, copied unchanged.  It builds each
observation through the public ``Observation`` constructor.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from nextstep.errors import TraceFormatError
from nextstep.window import Observation


def closed_form_correct(p0: float, alpha: float, k: int) -> float:
    """p after k consecutive correct updates from p0."""
    return 1.0 - (alpha ** k) * (1.0 - p0)


def closed_form_incorrect(p0: float, alpha: float, k: int) -> float:
    """p after k consecutive incorrect updates from p0."""
    return (alpha ** k) * p0


def find_entry(db, condition, prediction):
    """The entry of ``db`` with exactly this condition and prediction, or
    None, found by a linear scan over every entry."""
    condition = tuple(condition)
    for entry in db:
        if entry.condition == condition and entry.prediction == prediction:
            return entry
    return None


def brute_match(condition: list[int], steps_newest_first: list[int], offset: int) -> bool:
    """Literal slice comparison; window given newest first."""
    length = len(condition)
    if length + offset > len(steps_newest_first):
        return False
    oldest_first = list(reversed(steps_newest_first))
    # condition occupies the slice ending `offset` records before the end
    end = len(oldest_first) - offset
    return oldest_first[end - length:end] == list(condition)


class RefEngine:
    """Minimal re-derivation of the predictor, newest-last layout."""

    def __init__(self, alpha=0.8, theta=0.5, capacity=10, mode="context",
                 direction="append-observation",
                 classifications=()):
        self.alpha = alpha
        self.theta = theta
        self.capacity = capacity
        self.mode = mode
        self.direction = direction
        self.classifications = sorted(classifications)
        self.win = []          # (step, contexts dict), newest LAST
        self.entries = []      # dicts: cond, pred, p, slots
        self.pending = None

    # -- window helpers, all relative to the newest element ------------

    def _step_at(self, index):
        # index 0 is newest, -1 one older, ...
        return self.win[len(self.win) - 1 + index][0]

    def _contexts_at(self, index):
        return self.win[len(self.win) - 1 + index][1]

    def _matches(self, entry):
        cond = entry["cond"]
        if len(cond) > len(self.win):
            return False
        for j, want in enumerate(cond):
            # element j sits at window index j - (len-1)
            if self._step_at(j - (len(cond) - 1)) != want:
                return False
        return True

    # -- scoring --------------------------------------------------------

    def evidence(self, entry):
        """(index, classification, context, weight), oldest index first."""
        out = []
        for i in range(1 - len(entry["cond"]), 1):
            for cc in self.classifications:
                ctx = self._contexts_at(i).get(cc)
                if ctx is None:
                    continue
                slot = entry["slots"].get((cc, i))
                if not slot:
                    continue
                total = sum(slot.values())
                out.append((i, cc, ctx, slot.get(ctx, 0) / total))
        return out

    def _relevance(self, entry):
        weights = [weight for _, _, _, weight in self.evidence(entry)]
        if not weights:
            return 1.0
        above = [w for w in weights if w > self.theta]
        if not above:
            return 0.0
        return sum(above) / len(above)

    def predict(self):
        scored = []
        for entry_id, entry in enumerate(self.entries):
            if not self._matches(entry):
                continue
            fit = self._relevance(entry) if self.mode == "context" else 1.0
            scored.append((entry_id, entry, fit, fit * entry["p"]))
        if not scored:
            self.pending = None
            return None
        best = min(scored, key=lambda s: (-s[3], len(s[1]["cond"]), -s[1]["p"], s[0]))
        self.pending = best[1]["pred"]
        return (best[1]["pred"], best[3], best[0])

    # -- learning -------------------------------------------------------

    def _record(self, entry):
        for i in range(1 - len(entry["cond"]), 1):
            for cc, ctx in self._contexts_at(i).items():
                slot = entry["slots"].setdefault((cc, i), {})
                slot[ctx] = slot.get(ctx, 0) + 1

    def learn(self, step, contexts):
        # everything up to the extension reads the window before the push
        correct = None
        if self.pending is not None:
            correct = self.pending == step
        prior = len(self.entries)
        matched = [e for e in self.entries if self._matches(e)]
        for entry in matched:
            hit = entry["pred"] == step
            entry["p"] = (self.alpha * entry["p"] + (1.0 - self.alpha)
                          if hit else self.alpha * entry["p"])
            if hit:
                self._record(entry)
        if self.win:
            cond = (self._step_at(0),)
            if not any(e["cond"] == cond and e["pred"] == step
                       for e in self.entries):
                entry = {"cond": cond, "pred": step,
                         "p": 1.0 - self.alpha, "slots": {}}
                self.entries.append(entry)
                self._record(entry)
        self.win.append((step, dict(contexts)))
        if len(self.win) > self.capacity:
            self.win.pop(0)
        if correct:
            self._extend(matched, prior)
        self.pending = None
        return correct

    def _extend(self, matched, prior):
        donors = [(i, e) for i, e in enumerate(self.entries[:prior])
                  if e["p"] > 0.0 and self._matches(e)]
        if donors:
            inherit = min(donors,
                          key=lambda d: (-len(d[1]["cond"]), -d[1]["p"], d[0]))[1]["p"]
        else:
            inherit = 1.0 - self.alpha
        for parent in matched:
            length = len(parent["cond"])
            # a child stays shorter than the window after the push
            if length + 2 > len(self.win):
                continue
            if self.direction == "append-observation":
                cond = parent["cond"] + (self._step_at(0),)
            else:
                cond = (self._step_at(-length - 1),) + parent["cond"]
            if any(e["cond"] == cond and e["pred"] == parent["pred"]
                   for e in self.entries):
                continue
            self.entries.append({"cond": cond, "pred": parent["pred"],
                                 "p": inherit, "slots": {}})

    # -- state fingerprint for equality checks --------------------------

    def state(self):
        out = []
        for entry in self.entries:
            slots = {key: dict(sorted(slot.items()))
                     for key, slot in sorted(entry["slots"].items()) if slot}
            out.append((entry["cond"], entry["pred"], entry["p"], slots))
        return out


# -- trace reader oracle ----------------------------------------------------


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


def parse_record(text: str) -> Observation:
    """One trace line to an observation; raises ValueError on bad syntax.

    ``text`` is the raw line: its characters are checked before it is
    stripped, so non-ASCII whitespace around the fields is rejected as
    the snapshot reader rejects it.
    """
    # reject_loose_numbers' test, inline, as in lookupdb.parse_snapshot.
    if not text.isascii() or "_" in text or "+" in text:
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
    return Observation(step, contexts)


def parse_trace(lines: Iterable[str]) -> list[Observation]:
    """Parse trace lines; errors carry the 1-based line number."""
    observations = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            observations.append(parse_record(raw))
        except ValueError as exc:
            raise TraceFormatError(line_no, str(exc)) from None
    return observations


def derive_universes(
    observations: Sequence[Observation],
) -> tuple[frozenset[int], frozenset[int]]:
    """Step and classification universes actually used by a trace."""
    if not observations:
        raise ValueError("trace is empty")
    steps = frozenset(obs.step for obs in observations)
    classifications = frozenset(
        cc for obs in observations for cc in obs.contexts
    )
    return steps, classifications
