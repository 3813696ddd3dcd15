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

The snapshot slot reader's oracle is the ``ctx:count`` pair loop of
``lookupdb._parse_slot`` and the second walk over the tokens that named
its error, as they stood before that error was named in one pass.

The snapshot oracle is ``dump_snapshot``, ``parse_snapshot`` and
``_parse_slot`` as they stood before the reader kept the reading of
each slot line and the dump the text of each ``ctx:count`` pair and of
each counter list (the dump sorts and formats every slot's pairs), and
``_parse_entry`` as it stood before the reader kept the reading of each
counter list and ``cond=`` token, with the three field helpers they
call, copied unchanged.  It builds the package's own database types,
stores every rule through the package's ``LookupDB.add``, which checks
it from scratch and walks the trie from the root, packs keys with the
package's ``slot_key`` and reads header lines with the package's
``_parse_header``.
"""

from __future__ import annotations

import io
from typing import Iterable, NoReturn, Sequence, TextIO

from nextstep.errors import SnapshotFormatError, TraceFormatError
from nextstep.lookupdb import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    ContextSlot,
    Entry,
    LookupDB,
    SlotKey,
    _parse_header,
    slot_key,
    split_slot_key,
)
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


# -- snapshot slot pair oracle ----------------------------------------------


def parse_pairs(tokens: list[str]) -> tuple[dict[int, int], int]:
    """A slot line's ``ctx:count`` tokens as per-context counts and their sum."""
    per_context: dict[int, int] = {}
    summed = 0
    try:
        for token in tokens:
            ctx_text, _, count_text = token.partition(":")
            ctx = int(ctx_text)
            count = int(count_text)
            if ctx < 0 or count < 1 or ctx in per_context:
                raise ValueError
            per_context[ctx] = count
            summed += count
    except ValueError:
        _raise_pair_error(tokens)
    return per_context, summed


def _raise_pair_error(tokens: list[str]) -> NoReturn:
    """Raise the error of the first bad ``ctx:count`` token, checked one by one."""
    seen: set[int] = set()
    for token in tokens:
        ctx_text, _, count_text = token.partition(":")
        ctx = parse_id(ctx_text, "context id")
        count = parse_id(count_text, "context count")
        if count < 1:
            raise ValueError(f"context count {count} must be positive")
        if ctx in seen:
            raise ValueError(f"duplicate context {ctx} in slot")
        seen.add(ctx)
    raise AssertionError(f"no bad pair among {tokens!r}")


# -- snapshot oracle --------------------------------------------------------


def dump_snapshot(db: LookupDB, alpha: float, theta: float) -> str:
    """Canonical snapshot text, each line ending in a newline.

    ``alpha`` and ``theta`` are written as floats, as parse_snapshot
    reads them back, so an int 0 re-dumps as the same ``0.0``.
    """
    lines = [
        f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} "
        f"alpha={float(alpha)!r} theta={float(theta)!r}\n"
    ]
    # "S <cc> <index> total=" of each distinct slot key, decoded once.
    heads: dict[SlotKey, str] = {}
    for entry in db:
        cond = ",".join(str(step) for step in entry.condition)
        lines.append(f"E {entry.entry_id} cond={cond} pred={entry.prediction} p={entry.p!r}\n")
        # Int keys sort as their (cc, index) pairs do.
        for key, slot in sorted(entry.slots.items()):
            head = heads.get(key)
            if head is None:
                cc, index = split_slot_key(key)
                head = heads[key] = f"S {cc} {index} total="
            pairs = " ".join(
                f"{ctx}:{count}" for ctx, count in sorted(slot.per_context.items())
            )
            lines.append(f"{head}{slot.total} {pairs}\n")
    return "".join(lines)


def parse_snapshot(source: str | TextIO) -> tuple[LookupDB, float, float]:
    """Parse a snapshot line by line, validating every structural invariant.

    Blank lines, ``#`` comment lines, any whitespace between fields and
    ``\\r\\n`` line ends are accepted.  Returns the database plus the
    alpha and theta it was written with.  Raises SnapshotFormatError
    with the offending 1-based line number.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    db = LookupDB()
    alpha: float | None = None
    theta = 0.0
    current: Entry | None = None
    # One shared int per distinct slot key, made once per (cc, index).
    keys: dict[tuple[int, int], SlotKey] = {}
    for line_no, raw in enumerate(source, start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        tag = tokens[0]
        try:
            # reject_loose_numbers' test, inline: a call per line would
            # cost more than the test.
            if not raw.isascii() or "_" in raw or "+" in raw:
                reject_loose_numbers(raw)
            # Slot lines are most of a snapshot: test their tag first.
            if tag == "S" and alpha is not None:
                _parse_slot(tokens, current, keys)
            elif alpha is None:
                alpha, theta = _parse_header(tokens)
            elif tag == "E":
                current = _parse_entry(tokens, db)
            else:
                raise ValueError(f"unknown line tag {tag!r}")
        except ValueError as exc:
            raise SnapshotFormatError(line_no, str(exc)) from None
    if alpha is None:
        raise SnapshotFormatError(1, "missing snapshot header")
    return db, alpha, theta


def _parse_entry(tokens: list[str], db: LookupDB) -> Entry:
    if len(tokens) != 5:
        raise ValueError("entry line needs: E <id> cond=... pred=... p=...")
    entry_id = parse_id(tokens[1], "entry id")
    if entry_id != len(db):
        raise ValueError(f"entry id {entry_id} out of order, expected {len(db)}")
    cond_text = _field_value(tokens[2], "cond")
    try:
        condition = tuple(map(int, cond_text.split(",")))
    except ValueError:
        raise ValueError(f"bad condition {cond_text!r}") from None
    prediction = parse_id(_field_value(tokens[3], "pred"), "prediction")
    # db.add rejects a negative step, a p outside [0, 1] and a repeated pair.
    return db.add(condition, prediction, _parse_float_field(tokens[4], "p"))


def _parse_slot(
    tokens: list[str], entry: Entry | None, keys: dict[tuple[int, int], SlotKey]
) -> None:
    if entry is None:
        raise ValueError("slot line before any entry line")
    if len(tokens) < 4:
        raise ValueError("slot line needs: S <cc> <index> total=<n> ctx:count...")
    cc = parse_id(tokens[1], "classification id")
    index = _parse_signed_int(tokens[2], "condition index")
    if not 1 - len(entry.condition) <= index <= 0:
        raise ValueError(f"condition index {index} outside [{1 - len(entry.condition)}, 0]")
    pair = (cc, index)
    key = keys.get(pair)
    if key is None:
        key = keys[pair] = slot_key(cc, index)
    if key in entry.slots:
        raise ValueError(f"duplicate slot for classification {cc} index {index}")
    total = parse_id(_field_value(tokens[3], "total"), "total")
    if total < 1:
        raise ValueError(f"slot total {total} must be positive")
    per_context: dict[int, int] = {}
    summed = 0
    try:
        for token in tokens[4:]:
            ctx_text, _, count_text = token.partition(":")
            ctx = int(ctx_text)
            count = int(count_text)
            if ctx < 0 or count < 1 or ctx in per_context:
                raise ValueError
            per_context[ctx] = count
            summed += count
    except ValueError:
        # The loop stopped at the first bad pair; name what is wrong with it.
        ctx = parse_id(ctx_text, "context id")
        count = parse_id(count_text, "context count")
        if count < 1:
            raise ValueError(f"context count {count} must be positive")
        raise ValueError(f"duplicate context {ctx} in slot")
    if summed != total:
        raise ValueError(f"context counts sum to {summed}, total says {total}")
    entry.slots[key] = ContextSlot(total, per_context)


def _field_value(token: str, name: str) -> str:
    key, _, value = token.partition("=")
    if key != name or not value:
        raise ValueError(f"expected {name}=<value>, got {token!r}")
    return value


def _parse_signed_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def _parse_float_field(token: str, name: str) -> float:
    text = _field_value(token, name)
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad {name} {text!r}") from None
