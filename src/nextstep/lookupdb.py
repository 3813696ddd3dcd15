"""Rule storage: conditions over recent steps, context counters, snapshots.

Each entry pairs a condition (a run of consecutive steps, oldest first)
with a predicted next step, a reinforcement probability, and per-index
context counters.  The database enforces that no two entries share the
same (condition, prediction) pair and answers "which entries match the
window right now" with one walk down a suffix trie keyed newest step
first.

Snapshots are line-oriented UTF-8 text so diffs stay readable and two
equal databases serialize byte-identically.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .atomicwrite import write_text_atomically
from .errors import SnapshotFormatError, WindowRangeError, read_utf8
from .window import (
    ClassificationId,
    ContextId,
    ObservationWindow,
    StepId,
    _require_id,
    parse_id,
    reject_loose_numbers,
)

SNAPSHOT_MAGIC = "LOOKUPDB"
SNAPSHOT_VERSION = "v1"

# Slot key: (classification id, condition index <= 0, 0 being the
# newest condition element).
SlotKey = tuple[ClassificationId, int]
# keys[pos] pairs every classification, ascending, with its slot key at
# condition index -pos; see slot_keys().
SlotKeys = Sequence[Sequence[tuple[ClassificationId, SlotKey]]]


@dataclass(slots=True)
class ContextSlot:
    """Occurrence counters for one classification at one condition index.

    record_contexts() is the one place the counters grow.  A slot is
    made with its first count, so ``total`` is always at least 1.
    """

    total: int
    per_context: dict[ContextId, int]

    def weight(self, context: ContextId) -> float:
        """Fraction of recorded occurrences that had this context."""
        return self.per_context.get(context, 0) / self.total


@dataclass(slots=True)
class Entry:
    """One stored rule: condition run, prediction, probability, counters."""

    entry_id: int
    condition: tuple[StepId, ...]
    prediction: StepId
    p: float
    slots: dict[SlotKey, ContextSlot] = field(default_factory=dict)


def condition_matches(entry: Entry, window: ObservationWindow, offset: int = 0) -> bool:
    """True iff the condition equals the window's step run ``offset`` ago.

    Total over all inputs: an unpopulated window index means no match,
    never an error.
    """
    length = len(entry.condition)
    if offset < 0 or length + offset > len(window):
        return False
    return all(
        step == window.step_at(q - offset)
        for q, step in zip(range(1 - length, 1), entry.condition)
    )


def _table_too_short(length: int, rows: int) -> WindowRangeError:
    """The error for a condition longer than the table it is read against."""
    return WindowRangeError(
        f"condition of length {length} is longer than the {rows} "
        "populated window positions"
    )


def slot_keys(
    classifications: Iterable[ClassificationId], stop: int, start: int = 0
) -> tuple[tuple[tuple[ClassificationId, SlotKey], ...], ...]:
    """Slot keys for window positions ``start`` up to ``stop``.

    Each item holds ``(cc, (cc, -pos))`` for every classification in
    ascending order, for ``pos`` in ``range(start, stop)``: the counters
    of the condition element ``pos`` positions before the newest one.
    """
    order = sorted(classifications)
    return tuple(tuple((cc, (cc, -pos)) for cc in order) for pos in range(start, stop))


def context_fit(
    entry: Entry,
    table: Sequence[Mapping[ClassificationId, ContextId]],
    keys: SlotKeys,
    theta: float,
) -> list[float] | None:
    """The strong weights of the window's contexts under the entry's counters.

    ``table`` is the window's ObservationWindow.context_table(), ``keys``
    the engine's lookupdb.slot_keys(), and the entry must match the
    window at offset 0.  A cell is evidence where the window knows the
    context and the entry has counted that classification at that
    position; its weight is ContextSlot.weight of the context, 0 for a
    context never counted there.  Returns the weights above ``theta``,
    oldest position first, then classification ascending, or None when
    no cell is evidence at all.
    """
    length = len(entry.condition)
    if length > len(table):
        raise _table_too_short(length, len(table))
    slots = entry.slots
    if not slots:
        return None
    strong: list[float] = []
    counted = False
    for pos in range(length - 1, -1, -1):
        contexts = table[pos]
        for cc, key in keys[pos]:
            ctx = contexts.get(cc)
            if ctx is None:
                continue
            slot = slots.get(key)
            if slot is None:
                continue
            counted = True
            # ContextSlot.weight, inline: one method call per cell is
            # most of this loop's cost.
            weight = slot.per_context.get(ctx, 0) / slot.total
            if weight > theta:
                strong.append(weight)
    return strong if counted else None


def record_contexts(
    entry: Entry,
    table: Sequence[Mapping[ClassificationId, ContextId]],
    keys: SlotKeys,
) -> None:
    """Count the table's contexts into the entry's per-index slots.

    ``table`` holds context mappings newest first, as
    ObservationWindow.context_table() does, and condition index -pos
    reads ``table[pos]`` under the premade ``keys[pos]`` of slot_keys().
    The entry must match the table's window at offset 0, as for
    context_fit().  Absent contexts are skipped entirely, so a slot's
    total only grows when its classification was actually observed there.
    """
    length = len(entry.condition)
    if length > len(table):
        raise _table_too_short(length, len(table))
    slots = entry.slots
    for pos in range(length - 1, -1, -1):
        contexts = table[pos]
        for cc, key in keys[pos]:
            ctx = contexts.get(cc)
            if ctx is None:
                continue
            slot = slots.get(key)
            if slot is None:
                slots[key] = ContextSlot(1, {ctx: 1})
            else:
                slot.total += 1
                counts = slot.per_context
                counts[ctx] = counts.get(ctx, 0) + 1


class Matches(list):
    """LookupDB.matching_entries' result: the matching entries, id ascending.

    ``path[k]`` is the trie node the walk reached after ``k + 1`` steps:
    its ``rules`` map prediction to entry id for the rules whose
    condition is the ``k + 1`` newest steps of the matched run.  A
    length past the end of the path has no rule.  The nodes are the
    trie's own and stay live: a rule added later on the same path shows
    up in their ``rules`` but not in the list.  LookupDB.add_on_path
    grows a rule that is a suffix of the run straight into these nodes.
    """

    __slots__ = ("path",)

    path: list[_Node]


class _Node:
    """One trie node: the condition spelled by the path, newest step first."""

    __slots__ = ("children", "rules")

    def __init__(self) -> None:
        self.children: dict[StepId, _Node] = {}
        # prediction -> entry id of every rule with this node's condition
        self.rules: dict[StepId, int] = {}


class LookupDB:
    """All stored rules, in a suffix trie for matching the window.

    Entry ids are dense list positions and never reused.  The trie is
    keyed newest step first: the path from the root spells a condition
    backwards, so the rules matching a window all sit on the one path
    its steps spell, read from the newest.
    """

    def __init__(self) -> None:
        self._entries: list[Entry] = []
        self._root = _Node()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    def entry(self, entry_id: int) -> Entry:
        return self._entries[entry_id]

    def add(self, condition: tuple[StepId, ...], prediction: StepId, p: float) -> Entry:
        """Store a new rule; (condition, prediction) must be unused.

        Every id and ``p`` is checked here, as rules from outside the
        engine (the caller, a snapshot) enter through this method.  The
        rule is then stored by add_on_path, walking from the root.  A
        rejected rule leaves the database as it was.
        """
        condition = tuple(condition)
        if not condition:
            raise ValueError("condition must not be empty")
        for step in condition + (prediction,):
            _require_id("step", step)
        if isinstance(p, bool):
            raise ValueError(f"probability {p!r} must be a float, not a bool")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p!r} outside [0, 1]")
        return self.add_on_path([], condition, prediction, float(p))

    def add_on_path(
        self, path: list[_Node], condition: tuple[StepId, ...], prediction: StepId, p: float
    ) -> Entry:
        """Store a rule at the end of a known trie path; ids are not checked.

        ``path[k]`` must be the node of the condition's ``k + 1`` newest
        steps, as Matches.path is for a rule that is a suffix of the
        walked run; it may stop short of the condition or run past it.
        Where it stops short, the missing nodes are found or made from
        the condition's own steps and appended to ``path``.  The caller
        vouches for the ids: the engine builds its rules from steps that
        ObservationWindow.push checked, and add() checks everything
        else.  A taken (condition, prediction) pair raises ValueError
        and leaves the database as it was.
        """
        length = len(condition)
        depth = len(path)
        if depth >= length:
            node = path[length - 1]
        else:
            node = path[-1] if path else self._root
            for step in condition[length - depth - 1::-1]:
                child = node.children.get(step)
                if child is None:
                    child = node.children[step] = _Node()
                path.append(child)
                node = child
        # A taken pair means its whole path existed: nothing was built.
        if prediction in node.rules:
            raise ValueError(
                f"entry with condition {condition} predicting {prediction} already exists"
            )
        entry = Entry(len(self._entries), condition, prediction, p)
        self._entries.append(entry)
        node.rules[prediction] = entry.entry_id
        return entry

    def matching_entries(self, window: ObservationWindow, offset: int = 0) -> Matches:
        """All entries matching the window at ``offset``, id ascending.

        Equivalent to filtering with condition_matches.  One walk down
        the trie reads the window's steps from index ``-offset`` back
        and stops at the first step with no child; the nodes it passed
        through come back as the result's ``path``.
        """
        node = self._root
        path: list[_Node] = []
        ids: list[int] = []
        for observation in window.newest_first(offset):
            node = node.children.get(observation.step)
            if node is None:
                break
            path.append(node)
            rules = node.rules
            if rules:
                ids.extend(rules.values())
        ids.sort()
        matches = Matches(map(self._entries.__getitem__, ids))
        matches.path = path
        return matches


def dump_snapshot(db: LookupDB, alpha: float, theta: float) -> str:
    """Canonical snapshot text, each line ending in a newline."""
    lines = [f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} alpha={alpha!r} theta={theta!r}\n"]
    for entry in db:
        cond = ",".join(str(step) for step in entry.condition)
        lines.append(f"E {entry.entry_id} cond={cond} pred={entry.prediction} p={entry.p!r}\n")
        for (cc, index), slot in sorted(entry.slots.items()):
            pairs = " ".join(
                f"{ctx}:{count}" for ctx, count in sorted(slot.per_context.items())
            )
            lines.append(f"S {cc} {index} total={slot.total} {pairs}\n")
    return "".join(lines)


def write_snapshot(db: LookupDB, alpha: float, theta: float, path: str) -> None:
    """Write the snapshot to ``path`` atomically.

    A failed dump or write leaves any previous snapshot intact and no
    temporary file behind.
    """
    write_text_atomically(path, dump_snapshot(db, alpha, theta))


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
    keys: dict[SlotKey, SlotKey] = {}  # one shared tuple per distinct slot key
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


def read_snapshot(path: str) -> tuple[LookupDB, float, float]:
    """parse_snapshot of a UTF-8 file; a byte that is not UTF-8 is a format error."""
    return read_utf8(path, parse_snapshot, SnapshotFormatError)


def _parse_header(tokens: list[str]) -> tuple[float, float]:
    if len(tokens) != 4 or tokens[0] != SNAPSHOT_MAGIC:
        raise ValueError(
            f"expected header '{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} alpha=... theta=...'")
    if tokens[1] != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {tokens[1]!r}")
    alpha = _parse_float_field(tokens[2], "alpha")
    theta = _parse_float_field(tokens[3], "theta")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha!r} outside (0, 1)")
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta {theta!r} outside [0, 1)")
    return alpha, theta


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


def _parse_slot(tokens: list[str], entry: Entry | None, keys: dict[SlotKey, SlotKey]) -> None:
    if entry is None:
        raise ValueError("slot line before any entry line")
    if len(tokens) < 4:
        raise ValueError("slot line needs: S <cc> <index> total=<n> ctx:count...")
    cc = parse_id(tokens[1], "classification id")
    index = _parse_signed_int(tokens[2], "condition index")
    if not 1 - len(entry.condition) <= index <= 0:
        raise ValueError(f"condition index {index} outside [{1 - len(entry.condition)}, 0]")
    key = (cc, index)
    key = keys.setdefault(key, key)
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
