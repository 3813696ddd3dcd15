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
from operator import attrgetter
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

# Slot key: the pair (classification id, condition index <= 0, 0 being
# the newest condition element) packed into one int by slot_key().
SlotKey = int
# keys[pos] pairs every classification, ascending, with its slot key at
# condition index -pos; see slot_keys().
SlotKeys = Sequence[Sequence[tuple[ClassificationId, SlotKey]]]
# ObservationWindow.context_table(): context mappings, newest first.
ContextTable = Sequence[Mapping[ClassificationId, ContextId]]


@dataclass(slots=True)
class ContextSlot:
    """Occurrence counters for one classification at one condition index.

    record_contexts() is the one place the counters grow.  A slot is
    made with its first count, so ``total`` is always at least 1.  A
    slot parse_snapshot() loads may sit under several rules at once;
    see Entry.shared.
    """

    total: int
    per_context: dict[ContextId, int]

    def weight(self, context: ContextId) -> float:
        """Fraction of recorded occurrences that had this context."""
        return self.per_context.get(context, 0) / self.total


@dataclass(slots=True)
class Entry:
    """One stored rule: condition run, prediction, probability, counters.

    ``shared`` marks a rule whose slots may be the very ContextSlot
    objects of other rules: parse_snapshot() gives every slot line that
    repeats a counter list the slot read first, and marks every rule it
    stores.  record_contexts() gives a marked rule its own copies of its
    slots, and clears the mark, before it counts into them; nothing
    else in the package writes a slot.  Rules made by the engine or by
    LookupDB.add are never marked.  The mark takes no part in equality
    or repr.
    """

    entry_id: int
    condition: tuple[StepId, ...]
    prediction: StepId
    p: float
    # slot_key(cc, index) -> that classification's counters at that index
    slots: dict[SlotKey, ContextSlot] = field(default_factory=dict)
    shared: bool = field(default=False, compare=False, repr=False)


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


# slot_key()'s low field: 32 bits holding the condition index plus this.
_INDEX_BITS = 32
_INDEX_OFFSET = (1 << _INDEX_BITS) - 1


def slot_key(cc: ClassificationId, index: int) -> SlotKey:
    """The counter key of classification ``cc`` at condition index ``index``.

    The key is one int: ``cc`` in the bits above the low 32, and
    ``index + 2**32 - 1`` in the low 32 bits.  ``cc`` is an id (>= 0)
    and ``index`` must lie in [-(2**32 - 1), 0], so the low field never
    reaches the classification's bits: split_slot_key() inverts the
    key exactly, and keys sort exactly as their pairs do.  An int key
    is hashed in constant time, where a tuple key is hashed again on
    every dict lookup.  The index is not checked here: slot_keys()
    takes it from a window position and parse_snapshot() checks it
    against the condition's length, and no window or condition comes
    near 2**32 steps.
    """
    return cc << _INDEX_BITS | index + _INDEX_OFFSET


def split_slot_key(key: SlotKey) -> tuple[ClassificationId, int]:
    """The ``(cc, index)`` pair slot_key() packed into ``key``."""
    return key >> _INDEX_BITS, (key & _INDEX_OFFSET) - _INDEX_OFFSET


def slot_keys(
    classifications: Iterable[ClassificationId], stop: int, start: int = 0
) -> tuple[tuple[tuple[ClassificationId, SlotKey], ...], ...]:
    """Slot keys for window positions ``start`` up to ``stop``.

    Each item holds ``(cc, slot_key(cc, -pos))`` for every
    classification in ascending order, for ``pos`` in
    ``range(start, stop)``: the counters of the condition element
    ``pos`` positions before the newest one.  The engine builds them
    once per window position, so the counting and scoring loops look
    counters up by a premade int.
    """
    order = sorted(classifications)
    return tuple(
        tuple((cc, slot_key(cc, -pos)) for cc in order) for pos in range(start, stop)
    )


def record_contexts(
    entries: Sequence[Entry],
    table: ContextTable,
    keys: SlotKeys,
) -> None:
    """Count the table's contexts into each entry's per-index slots.

    ``table`` holds context mappings newest first, as
    ObservationWindow.context_table() does, and condition index -pos
    reads ``table[pos]`` under the premade ``keys[pos]`` of slot_keys().
    Every entry must match the table's window at offset 0; the engine
    passes all the rules one step counts in one call.  Each entry's
    length is checked against the table before anything is copied or
    counted, so a rejected batch leaves every slot and every
    Entry.shared mark as it was.  An entry marked shared then gets its
    own copy of each of its slots, and loses the mark, before it
    counts: a slot a loaded snapshot shares is never written.
    Absent contexts are skipped entirely, so a slot's total only grows
    when its classification was actually observed there.
    """
    rows = len(table)
    for entry in entries:
        length = len(entry.condition)
        if length > rows:
            raise _table_too_short(length, rows)
    for entry in entries:
        slots = entry.slots
        if entry.shared:
            for key, slot in slots.items():
                slots[key] = ContextSlot(slot.total, slot.per_context.copy())
            entry.shared = False
        for pos in range(len(entry.condition) - 1, -1, -1):
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


def relevance_mean(
    entry: Entry,
    table: ContextTable,
    keys: SlotKeys,
    theta: float,
) -> float:
    """The fit in [0, 1] of the window's contexts to the entry's counters.

    Arguments are as for record_contexts(), one entry at a time.  A cell
    is evidence where the window knows the context and the entry has
    counted that classification at that position; its weight is
    ContextSlot.weight of the context.  The fit is the mean of the
    weights above ``theta``, added left to right in cell order (oldest
    position first, then classification ascending) so that every
    CPython gives the same float.  No evidence at all scores 1, and
    evidence with no weight above ``theta`` vetoes the entry: 0.  A
    weight is a count over a total, so the fit never exceeds 1;
    Engine.predict() relies on that to stop scoring early.
    """
    length = len(entry.condition)
    if length > len(table):
        raise _table_too_short(length, len(table))
    slots = entry.slots
    if not slots:
        return 1.0
    total = 0.0
    strong = 0
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
                total += weight
                strong += 1
    if strong:
        return total / strong
    return 0.0 if counted else 1.0


_BY_ID = attrgetter("entry_id")


class _Node:
    """One trie node: the condition spelled by the path, newest step first."""

    __slots__ = ("children", "rules")

    def __init__(self) -> None:
        self.children: dict[StepId, _Node] = {}
        # prediction -> entry of every rule with this node's condition
        self.rules: dict[StepId, Entry] = {}


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

    def add(self, condition: tuple[StepId, ...], prediction: StepId, p: float) -> Entry:
        """Store a new rule; (condition, prediction) must be unused.

        Every id and ``p`` is checked here, as rules from a caller
        enter through this method; the rule is then stored by
        add_on_path, walking from the root.  A rejected rule leaves the
        database as it was.  A snapshot's rules do not come through
        here: parse_snapshot checks each of them once, with the ids of
        each distinct condition checked once per call.
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
        steps, as walk()'s path is for a rule that is a suffix of the
        walked run; it may stop short of the condition or run past it.
        Where it stops short, the missing nodes are found or made from
        the condition's own steps and appended to ``path``.  The caller
        vouches for the ids: the engine builds its rules from steps that
        ObservationWindow.push checked, parse_snapshot checks a
        snapshot's, and add() checks everything else.  A taken
        (condition, prediction) pair raises ValueError and leaves the
        database as it was.
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
        node.rules[prediction] = entry
        return entry

    def walk(
        self, window: ObservationWindow, offset: int = 0
    ) -> tuple[list[Entry], list[_Node]]:
        """The entries matching the window at ``offset``, and the trie path.

        One walk down the trie reads the window's steps from index
        ``-offset`` back and stops at the first step with no child.
        ``path[k]`` is the node it reached after ``k + 1`` steps: its
        ``rules`` map prediction to entry for the rules whose condition
        is the ``k + 1`` newest steps of the run, and a length past the
        path's end has no rule.  The nodes are the trie's own and stay
        live: a rule stored later on the path shows up in their
        ``rules`` but not in the entries, and add_on_path grows a rule
        that is a suffix of the run straight into the path.  The
        entries come node by node, so the shortest condition comes
        first, and each node's rules in id order, the order they were
        stored in.  A longer rule can have the lower id, so the list as
        a whole is not id ascending.
        """
        node = self._root
        entries: list[Entry] = []
        path: list[_Node] = []
        for observation in window.newest_first(offset):
            node = node.children.get(observation.step)
            if node is None:
                break
            path.append(node)
            rules = node.rules
            if rules:
                entries.extend(rules.values())
        return entries, path

    def matching_entries(self, window: ObservationWindow, offset: int = 0) -> list[Entry]:
        """All entries matching the window at ``offset``, id ascending.

        Equivalent to filtering with condition_matches: walk()'s
        entries, sorted by id.
        """
        entries = self.walk(window, offset)[0]
        entries.sort(key=_BY_ID)
        return entries


class _PairText(dict):
    """``ctx:count`` text of each ``(ctx, count)`` pair, made on first use."""

    __slots__ = ()

    def __missing__(self, pair: tuple[ContextId, int]) -> str:
        text = self[pair] = f"{pair[0]}:{pair[1]}"
        return text


def dump_snapshot(db: LookupDB, alpha: float, theta: float) -> str:
    """Canonical snapshot text, each line ending in a newline.

    ``alpha`` and ``theta`` are written as floats, as parse_snapshot
    reads them back, so an int 0 re-dumps as the same ``0.0``.  Each
    distinct condition, slot head, counter list and ``ctx:count`` pair
    is formatted once per dump: most of them repeat across the rules of
    a grown database.

    A counter list, the text after ``total=``, is found again by one
    flat tuple: the slot's total, then its context ids, then its
    counts, each in the dict's own order.  The tuple's length fixes
    the number of pairs, so equal tuples mean equal text, and finding
    one costs a tuple build and a hash, with no scan and no sort.  Two
    equal dicts built in different orders miss and are formatted apart,
    to the same text.  When no list repeats, the tuples and the table
    are pure cost.
    """
    lines = [
        f"{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} "
        f"alpha={float(alpha)!r} theta={float(theta)!r}\n"
    ]
    # "S <cc> <index> total=" of each distinct slot key, decoded once.
    heads: dict[SlotKey, str] = {}
    # (total, *ids, *counts) -> "<total> ctx:count ...\n", made once.
    lists: dict[tuple[int, ...], str] = {}
    # Condition -> its comma-separated text, made once.
    conds: dict[tuple[StepId, ...], str] = {}
    pair_text = _PairText().__getitem__
    for entry in db:
        cond = conds.get(entry.condition)
        if cond is None:
            cond = conds[entry.condition] = ",".join(map(str, entry.condition))
        lines.append(f"E {entry.entry_id} cond={cond} pred={entry.prediction} p={entry.p!r}\n")
        # Int keys sort as their (cc, index) pairs do.
        for key, slot in sorted(entry.slots.items()):
            head = heads.get(key)
            if head is None:
                cc, index = split_slot_key(key)
                head = heads[key] = f"S {cc} {index} total="
            counts = slot.per_context
            found = (slot.total, *counts, *counts.values())
            text = lists.get(found)
            if text is None:
                pairs = " ".join(map(pair_text, sorted(counts.items())))
                text = lists[found] = f"{slot.total} {pairs}\n"
            lines.append(head)
            lines.append(text)
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

    A grown database repeats itself, so each piece of work that depends
    on the text alone is done once per call, and only what depends on a
    line's place under the current entry is done per line.  A line is
    read in one frame, whose one ``except`` adds the line number:

    - each distinct slot line is read once: a repeat gets its first
      reading, slot included, and a new line a reading of its head,
      with no slot yet.  Either has its place under the current entry
      checked in one place, a new line before its counter list;
    - each distinct counter list, the text from ``total=`` to the end
      of a slot line, is read once; a new slot line that repeats one
      gets the slot read first;
    - each distinct ``cond=`` token is read, checked and walked down
      the trie once; a rule over it is stored on the trie path found
      then, after its own prediction, ``p`` and taken-pair checks.

    A slot line whose text or counter list was read before gets the
    very ContextSlot read first, so the database holds one slot per
    distinct counter list.  Every rule stored here is marked
    Entry.shared: record_contexts() copies a marked rule's slots before
    it first counts into them, and a use that only reads copies nothing.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    db = LookupDB()
    alpha: float | None = None
    theta = 0.0
    current: Entry | None = None
    # One shared int per distinct slot key, made once per (cc, index).
    keys: dict[tuple[ClassificationId, int], SlotKey] = {}
    # Raw text of each slot line that passed -> its full reading, slot
    # included.  Each came after a header and an entry, and neither is
    # ever undone.  The two tables below likewise hold only text that
    # passed.
    seen: dict[str, _SlotReading] = {}
    # Counter list text -> the slot first read from it, which every
    # slot line with that list shares.
    counters: dict[str, ContextSlot] = {}
    # cond= token -> (its condition, the trie path of that condition).
    conditions: dict[str, tuple[tuple[StepId, ...], list[_Node]]] = {}
    for line_no, raw in enumerate(source, start=1):
        try:
            reading = seen.get(raw)
            if reading is None:
                # Tag, two head fields and the rest: a slot line's
                # counter list is split into its tokens only when new.
                fields = raw.split(None, 3)
                if not fields or fields[0][0] == "#":
                    continue
                tag = fields[0]
                reject_loose_numbers(raw)
                # Slot lines are most of a snapshot: test their tag first.
                if tag == "S" and alpha is not None:
                    reading = _parse_slot_head(fields, current, keys)
                elif alpha is None:
                    alpha, theta = _parse_header(raw.split())
                    continue
                elif tag == "E":
                    current = _parse_entry(raw.split(), db, conditions)
                    continue
                else:
                    raise ValueError(f"unknown line tag {tag!r}")
            # A slot line, new or repeated: its place, then its counters.
            cc, index, key, slot = reading
            low = 1 - len(current.condition)
            if not low <= index <= 0:
                raise ValueError(f"condition index {index} outside [{low}, 0]")
            if key in current.slots:
                raise ValueError(f"duplicate slot for classification {cc} index {index}")
            if slot is None:
                slot = counters.get(fields[3])
                if slot is None:
                    slot = counters[fields[3]] = _parse_counters(fields[3].split())
                seen[raw] = cc, index, key, slot
            current.slots[key] = slot
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


def _parse_entry(
    tokens: list[str],
    db: LookupDB,
    conditions: dict[str, tuple[tuple[StepId, ...], list[_Node]]],
) -> Entry:
    """Store an entry line's rule in ``db``, marked shared, and return it.

    The checks and their order are LookupDB.add's, after the fields are
    parsed.  A ``cond=`` token in ``conditions`` passed them before: it
    is not parsed or checked again, and its rule goes straight to the
    trie path kept for it.  The rule is marked Entry.shared, as the
    slot lines under it may be given slots other rules hold.
    """
    if len(tokens) != 5:
        raise ValueError("entry line needs: E <id> cond=... pred=... p=...")
    entry_id = parse_id(tokens[1], "entry id")
    if entry_id != len(db):
        raise ValueError(f"entry id {entry_id} out of order, expected {len(db)}")
    known = conditions.get(tokens[2])
    if known is None:
        cond_text = _field_value(tokens[2], "cond")
        try:
            condition = tuple(map(int, cond_text.split(",")))
        except ValueError:
            raise ValueError(f"bad condition {cond_text!r}") from None
    else:
        condition, path = known
    prediction = parse_id(_field_value(tokens[3], "pred"), "prediction")
    p = _parse_float_field(tokens[4], "p")
    if known is None:
        for step in condition:
            _require_id("step", step)
        # add_on_path fills the path in place.  A rejected rule ends the
        # parse, and the table with it.
        path = []
        conditions[tokens[2]] = condition, path
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    entry = db.add_on_path(path, condition, prediction, p)
    entry.shared = True
    return entry


# What a slot line says, whatever entry it sits under: (cc, index,
# slot_key(cc, index), its counter list's slot, None until read).
_SlotReading = tuple[ClassificationId, int, SlotKey, ContextSlot | None]


def _parse_slot_head(
    fields: list[str],
    entry: Entry | None,
    keys: dict[tuple[ClassificationId, int], SlotKey],
) -> _SlotReading:
    """A new slot line's reading from its head, with no slot yet.

    ``fields`` is the line split at its first three runs of whitespace,
    so ``fields[3]`` is its counter list, which parse_snapshot reads
    only after it has checked the line's place under ``entry``.
    """
    if entry is None:
        raise ValueError("slot line before any entry line")
    if len(fields) < 4:
        raise ValueError("slot line needs: S <cc> <index> total=<n> ctx:count...")
    cc = parse_id(fields[1], "classification id")
    index = _parse_signed_int(fields[2], "condition index")
    pair = (cc, index)
    key = keys.get(pair)
    if key is None:
        key = keys[pair] = slot_key(cc, index)
    return cc, index, key, None


def _parse_counters(tokens: list[str]) -> ContextSlot:
    """A counter list's slot: its total and counts, checked against each other."""
    total = parse_id(_field_value(tokens[0], "total"), "total")
    if total < 1:
        raise ValueError(f"slot total {total} must be positive")
    per_context: dict[int, int] = {}
    summed = 0
    try:
        for token in tokens[1:]:
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
    return ContextSlot(total, per_context)


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
