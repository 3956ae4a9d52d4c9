"""System graphs built from JSON Lines event traces.

A trace interleaves two record kinds, both carrying a non-decreasing natural
time "t":

    {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 0}}}
    {"t": 2, "event": {"src": "john", "dest": "a", "params": {"method": "read"}}}

Object records declare or update an object's attribute snapshot at instant t.
An object's last snapshot carries forward: an event at t sees the newest
snapshot with time <= t.  Event records become graph edges; their parameter
map gets the reserved parameter "time" injected.  Records may carry an extra
"note" field for human commentary, which ingestion ignores.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional
from weakref import ref

from .values import from_json, maps_equal, to_json, values_equal

_snapshot_time = itemgetter(0)
_FOREVER = float("inf")
_ABSENT = object()


class TraceError(ValueError):
    def __init__(self, message: str, record_no: int = 0):
        if record_no:
            message = f"record {record_no}: {message}"
        super().__init__(message)
        self.record_no = record_no


@dataclass(frozen=True)
class ObjectSnapshot:
    id: str
    attrs: Mapping[str, Any]
    time: int


class SystemEvent(NamedTuple):
    """One event of a trace: a named tuple, as ingestion and the monitor
    build one per event record (see matching's module docstring)."""

    src: str
    dest: str
    params: Mapping[str, Any]  # includes the injected "time"
    time: int


class SystemGraph:
    """Objects with time-stamped attribute snapshots, plus an event list.

    Instances are built through ingest_trace (or a Monitor, or copy()) and
    treated as immutable afterwards.  Events keep their arrival order;
    several identical events inside one instant are distinct entries and
    can match distinct policy edges.

    It keeps two memos, as only its mutators can tell when one is stale:
    derived(), for results read from the whole graph, which every mutation
    drops; and per object a snapshot entry holding node-plan outcomes
    (judged_at), which only declaring that object again drops.
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, list[tuple[int, dict[str, Any]]]] = {}
        self.events: list[SystemEvent] = []
        self.horizon: int = 0
        # per object, the instant of the latest event that read it; redeclaring
        # an object at that instant would silently rewrite history, so it is
        # an error.  Records never go back in time, so an older mark can never
        # equal a later declaration's instant.
        self._read: dict[str, int] = {}
        # what _drop_last_event restores: the horizon before the last event
        # and its endpoints' marks, None where one had none
        self._undo: tuple[int, Optional[int], Optional[int]] = (0, None, None)
        self._derived: Optional[dict] = None  # see derived()
        self._entries: dict[str, tuple[int, float, Mapping[str, Any], dict]] = {}  # see judged_at()

    # internal mutators, used by ingest_trace and the monitor; each one
    # drops the results derived from the state it changes

    def _declare_object(self, obj_id: str, attrs: dict[str, Any], t: int, record_no: int = 0) -> None:
        self._derived = None
        self._entries.pop(obj_id, None)
        if self._read.get(obj_id) == t:
            raise TraceError(
                f"snapshot for {obj_id!r} at t={t} declared after an event already used it", record_no
            )
        history = self._snapshots.setdefault(obj_id, [])
        if history and history[-1][0] == t:
            history[-1] = (t, attrs)
        else:
            history.append((t, attrs))
        self.horizon = max(self.horizon, t)

    def _append_event(self, event: SystemEvent, record_no: int = 0) -> None:
        self._derived = None
        src, dest, t = event.src, event.dest, event.time
        for endpoint in (src, dest):
            if endpoint not in self._snapshots:
                raise TraceError(f"event endpoint {endpoint!r} was never declared", record_no)
        read = self._read
        self._undo = (self.horizon, read.get(src), read.get(dest))
        read[src] = read[dest] = t
        self.events.append(event)
        self.horizon = max(self.horizon, t)

    def _drop_last_event(self) -> None:
        """Undo the most recent append; a denied event leaves no trace,
        including any horizon growth it would have caused."""
        self._derived = None
        event = self.events.pop()
        self.horizon, src_mark, dest_mark = self._undo
        for obj_id, mark in ((event.src, src_mark), (event.dest, dest_mark)):  # a self-loop saved one mark twice
            if mark is None:
                self._read.pop(obj_id, None)
            else:
                self._read[obj_id] = mark

    def copy(self) -> "SystemGraph":
        """An equal graph with its own histories, event list, read marks and
        empty memos; it shares the attrs dicts and events, which are never
        mutated."""
        graph = SystemGraph()
        graph._snapshots = {obj_id: list(history) for obj_id, history in self._snapshots.items()}
        graph.events, graph.horizon = list(self.events), self.horizon
        graph._read, graph._undo = dict(self._read), self._undo
        return graph

    # queries

    def derived(self) -> dict:
        """A memo for results computed from the graph's current state, such
        as a policy's match outcomes; every mutation drops it.  Its values
        are shared, so callers must not mutate them."""
        if self._derived is None:
            self._derived = {}
        return self._derived

    def object_ids(self) -> list[str]:
        return sorted(self._snapshots)

    def objects(self) -> Iterator[ObjectSnapshot]:
        """Explicit snapshots only; carried-forward instants are implicit."""
        for obj_id in self.object_ids():
            for t, attrs in self._snapshots[obj_id]:
                yield ObjectSnapshot(obj_id, attrs, t)

    def object_count(self) -> int:
        return len(self._snapshots)

    def snapshot_spans(self, obj_id: str) -> Iterator[tuple[int, int, Mapping[str, Any]]]:
        """Each explicit snapshot as (first, last, attrs): the instants
        first..last, up to the next snapshot or the horizon, whose effective
        snapshot it is."""
        history = self._snapshots[obj_id]
        for (first, attrs), (following, _) in zip(history, history[1:]):
            yield first, following - 1, attrs
        first, attrs = history[-1]
        yield first, self.horizon, attrs

    def attrs_at(self, obj_id: str, t: int) -> Mapping[str, Any]:
        """Effective snapshot: the newest explicit one with time <= t."""
        history = self._snapshots.get(obj_id)
        if not history:
            raise KeyError(f"unknown object {obj_id!r}")
        newer = bisect_right(history, t, key=_snapshot_time)  # snapshot times strictly increase
        if newer == 0:
            raise KeyError(f"object {obj_id!r} has no snapshot at or before t={t}")
        return history[newer - 1][1]

    def judged_at(self, obj_id: str, t: int, plan: Callable[[Mapping[str, Any]], Any]) -> tuple[Mapping[str, Any], Any]:
        """The object's effective snapshot at t and plan's outcome on it, as
        (attrs, plan(attrs)); plan's result must depend on attrs alone.  The
        graph keeps one entry per object: a snapshot, the outcomes found on
        it, and the span of instants whose effective snapshot it is, from its
        time to the instant before the next one, or every later instant for
        the newest.  An instant in the span needs no lookup; any other goes
        through attrs_at and replaces the entry.  The outcomes hold plans
        weakly, so an entry does not keep a plan alive, and at every 16th
        plan added forget the dead ones.  A plan that raises stores nothing."""
        entry = self._entries.get(obj_id)
        if entry is None or not entry[0] <= t <= entry[1]:
            attrs = self.attrs_at(obj_id, t)
            history = self._snapshots[obj_id]
            newer = bisect_right(history, t, key=_snapshot_time)
            last = history[newer][0] - 1 if newer < len(history) else _FOREVER
            entry = self._entries[obj_id] = (history[newer - 1][0], last, attrs, {})
        _, _, attrs, outcomes = entry
        key = ref(plan)  # Python keeps one such reference per plan, so it is found by identity
        found = outcomes.get(key, _ABSENT)
        if found is _ABSENT:
            if len(outcomes) % 16 == 15:
                for dead in [k for k in outcomes if k() is None]:
                    del outcomes[dead]
            found = outcomes[key] = plan(attrs)
        return attrs, found

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SystemGraph):
            return NotImplemented
        if self._snapshots.keys() != other._snapshots.keys():
            return False
        for obj_id, history in self._snapshots.items():
            theirs = other._snapshots[obj_id]
            if len(history) != len(theirs):
                return False
            for (t1, a1), (t2, a2) in zip(history, theirs):
                if t1 != t2 or not maps_equal(a1, a2):
                    return False
        if len(self.events) != len(other.events):
            return False
        for e1, e2 in zip(self.events, other.events):
            if (e1.src, e1.dest, e1.time) != (e2.src, e2.dest, e2.time):
                return False
            if not maps_equal(e1.params, e2.params):
                return False
        return self.horizon == other.horizon

    def __repr__(self) -> str:
        return f"SystemGraph(objects={self.object_count()}, events={len(self.events)}, horizon={self.horizon})"

    def to_records(self) -> list[dict[str, Any]]:
        """Serialize back to trace records; ingest_trace(to_records()) == self.

        Within each instant, object records come first (sorted by id) and
        events follow in their stored order, with the injected "time"
        parameter stripped.
        """
        records: list[dict[str, Any]] = []
        for obj_id in sorted(self._snapshots):
            for t, attrs in self._snapshots[obj_id]:
                payload = {k: to_json(v) for k, v in attrs.items() if k != "id"}
                records.append({"t": t, "object": {"id": obj_id, "attrs": payload}})
        for event in self.events:
            payload = {k: to_json(v) for k, v in event.params.items() if k != "time"}
            records.append({"t": event.time, "event": {"src": event.src, "dest": event.dest, "params": payload}})
        records.sort(key=lambda r: (r["t"], "event" in r))  # stable: ids, then arrival order, within an instant
        return records


def _check_time(record: dict[str, Any], last: int, record_no: int) -> int:
    if "t" not in record:
        raise TraceError("record has no time 't'", record_no)
    t = record["t"]
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise TraceError(f"time must be a natural number, got {t!r}", record_no)
    if t < last:
        raise TraceError(f"time went backwards ({last} -> {t})", record_no)
    return t


def _coerce_map(raw: Any, what: str, record_no: int) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise TraceError(f"{what} must be an object, got {raw!r}", record_no)
    out = {}
    for key, value in raw.items():
        if not isinstance(key, str):
            raise TraceError(f"{what} key {key!r} is not a string", record_no)
        try:
            out[key] = from_json(value)
        except TypeError as exc:
            raise TraceError(f"{what} value for {key!r}: {exc}", record_no) from exc
    return out


# the keys a record, and its body, may carry; checked with key views, so a
# record builds no set
_OBJECT_RECORD = frozenset(("t", "note", "object"))
_EVENT_RECORD = frozenset(("t", "note", "event"))
_OBJECT_BODY = frozenset(("id", "attrs"))
_EVENT_BODY = frozenset(("src", "dest", "params"))


def apply_record(graph: SystemGraph, record: dict[str, Any], last_time: int, record_no: int = 0) -> tuple[int, SystemEvent | None]:
    """Apply one decoded trace record; returns the new time cursor and the
    event, if the record was one."""
    if not isinstance(record, dict):
        raise TraceError(f"record must be a JSON object, got {record!r}", record_no)
    if "object" in record and record.keys() <= _OBJECT_RECORD:
        t = _check_time(record, last_time, record_no)
        body = record["object"]
        if not isinstance(body, dict) or "id" not in body or not body.keys() <= _OBJECT_BODY:
            raise TraceError("object record needs 'id' and optional 'attrs'", record_no)
        obj_id = body["id"]
        if not isinstance(obj_id, str) or not obj_id:
            raise TraceError(f"object id must be a non-empty string, got {obj_id!r}", record_no)
        attrs = _coerce_map(body.get("attrs", {}), "attrs", record_no)
        if "id" in attrs and not values_equal(attrs["id"], obj_id):
            raise TraceError(f"attrs['id'] {attrs['id']!r} contradicts object id {obj_id!r}", record_no)
        attrs["id"] = obj_id
        graph._declare_object(obj_id, attrs, t, record_no)
        return t, None
    if "event" in record and record.keys() <= _EVENT_RECORD:
        t = _check_time(record, last_time, record_no)
        body = record["event"]
        if not isinstance(body, dict) or "src" not in body or "dest" not in body or not body.keys() <= _EVENT_BODY:
            raise TraceError("event record needs 'src', 'dest' and optional 'params'", record_no)
        src, dest = body["src"], body["dest"]
        if not isinstance(src, str) or not isinstance(dest, str):
            raise TraceError("event endpoints must be strings", record_no)
        params = _coerce_map(body.get("params", {}), "params", record_no)
        if "time" in params:
            raise TraceError("'time' is an injected parameter and cannot be supplied", record_no)
        params["time"] = t
        event = SystemEvent(src, dest, params, t)
        graph._append_event(event, record_no)
        return t, event
    raise TraceError("record must carry exactly one of 'object' or 'event'", record_no)


def ingest_trace(records: Iterable[dict[str, Any]]) -> SystemGraph:
    """Build a system graph from decoded trace records."""
    graph = SystemGraph()
    cursor = 0
    for record_no, record in enumerate(records, start=1):
        cursor, _ = apply_record(graph, record, cursor, record_no)
    return graph


def read_jsonl(lines: Iterable[str]) -> Iterator[dict[str, Any]]:
    """Decode JSON Lines, skipping blank lines; an error carries its record's number."""
    for record_no, line in enumerate(filter(None, map(str.strip, lines)), start=1):
        try:
            yield json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"bad JSON: {exc}", record_no) from exc


def load_trace(path: str) -> SystemGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return ingest_trace(read_jsonl(handle))


def write_jsonl(graph: SystemGraph) -> str:
    return "\n".join(json.dumps(r, sort_keys=True) for r in graph.to_records()) + "\n"
