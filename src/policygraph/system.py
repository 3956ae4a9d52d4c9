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
from typing import Any, Iterable, Iterator, Mapping, Optional

from .values import from_json, maps_equal, to_json, values_equal

_snapshot_time = itemgetter(0)


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


@dataclass(frozen=True)
class SystemEvent:
    src: str
    dest: str
    params: Mapping[str, Any]  # includes the injected "time"
    time: int


class SystemGraph:
    """Objects with time-stamped attribute snapshots, plus an event list.

    Instances are built through ingest_trace (or a Monitor) and treated as
    immutable afterwards.  Events keep their arrival order; several identical
    events inside one instant are distinct entries and can match distinct
    policy edges.
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, list[tuple[int, dict[str, Any]]]] = {}
        self.events: list[SystemEvent] = []
        self.horizon: int = 0
        # the objects whose effective snapshot at instant _read_at an event
        # has read; redeclaring one there would silently rewrite history, so
        # it is an error.  Records never go back in time, so the latest
        # event's instant is the only one that needs marks.
        self._read_at: int = -1
        self._read: set[str] = set()
        # what _drop_last_event restores: (horizon, _read_at, _read) before
        # the last event, and the marks that event added
        self._before_event: tuple[int, int, set[str]] = (0, -1, self._read)
        self._last_event_marks: set[str] = set()
        self._derived: Optional[dict] = None  # see derived()

    # internal mutators, used by ingest_trace and the monitor; each one
    # drops the results derived from the state it changes

    def _declare_object(self, obj_id: str, attrs: dict[str, Any], t: int, record_no: int = 0) -> None:
        self._derived = None
        if t == self._read_at and obj_id in self._read:
            raise TraceError(
                f"snapshot for {obj_id!r} at t={t} declared after an event already used it", record_no
            )
        history = self._snapshots.setdefault(obj_id, [])
        if history and history[-1][0] == t:
            history[-1] = (t, attrs)
        else:
            history.append((t, attrs))
        self.horizon = max(self.horizon, t)

    def _append_event(self, src: str, dest: str, params: dict[str, Any], t: int, record_no: int = 0) -> SystemEvent:
        self._derived = None
        for endpoint in (src, dest):
            if endpoint not in self._snapshots:
                raise TraceError(f"event endpoint {endpoint!r} was never declared", record_no)
        self._before_event = (self.horizon, self._read_at, self._read)
        if t != self._read_at:
            self._read_at, self._read = t, set()
        self._last_event_marks = {src, dest} - self._read
        self._read |= self._last_event_marks
        event = SystemEvent(src, dest, params, t)
        self.events.append(event)
        self.horizon = max(self.horizon, t)
        return event

    def _drop_last_event(self) -> None:
        """Undo the most recent append; a denied event leaves no trace,
        including any horizon growth it would have caused."""
        self._derived = None
        self.events.pop()
        self._read -= self._last_event_marks
        self.horizon, self._read_at, self._read = self._before_event

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

    def first_time(self, obj_id: str) -> int:
        return self._snapshots[obj_id][0][0]

    def instants(self, obj_id: str) -> range:
        """Instants at which the object exists, up to the graph horizon."""
        return range(self.first_time(obj_id), self.horizon + 1)

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

    def src_attr(self, event: SystemEvent) -> Mapping[str, Any]:
        return self.attrs_at(event.src, event.time)

    def dest_attr(self, event: SystemEvent) -> Mapping[str, Any]:
        return self.attrs_at(event.dest, event.time)

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
        by_time_objects: dict[int, list[tuple[str, dict[str, Any]]]] = {}
        for obj_id, history in self._snapshots.items():
            for t, attrs in history:
                by_time_objects.setdefault(t, []).append((obj_id, attrs))
        by_time_events: dict[int, list[SystemEvent]] = {}
        for event in self.events:
            by_time_events.setdefault(event.time, []).append(event)
        records: list[dict[str, Any]] = []
        for t in sorted(set(by_time_objects) | set(by_time_events)):
            for obj_id, attrs in sorted(by_time_objects.get(t, [])):
                payload = {k: to_json(v) for k, v in attrs.items() if k != "id"}
                records.append({"t": t, "object": {"id": obj_id, "attrs": payload}})
            for event in by_time_events.get(t, []):
                payload = {k: to_json(v) for k, v in event.params.items() if k != "time"}
                records.append({"t": t, "event": {"src": event.src, "dest": event.dest, "params": payload}})
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


def apply_record(graph: SystemGraph, record: dict[str, Any], last_time: int, record_no: int = 0) -> tuple[int, SystemEvent | None]:
    """Apply one decoded trace record; returns the new time cursor and the
    event, if the record was one."""
    if not isinstance(record, dict):
        raise TraceError(f"record must be a JSON object, got {record!r}", record_no)
    body_keys = (set(record) - {"t", "note"})
    if body_keys == {"object"}:
        t = _check_time(record, last_time, record_no)
        body = record["object"]
        if not isinstance(body, dict) or set(body) - {"id", "attrs"} or "id" not in body:
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
    if body_keys == {"event"}:
        t = _check_time(record, last_time, record_no)
        body = record["event"]
        if not isinstance(body, dict) or set(body) - {"src", "dest", "params"} or {"src", "dest"} - set(body):
            raise TraceError("event record needs 'src', 'dest' and optional 'params'", record_no)
        src, dest = body["src"], body["dest"]
        if not isinstance(src, str) or not isinstance(dest, str):
            raise TraceError("event endpoints must be strings", record_no)
        params = _coerce_map(body.get("params", {}), "params", record_no)
        if "time" in params:
            raise TraceError("'time' is an injected parameter and cannot be supplied", record_no)
        params["time"] = t
        event = graph._append_event(src, dest, params, t, record_no)
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
    """Decode JSON Lines, skipping blank lines; errors carry line numbers."""
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"bad JSON: {exc}", line_no) from exc


def load_trace(path: str) -> SystemGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return ingest_trace(read_jsonl(handle))


def write_jsonl(graph: SystemGraph) -> str:
    return "\n".join(json.dumps(r, sort_keys=True) for r in graph.to_records()) + "\n"
