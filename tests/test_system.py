"""Trace ingestion and the system-graph model."""

import json
import random
import tracemalloc

import pytest

from policygraph.monitor import Monitor
from policygraph.policy import parse_policy
from policygraph.system import (
    SystemEvent,
    SystemGraph,
    TraceError,
    apply_record,
    ingest_trace,
    read_jsonl,
    write_jsonl,
)
from policygraph.values import ValueSet, values_equal

from oracle import random_trace_records

CLASSIC = [
    {"t": 1, "object": {"id": "john", "attrs": {"name": "john", "type": "user", "sec_level": 0}}},
    {"t": 1, "object": {"id": "jane", "attrs": {"name": "jane", "type": "user", "sec_level": 2}}},
    {"t": 1, "object": {"id": "a", "attrs": {"name": "a", "type": "file", "sec_level": 0}}},
    {"t": 1, "object": {"id": "b", "attrs": {"name": "b", "type": "file", "sec_level": 2}}},
    {"t": 1, "event": {"src": "john", "dest": "a", "params": {"method": "read"}}},
    {"t": 2, "event": {"src": "john", "dest": "b", "params": {"method": "read"}}},
    {"t": 3, "event": {"src": "jane", "dest": "b", "params": {"method": "write"}}},
]


class TestIngestion:
    def test_classic_fixture_counts(self):
        g = ingest_trace(CLASSIC)
        assert g.object_count() == 4
        assert len(g.events) == 3
        assert g.horizon == 3

    def test_empty_stream(self):
        g = ingest_trace([])
        assert g.object_count() == 0
        assert g.events == []
        assert g.horizon == 0

    def test_time_parameter_is_injected(self):
        g = ingest_trace(CLASSIC)
        assert [e.params["time"] for e in g.events] == [1, 2, 3]

    def test_id_attribute_is_injected(self):
        g = ingest_trace(CLASSIC)
        assert g.attrs_at("john", 1)["id"] == "john"

    def test_explicit_matching_id_attribute_is_allowed(self):
        g = ingest_trace([{"t": 1, "object": {"id": "x", "attrs": {"id": "x"}}}])
        assert g.attrs_at("x", 1)["id"] == "x"

    def test_arrays_become_sets(self):
        g = ingest_trace([{"t": 1, "object": {"id": "x", "attrs": {"tags": ["a", "a", 1]}}}])
        tags = g.attrs_at("x", 1)["tags"]
        assert isinstance(tags, ValueSet)
        assert values_equal(tags, ValueSet(["a", 1]))

    def test_identical_events_stay_distinct(self):
        records = CLASSIC[:5] + [CLASSIC[4]]
        g = ingest_trace(records)
        assert len(g.events) == 2
        assert g.events[0] == g.events[1]

    def test_note_field_is_ignored(self):
        g = ingest_trace([{"t": 1, "object": {"id": "x", "attrs": {}}, "note": "hello"}])
        assert g.object_count() == 1


class TestSnapshots:
    def test_carry_forward_to_event_instant(self):
        records = [
            {"t": 1, "object": {"id": "s", "attrs": {"level": 1}}},
            {"t": 1, "object": {"id": "d", "attrs": {}}},
            {"t": 2, "event": {"src": "s", "dest": "d", "params": {}}},
        ]
        g = ingest_trace(records)
        assert g.attrs_at("s", g.events[0].time)["level"] == 1

    def test_explicit_snapshot_at_event_instant_wins(self):
        records = [
            {"t": 1, "object": {"id": "s", "attrs": {"level": 1}}},
            {"t": 1, "object": {"id": "d", "attrs": {}}},
            {"t": 3, "object": {"id": "s", "attrs": {"level": 9}}},
            {"t": 3, "event": {"src": "s", "dest": "d", "params": {}}},
        ]
        g = ingest_trace(records)
        assert g.attrs_at("s", g.events[0].time)["level"] == 9

    def test_self_loop_resolves_both_ends_to_same_snapshot(self):
        records = [
            {"t": 1, "object": {"id": "s", "attrs": {"level": 1}}},
            {"t": 1, "event": {"src": "s", "dest": "s", "params": {}}},
        ]
        g = ingest_trace(records)
        event = g.events[0]
        assert g.attrs_at(event.src, event.time) is g.attrs_at(event.dest, event.time)

    def test_redeclare_same_instant_replaces(self):
        records = [
            {"t": 1, "object": {"id": "s", "attrs": {"level": 1}}},
            {"t": 1, "object": {"id": "s", "attrs": {"level": 2}}},
        ]
        g = ingest_trace(records)
        assert g.attrs_at("s", 1)["level"] == 2
        assert len(list(g.objects())) == 1

    def test_redeclare_after_use_at_same_instant_rejected(self):
        records = [
            {"t": 1, "object": {"id": "s", "attrs": {"level": 1}}},
            {"t": 1, "object": {"id": "d", "attrs": {}}},
            {"t": 1, "event": {"src": "s", "dest": "d", "params": {}}},
            {"t": 1, "object": {"id": "s", "attrs": {"level": 2}}},
        ]
        with pytest.raises(TraceError, match="already used"):
            ingest_trace(records)

    def test_judged_at_keeps_each_snapshots_outcomes(self, monkeypatch):
        """An entry answers the instants of its snapshot's span without a
        lookup or a second judgement, the newest covering every later
        instant, and only declaring its object again drops it."""
        g = ingest_trace([
            {"t": 1, "object": {"id": "s", "attrs": {"level": 1}}},
            {"t": 3, "object": {"id": "s", "attrs": {"level": 2}}},
        ])
        lookups, judged = [], []
        attrs_at = SystemGraph.attrs_at
        monkeypatch.setattr(SystemGraph, "attrs_at", lambda graph, *args: lookups.append(args) or attrs_at(graph, *args))

        def plan(attrs):
            judged.append(attrs["level"])
            return attrs["level"] * 10

        old, outcome = g.judged_at("s", 1, plan)
        assert old["level"] == 1 and outcome == 10
        assert g.judged_at("s", 1, plan) == (old, 10) and g.judged_at("s", 2, plan) == (old, 10)
        new, outcome = g.judged_at("s", 3, plan)
        assert new["level"] == 2 and outcome == 20
        assert g.judged_at("s", 9, plan) == (new, 20)  # the newest snapshot covers every later instant
        assert lookups == [("s", 1), ("s", 3)] and judged == [1, 2]
        g._append_event(SystemEvent("s", "s", {"time": 9}, 9))
        g._drop_last_event()
        assert g.judged_at("s", 9, plan) == (new, 20) and len(lookups) == 2 and judged == [1, 2]  # events keep entries
        g._declare_object("s", {"id": "s", "level": 3}, 9)
        newest, outcome = g.judged_at("s", 9, plan)
        assert newest["level"] == 3 and outcome == 30 and len(lookups) == 3 and judged == [1, 2, 3]

    def test_attrs_before_first_snapshot_unavailable(self):
        g = ingest_trace([{"t": 3, "object": {"id": "s", "attrs": {}}}])
        with pytest.raises(KeyError):
            g.attrs_at("s", 2)

    def test_attrs_at_errors_name_the_object_and_instant(self):
        g = ingest_trace([{"t": 3, "object": {"id": "s", "attrs": {}}}])
        with pytest.raises(KeyError, match="unknown object 'ghost'"):
            g.attrs_at("ghost", 3)
        with pytest.raises(KeyError, match=r"object 's' has no snapshot at or before t=2"):
            g.attrs_at("s", 2)

    def test_attrs_at_picks_the_newest_snapshot_at_or_before(self):
        times = [2, 3, 7, 8, 20]
        g = ingest_trace([{"t": t, "object": {"id": "s", "attrs": {"v": t}}} for t in times])
        for t in range(2, 25):
            assert g.attrs_at("s", t)["v"] == max(st for st in times if st <= t)


class TestReadMarks:
    """Each object keeps one mark, the instant of the latest event that
    read it: records never go back in time, so no older instant can be
    redeclared."""

    GUARD = parse_policy(
        """
        policy no_secret_reads {
          node u domain: true
          node d domain: level = $L
          edge r: u -> d req: $L < 2
        }
        """
    )

    def monitor(self):
        mon = Monitor([self.GUARD])
        for obj, level in (("u", 0), ("open", 0), ("secret", 2)):
            mon.step({"t": 1, "object": {"id": obj, "attrs": {"level": level}}})
        return mon

    def test_an_object_an_allowed_event_read_cannot_be_redeclared(self):
        mon = self.monitor()
        (decision,) = mon.step({"t": 2, "event": {"src": "u", "dest": "open", "params": {}}})
        assert decision.allowed
        with pytest.raises(TraceError, match="'open' at t=2 declared after an event already used it"):
            mon.step({"t": 2, "object": {"id": "open", "attrs": {"level": 1}}})
        mon.step({"t": 3, "object": {"id": "open", "attrs": {"level": 1}}})  # a later instant is free

    def test_an_object_only_a_denied_event_read_can_be_redeclared(self):
        mon = self.monitor()
        mon.step({"t": 2, "event": {"src": "u", "dest": "open", "params": {}}})
        (decision,) = mon.step({"t": 2, "event": {"src": "u", "dest": "secret", "params": {}}})
        assert not decision.allowed
        mon.step({"t": 2, "object": {"id": "secret", "attrs": {"level": 0}}})
        assert mon.graph.attrs_at("secret", 2)["level"] == 0
        with pytest.raises(TraceError, match="already used"):  # the allowed event's read stays marked
            mon.step({"t": 2, "object": {"id": "u", "attrs": {"level": 1}}})

    def test_dropping_an_event_restores_the_marks_before_it(self):
        g = ingest_trace(
            [{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in ("x", "y")]
            + [{"t": 1, "event": {"src": "x", "dest": "x", "params": {}}}]
        )
        g._append_event(SystemEvent("x", "y", {"time": 2}, 2))
        g._drop_last_event()
        with pytest.raises(TraceError, match="already used"):
            g._declare_object("x", {"id": "x"}, 1)
        g._declare_object("y", {"id": "y", "v": 1}, 1)

    def test_marks_do_not_grow_with_the_instants(self):
        """20 000 events at distinct instants hold no more than 20 000 at
        one instant; one mark per (object, instant) took about 4 MiB."""

        def traced(same_instant):
            records = [{"t": 0, "object": {"id": obj, "attrs": {}}} for obj in ("a", "b")]
            records += [{"t": 0 if same_instant else t, "event": {"src": "a", "dest": "b"}} for t in range(20_000)]
            tracemalloc.start()
            try:
                graph = ingest_trace(records)
                return tracemalloc.get_traced_memory()[0], graph
            finally:
                tracemalloc.stop()

        one_instant, _ = traced(True)
        many_instants, _ = traced(False)
        assert many_instants < one_instant + 256 * 1024


class TestErrors:
    @pytest.mark.parametrize(
        "record,fragment",
        [
            ({"t": 1, "event": {"src": "ghost", "dest": "ghost", "params": {}}}, "never declared"),
            ({"t": -1, "object": {"id": "x", "attrs": {}}}, "natural"),
            ({"t": True, "object": {"id": "x", "attrs": {}}}, "natural"),
            ({"object": {"id": "x", "attrs": {}}}, "no time"),
            ({"t": 1}, "exactly one"),
            ({"t": 1, "object": {"id": "x"}, "event": {}}, "exactly one"),
            ({"t": 1, "object": {"attrs": {}}}, "'id'"),
            ({"t": 1, "object": {"id": ""}}, "non-empty"),
            ({"t": 1, "object": {"id": "x", "attrs": {"v": None}}}, "unsupported"),
            ({"t": 1, "object": {"id": "x", "attrs": {"v": {"nested": 1}}}}, "unsupported"),
            ([1, 2], "record must be a JSON object"),
            ({"t": 1, "object": {"id": "x", "attrs": [1]}}, "attrs must be an object"),
            ({"t": 1, "event": {"src": "w", "dest": "w", "params": "read"}}, "params must be an object"),
            ({"t": 1, "event": {"src": "w"}}, "needs 'src', 'dest'"),
            ({"t": 1, "event": {"dest": "w", "params": {}}}, "needs 'src', 'dest'"),
            ({"t": 1, "event": {"src": 1, "dest": "w"}}, "endpoints must be strings"),
            ({"t": 1, "event": {"src": "w", "dest": ["w"]}}, "endpoints must be strings"),
            ({"t": 1, "object": {"id": "x", "attrs": {1: "one"}}}, "attrs key 1 is not a string"),
        ],
    )
    def test_bad_records(self, record, fragment):
        """The batch ingest and the monitor reject a record with the same
        error, numbered alike."""
        records = [{"t": 0, "object": {"id": "w", "attrs": {}}}, record]
        with pytest.raises(TraceError, match=fragment) as batch:
            ingest_trace(records)
        monitor = Monitor([])
        with pytest.raises(TraceError) as stream:
            for r in records:
                monitor.step(r)
        assert batch.value.record_no == stream.value.record_no == 2
        assert str(stream.value) == str(batch.value)
        assert str(batch.value).startswith("record 2: ")

    def test_decreasing_time(self):
        records = [
            {"t": 2, "object": {"id": "x", "attrs": {}}},
            {"t": 1, "object": {"id": "y", "attrs": {}}},
        ]
        with pytest.raises(TraceError, match="backwards"):
            ingest_trace(records)

    def test_user_supplied_time_parameter_rejected(self):
        records = [
            {"t": 1, "object": {"id": "x", "attrs": {}}},
            {"t": 1, "event": {"src": "x", "dest": "x", "params": {"time": 7}}},
        ]
        with pytest.raises(TraceError, match="injected"):
            ingest_trace(records)

    def test_id_attr_contradiction_rejected(self):
        with pytest.raises(TraceError, match="contradicts"):
            ingest_trace([{"t": 1, "object": {"id": "x", "attrs": {"id": "y"}}}])

    def test_error_carries_record_number(self):
        records = [
            {"t": 1, "object": {"id": "x", "attrs": {}}},
            {"t": 0, "object": {"id": "y", "attrs": {}}},
        ]
        with pytest.raises(TraceError) as info:
            ingest_trace(records)
        assert info.value.record_no == 2
        assert "record 2" in str(info.value)

    def test_jsonl_numbers_records_as_ingestion_does(self):
        """A bad line is numbered by the non-blank lines up to it, as
        ingestion numbers records."""
        lines = ['{"t": 1, "object": {"id": "x", "attrs": {}}}', "", "{不valid"]
        with pytest.raises(TraceError) as info:
            list(read_jsonl(lines))
        assert info.value.record_no == 2


class TestCopy:
    """A copy is an equal graph that shares no list, mark or memo with the
    original, so either can go on being changed alone."""

    def test_a_copy_is_equal_and_independent(self):
        g = ingest_trace(CLASSIC)
        g.attrs_at("john", 1)
        g.judged_at("john", 1, len)
        g.derived()["k"] = 1
        c = g.copy()
        assert c == g and c.derived() == {}
        apply_record(c, {"t": 4, "object": {"id": "a", "attrs": {"type": "file", "sec_level": 3}}}, 3)
        apply_record(c, {"t": 4, "event": {"src": "jane", "dest": "a", "params": {}}}, 4)
        assert g == ingest_trace(CLASSIC) and g.derived() == {"k": 1}
        assert c.attrs_at("a", 4)["sec_level"] == 3 and g.attrs_at("a", 4)["sec_level"] == 0
        assert (len(c.events), c.horizon, len(g.events), g.horizon) == (4, 4, 3, 3)
        assert c == ingest_trace(c.to_records())

    @pytest.mark.parametrize("second_at", [1, 2])
    def test_a_copy_keeps_and_owns_its_read_marks(self, second_at):
        """The marks of the latest instant carry over, and dropping the
        copy's last event restores its marks alone, whether that event
        kept the instant or began a new one."""
        g = ingest_trace([{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in ("x", "y", "z")])
        g._append_event(SystemEvent("x", "x", {"time": 1}, 1))
        g._append_event(SystemEvent("y", "y", {"time": second_at}, second_at))
        c = g.copy()
        with pytest.raises(TraceError, match="already used"):
            c._declare_object("y", {"id": "y"}, second_at)
        c._drop_last_event()
        assert c.horizon == 1 and len(g.events) == 2
        with pytest.raises(TraceError, match="already used"):
            c._declare_object("x", {"id": "x"}, 1)
        c._declare_object("y", {"id": "y", "v": 1}, 1)
        with pytest.raises(TraceError, match="already used"):
            g._declare_object("y", {"id": "y"}, second_at)


class TestRoundTrip:
    def test_classic_round_trip(self):
        g = ingest_trace(CLASSIC)
        again = ingest_trace(g.to_records())
        assert g == again

    def test_jsonl_round_trip(self):
        g = ingest_trace(CLASSIC)
        text = write_jsonl(g)
        again = ingest_trace(read_jsonl(text.splitlines()))
        assert g == again
        for line in text.strip().splitlines():
            json.loads(line)

    def test_random_round_trips(self):
        rng = random.Random(8008)
        for _ in range(200):
            g = ingest_trace(random_trace_records(rng))
            assert ingest_trace(g.to_records()) == g

    def test_equality_is_structural(self):
        g1 = ingest_trace(CLASSIC)
        g2 = ingest_trace(list(CLASSIC))
        assert g1 == g2
        extra = CLASSIC + [{"t": 4, "event": {"src": "john", "dest": "a", "params": {}}}]
        assert ingest_trace(extra) != g1


def _obj(t: int, obj_id: str, **attrs) -> dict:
    return {"t": t, "object": {"id": obj_id, "attrs": attrs}}


def _event(t: int, src: str, dest: str, **params) -> dict:
    return {"t": t, "event": {"src": src, "dest": dest, "params": params}}


def _horizon(graph: SystemGraph, horizon: int) -> SystemGraph:
    graph.horizon = horizon
    return graph


BASE = [_obj(1, "x", v=1), _obj(1, "y", v=1), _obj(2, "z"), _event(2, "x", "y", act=1)]


@pytest.mark.parametrize("build", [
    lambda: ingest_trace(BASE[:2] + [_obj(2, "x", v=1)] + BASE[2:]),
    lambda: ingest_trace([_obj(0, "x", v=1)] + BASE[1:]),
    lambda: ingest_trace([_obj(1, "x", v=True)] + BASE[1:]),
    lambda: ingest_trace(BASE + [_event(2, "x", "y", act=1)]),
    lambda: ingest_trace(BASE[:3] + [_event(2, "y", "y", act=1)]),
    lambda: ingest_trace(BASE[:3] + [_event(2, "x", "x", act=1)]),
    lambda: ingest_trace(BASE[:2] + [_event(1, "x", "y", act=1), BASE[2]]),
    lambda: ingest_trace(BASE[:3] + [_event(2, "x", "y", act=True)]),
    lambda: _horizon(ingest_trace(BASE), 3),
], ids=["snapshot count", "snapshot time", "attribute kind", "event count", "event src", "event dest", "event time",
        "parameter kind", "horizon"])
def test_graphs_that_differ_in_one_thing_are_unequal(build):
    base, other = ingest_trace(BASE), build()
    assert base == ingest_trace(BASE)
    assert base != other and other != base
    assert base != object() and base.__eq__(object()) is NotImplemented


class TestApplyRecord:
    def test_returns_event_and_time(self):
        g = SystemGraph()
        t, event = apply_record(g, {"t": 1, "object": {"id": "x", "attrs": {}}}, 0)
        assert (t, event) == (1, None)
        t, event = apply_record(g, {"t": 2, "event": {"src": "x", "dest": "x", "params": {}}}, t)
        assert t == 2
        assert event is g.events[0]
