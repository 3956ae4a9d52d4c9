"""Match enumeration and verdicts, checked against a brute-force oracle."""

import gc
import os
import pickle
import random
import subprocess
import sys
import tracemalloc

import pytest

from policygraph.algebra import pattern_matches_bounded
from policygraph.corpus import corpus_text, load_corpus_policy, load_manifest
from policygraph.matching import (
    Candidates,
    InvalidPolicyError,
    Match,
    MatchCapExceeded,
    MatchingError,
    _bind,
    _edge_candidates,
    _iso_candidates,
    check_requirement,
    each_match,
    find_matches,
    match_pattern,
    Witness,
    verdict,
    verdict_all,
)
from policygraph.monitor import Monitor
from policygraph.policy import PatternGraph, domain_of, make_policy, parse_policy, validate_policy
from policygraph.predicates import (
    FALSE,
    TRUE,
    BinOp,
    Const,
    PredicateTypeError,
    Var,
    extract_bindings,
    parse_predicate,
    reduce_conditions,
    satisfy,
)
from policygraph.reports import match_record, witness_record
from policygraph.system import TraceError, ingest_trace, read_jsonl
from policygraph.values import ValueSet, canonical

from oracle import (
    GEN_ATTRS,
    GEN_VALUES,
    MIXED_VALUES,
    oracle_matches,
    oracle_verdict,
    random_policy,
    random_trace_records,
)
from test_screening import _raised, engine_results, screened_policy, screened_records

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

NO_READ_UP = """
policy no_read_up {
  node u domain: type = "user" && sec_level = $UL
  node f domain: type = "file" && sec_level = $FL
  edge r: u -> f domain: method = "read" req: $UL >= $FL
}
"""

CLASSIC = [
    {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 0}}},
    {"t": 1, "object": {"id": "jane", "attrs": {"type": "user", "sec_level": 2}}},
    {"t": 1, "object": {"id": "a", "attrs": {"type": "file", "sec_level": 0}}},
    {"t": 1, "object": {"id": "b", "attrs": {"type": "file", "sec_level": 2}}},
    {"t": 1, "event": {"src": "john", "dest": "a", "params": {"method": "read"}}},
    {"t": 2, "event": {"src": "john", "dest": "b", "params": {"method": "read"}}},
    {"t": 3, "event": {"src": "jane", "dest": "b", "params": {"method": "write"}}},
]


def wildcard_policy(text: str):
    return parse_policy(text)


class TestNoReadUp:
    def setup_method(self):
        self.policy = parse_policy(NO_READ_UP)
        self.graph = ingest_trace(CLASSIC)

    def test_exactly_the_two_read_events_match(self):
        matches = find_matches(self.policy, self.graph)
        assert [m.edge_events for m in matches] == [{"r": 0}, {"r": 1}]

    def test_bindings_are_taken_from_the_matched_objects(self):
        by_event = {m.edge_events["r"]: m for m in find_matches(self.policy, self.graph)}
        assert by_event[0].bindings == {"UL": 0, "FL": 0}
        assert by_event[1].bindings == {"UL": 0, "FL": 2}
        assert by_event[0].node_objects == {"u": "john", "f": "a"}
        assert by_event[1].node_objects == {"u": "john", "f": "b"}

    def test_verdict_flags_the_high_read(self):
        v = verdict(self.policy, self.graph)
        assert not v.upheld
        assert len(v.witnesses) == 2
        (bad,) = v.violations
        assert bad.match.edge_events == {"r": 1}
        assert bad.failing == ("r",)

    def test_check_requirement_uses_only_bindings_on_nodes(self):
        m = find_matches(self.policy, self.graph)[1]
        satisfied, failing = check_requirement(self.policy, m, self.graph)
        assert (satisfied, failing) == (False, ("r",))


class TestInjectivity:
    def test_self_event_cannot_span_two_nodes(self):
        p = wildcard_policy("policy p {\n node a\n node b\n edge e: a -> b\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {}}},
                {"t": 1, "event": {"src": "x", "dest": "x", "params": {}}},
            ]
        )
        assert find_matches(p, g) == []

    def test_self_loop_edge_matches_only_self_events(self):
        p = wildcard_policy("policy p {\n node a\n edge e: a -> a\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {}}},
                {"t": 1, "object": {"id": "y", "attrs": {}}},
                {"t": 1, "event": {"src": "x", "dest": "y", "params": {}}},
                {"t": 2, "event": {"src": "y", "dest": "y", "params": {}}},
            ]
        )
        matches = find_matches(p, g)
        assert [m.edge_events for m in matches] == [{"e": 1}]
        assert matches[0].node_objects == {"a": "y"}

    def test_shared_node_must_agree_across_edges(self):
        p = wildcard_policy("policy p {\n node a\n node b\n node c\n edge e1: a -> b\n edge e2: a -> c\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "s", "attrs": {}}},
                {"t": 1, "object": {"id": "u", "attrs": {}}},
                {"t": 1, "object": {"id": "v", "attrs": {}}},
                {"t": 1, "object": {"id": "w", "attrs": {}}},
                {"t": 1, "event": {"src": "s", "dest": "u", "params": {}}},
                {"t": 2, "event": {"src": "s", "dest": "v", "params": {}}},
                {"t": 3, "event": {"src": "w", "dest": "v", "params": {}}},
            ]
        )
        keys = {tuple(sorted(m.edge_events.items())) for m in find_matches(p, g)}
        assert keys == {(("e1", 0), ("e2", 1)), (("e1", 1), ("e2", 0))}

    def test_distinct_nodes_need_distinct_objects(self):
        p = wildcard_policy("policy p {\n node a\n node b\n node c\n edge e1: a -> b\n edge e2: a -> c\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "s", "attrs": {}}},
                {"t": 1, "object": {"id": "u", "attrs": {}}},
                {"t": 1, "event": {"src": "s", "dest": "u", "params": {}}},
                {"t": 2, "event": {"src": "s", "dest": "u", "params": {}}},
            ]
        )
        assert find_matches(p, g) == []

    def test_two_edges_never_share_one_event(self):
        p = wildcard_policy("policy p {\n node a\n node b\n edge e1: a -> b\n edge e2: a -> b\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {}}},
                {"t": 1, "object": {"id": "y", "attrs": {}}},
                {"t": 1, "event": {"src": "x", "dest": "y", "params": {}}},
            ]
        )
        assert find_matches(p, g) == []


class TestIsolatedNodes:
    def test_object_instant_pairs_from_first_sight_to_horizon(self):
        p = wildcard_policy('policy p {\n node n domain: kind = "f"\n}')
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {"kind": "f"}}},
                {"t": 3, "object": {"id": "late", "attrs": {"kind": "f"}}},
            ]
        )
        placements = {m.isolated_objects["n"] for m in find_matches(p, g)}
        assert placements == {("x", 1), ("x", 2), ("x", 3), ("late", 3)}

    def test_domain_sees_the_snapshot_at_each_instant(self):
        p = wildcard_policy("policy p {\n node n domain: hot = true\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {"hot": False}}},
                {"t": 2, "object": {"id": "x", "attrs": {"hot": True}}},
                {"t": 3, "object": {"id": "x", "attrs": {"hot": False}}},
            ]
        )
        placements = {m.isolated_objects["n"] for m in find_matches(p, g)}
        assert placements == {("x", 2)}

    def test_two_isolated_nodes_swap(self):
        p = wildcard_policy("policy p {\n node a\n node b\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {}}},
                {"t": 1, "object": {"id": "y", "attrs": {}}},
            ]
        )
        placements = {tuple(sorted(m.isolated_objects.items())) for m in find_matches(p, g)}
        assert placements == {
            (("a", ("x", 1)), ("b", ("y", 1))),
            (("a", ("y", 1)), ("b", ("x", 1))),
        }

    def test_isolated_node_avoids_edge_claimed_objects(self):
        p = wildcard_policy("policy p {\n node a\n node b\n node c\n edge e: a -> b\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {}}},
                {"t": 1, "object": {"id": "y", "attrs": {}}},
                {"t": 1, "object": {"id": "z", "attrs": {}}},
                {"t": 1, "event": {"src": "x", "dest": "y", "params": {}}},
            ]
        )
        matches = find_matches(p, g)
        assert [m.isolated_objects["c"] for m in matches] == [("z", 1)]

    def test_empty_policy_matches_once_trivially(self):
        p = parse_policy("policy empty {\n}")
        g = ingest_trace(CLASSIC)
        matches = find_matches(p, g)
        assert len(matches) == 1
        assert matches[0].edge_events == {}
        assert matches[0].isolated_objects == {}
        assert verdict(p, g).upheld

    def test_span_walk_gives_the_per_instant_candidates(self):
        """_iso_candidates judges each snapshot once over its span of
        instants; its spans, expanded to their instants in order, are the
        candidates of judging every (object, instant) pair.  The graphs
        redeclare snapshots within an instant and roll the horizon back on
        denied events."""
        rng = random.Random(4242)
        deny = parse_policy('policy deny {\n node a\n node b\n edge e: a -> b domain: act = "alpha" req: false\n}')
        patterns = [domain_of(p) for i in range(60) for p in [random_policy(rng, f"r{i}", lone_node=True)]]
        patterns = [g for g in patterns if g.key_ids[1]]
        checked = redeclared = rolled_back = 0
        for _ in range(40):
            mon = Monitor([deny])
            latest = {}  # per object, the time of its newest snapshot
            for record in random_span_records(rng):
                horizon = mon.graph.horizon
                try:
                    decisions = mon.step(record)
                except TraceError:  # a snapshot redeclared after an event read it
                    continue
                if "object" in record:
                    redeclared += latest.get(record["object"]["id"]) == record["t"]
                    latest[record["object"]["id"]] = record["t"]
                rolled_back += any(not d.allowed for d in decisions) and record["t"] > horizon
                for pattern in rng.sample(patterns, 3):
                    spans = _iso_candidates(pattern, mon.graph)
                    assert expand_spans(spans) == per_instant_candidates(pattern, mon.graph)
                    checked += 1
        assert checked > 600 and redeclared > 5 and rolled_back > 5

    def test_epoch_horizon_costs_no_memory_per_instant(self):
        """/etc/passwd observed at t = 1.7e9 and again one week, or ten
        weeks, later: the isolated node has one candidate span, so the
        search reaches the cap with the same peak memory either way."""
        entry = next(e for e in load_manifest() if e.policy == "password_file_never_world_writable")
        p = load_corpus_policy(entry)
        attrs = {"name": "/etc/passwd", "world_writable": False}
        peaks = []
        for weeks in (1, 10):
            t0 = 1_700_000_000
            g = ingest_trace(
                [
                    {"t": t0, "object": {"id": "/etc/passwd", "attrs": attrs}},
                    {"t": t0 + weeks * 7 * 86_400, "object": {"id": "/etc/passwd", "attrs": attrs}},
                ]
            )
            tracemalloc.start()
            try:
                with pytest.raises(MatchCapExceeded):
                    verdict(p, g, cap=10_000)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_snapshot_spans_end_at_a_rolled_back_horizon(self):
        mon = Monitor([parse_policy("policy deny {\n node n\n edge e: n -> n req: false\n}")])
        mon.step({"t": 1, "object": {"id": "x", "attrs": {"v": 1}}})
        mon.step({"t": 1, "object": {"id": "x", "attrs": {"v": 2}}})  # redeclared within the instant
        mon.step({"t": 3, "object": {"id": "x", "attrs": {"v": 3}}})
        (decision,) = mon.step({"t": 9, "event": {"src": "x", "dest": "x", "params": {}}})
        assert not decision.allowed and mon.graph.horizon == 3
        assert [(first, last, dict(attrs)) for first, last, attrs in mon.graph.snapshot_spans("x")] == [
            (1, 2, {"v": 2, "id": "x"}),
            (3, 3, {"v": 3, "id": "x"}),
        ]


def random_span_records(rng: random.Random) -> list[dict]:
    """Objects declared at t = 1, then snapshots (some within an instant
    that already has one) and events, some of them at a later instant."""
    ids = ["o1", "o2", "o3"]
    records = [{"t": 1, "object": {"id": obj, "attrs": random_attrs(rng)}} for obj in ids]
    t = 1
    for _ in range(rng.randrange(2, 10)):
        t += rng.choice((0, 1, 3))
        if rng.random() < 0.5:
            records.append({"t": t, "object": {"id": rng.choice(ids), "attrs": random_attrs(rng)}})
        else:
            params = {"act": rng.choice(GEN_VALUES)}
            records.append({"t": t, "event": {"src": rng.choice(ids), "dest": rng.choice(ids), "params": params}})
    return records


def random_attrs(rng: random.Random) -> dict:
    return {name: rng.choice(GEN_VALUES) for name in GEN_ATTRS if rng.random() < 0.85}


def expand_spans(spans: dict) -> dict:
    """_iso_candidates() spans as one (object, instant, (captures, attrs))
    candidate per instant of each span."""
    return {
        node_id: [
            (obj_id, instant, (captures, attrs))
            for obj_id, first, last, captures, attrs in node_spans
            for instant in range(first, last + 1)
        ]
        for node_id, node_spans in spans.items()
    }


def per_instant_candidates(pattern: PatternGraph, graph) -> dict:
    """_iso_candidates() the slow way: every (object, instant) pair's
    effective snapshot, judged on its own."""
    out = {}
    for node_id in pattern.key_ids[1]:
        plan = pattern.plans[node_id]
        candidates = []
        for obj_id in graph.object_ids():
            first = min(snapshot.time for snapshot in graph.objects() if snapshot.id == obj_id)
            for instant in range(first, graph.horizon + 1):
                attrs = graph.attrs_at(obj_id, instant)
                found = plan(attrs)
                captures = {}
                if found is not None and _bind((found,), captures) is not None:
                    candidates.append((obj_id, instant, (captures, attrs)))
        out[node_id] = candidates
    return out


class TestGuards:
    def test_unvalidated_policy_is_refused(self):
        p = parse_policy("policy p {\n node n\n edge e: n -> n req: $X > 1\n}")
        for _ in range(2):  # the policy keeps its issues, and every call refuses it
            with pytest.raises(InvalidPolicyError) as info:
                find_matches(p, ingest_trace(CLASSIC))
            assert any(i.rule == "R1" for i in info.value.issues)

    def test_unsettled_residual_is_an_internal_error(self):
        """A variable without a capture is refused on entry, whether or not
        a match would complete: with kind 0 none does, with kind 1 one
        would, were $X bound."""
        pattern = PatternGraph(
            parse_policy("policy p {\n node n\n}").graph,
            {"n": parse_predicate("$X > 1")},
            frozenset({"X"}),
        )
        cases = [(pattern, {})]
        guarded = parse_policy("policy p {\n node n domain: kind = 1 && $X > 1\n}").domain
        cases += [(guarded, {"kind": kind}) for kind in (0, 1)]
        for pattern, attrs in cases:
            g = ingest_trace([{"t": 1, "object": {"id": "x", "attrs": attrs}}])
            with pytest.raises(MatchingError, match=r"\['X'\] have no capture and would be unbound at completion"):
                match_pattern(pattern, g)

    def test_match_cap(self):
        p = wildcard_policy("policy p {\n node n\n}")
        g = ingest_trace([{"t": 1, "object": {"id": f"o{i}", "attrs": {}}} for i in range(5)])
        assert len(find_matches(p, g, cap=5)) == 5
        with pytest.raises(MatchCapExceeded) as info:
            find_matches(p, g, cap=4)
        assert (info.value.policy, info.value.cap) == ("p", 4)

    def test_requirement_that_cannot_settle_raises(self):
        p = parse_policy("policy p {\n node n domain: level = $V\n edge e: n -> n req: $V + 1\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {"level": 3}}},
                {"t": 1, "event": {"src": "x", "dest": "x", "params": {}}},
            ]
        )
        with pytest.raises(PredicateTypeError, match="did not settle"):
            verdict(p, g)

    def test_requirement_type_error_propagates(self):
        p = parse_policy('policy p {\n node n domain: level = $V\n edge e: n -> n req: $V > 10\n}')
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {"level": "high"}}},
                {"t": 1, "event": {"src": "x", "dest": "x", "params": {}}},
            ]
        )
        with pytest.raises(PredicateTypeError):
            verdict(p, g)


class TestVerdictAll:
    def test_composite_requires_every_policy(self):
        ok = parse_policy("policy ok {\n node n\n edge e: n -> n req: true\n}")
        bad = parse_policy("policy bad {\n node n\n edge e: n -> n req: false\n}")
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {}}},
                {"t": 1, "event": {"src": "x", "dest": "x", "params": {}}},
            ]
        )
        combined = verdict_all([ok, bad], g)
        assert not combined.upheld
        assert [v.upheld for v in combined.verdicts] == [True, False]
        assert verdict_all([ok], g).upheld

    def test_empty_policy_set_is_upheld(self):
        combined = verdict_all([], ingest_trace(CLASSIC))
        assert combined.upheld
        assert combined.verdicts == ()


class TestAgainstOracle:
    """The enumerator vs. a brute-force independent implementation."""

    def test_match_sets_agree(self):
        rng = random.Random(20260814)
        total_matches = 0
        nonempty = 0
        for i in range(150):
            p = random_policy(rng, f"gen{i}")
            g = ingest_trace(random_trace_records(rng))
            engine = {m.key() for m in find_matches(p, g)}
            brute = oracle_matches(p, g)
            assert engine == brute, f"case {i}: {p}"
            total_matches += len(engine)
            nonempty += bool(engine)
        assert nonempty > 20  # the generator must not be vacuous
        assert total_matches > 60

    def test_verdicts_agree(self):
        rng = random.Random(8141991)
        disagreements = []
        upheld = violated = 0
        for i in range(150):
            p = random_policy(rng, f"gen{i}")
            g = ingest_trace(random_trace_records(rng))
            if verdict(p, g).upheld != oracle_verdict(p, g):
                disagreements.append(i)
            if verdict(p, g).upheld:
                upheld += 1
            else:
                violated += 1
        assert disagreements == []
        assert upheld > 20 and violated > 12  # both outcomes well represented

    def test_match_sets_agree_with_filters(self):
        """Policies with a conjunct that reads a variable another element
        binds, so that the join runs it as a filter."""
        rng = random.Random(20261019)
        nonempty = filtered = 0
        for i in range(300):
            p = random_policy(rng, f"gen{i}", filters=True, lone_node=rng.random() < 0.3)
            g = ingest_trace(random_trace_records(rng, n_objects=rng.choice([2, 3, 4])))
            engine = {m.key() for m in find_matches(p, g)}
            assert engine == oracle_matches(p, g), f"case {i}: {p}"
            nonempty += bool(engine)
            filtered += any(plan.filters for plan in p.domain.plans.values())
        assert nonempty > 60 and filtered > 150

    def test_verdicts_agree_with_filters(self):
        rng = random.Random(20261020)
        upheld = violated = 0
        for i in range(300):
            p = random_policy(rng, f"gen{i}", filters=True, parallel=rng.random() < 0.3)
            g = ingest_trace(random_trace_records(rng))
            got = verdict(p, g).upheld
            assert got == oracle_verdict(p, g), f"case {i}: {p}"
            upheld += got
            violated += not got
        assert upheld > 40 and violated > 25

    def test_bindings_unique_per_assignment(self):
        rng = random.Random(5150)
        for i in range(100):
            p = random_policy(rng, f"gen{i}")
            g = ingest_trace(random_trace_records(rng))
            seen = {}
            for m in find_matches(p, g):
                assignment = (
                    tuple(sorted(m.edge_events.items())),
                    tuple(sorted(m.isolated_objects.items())),
                )
                assert assignment not in seen, "two binding sets for one assignment"
                seen[assignment] = m.bindings

    def test_match_keys_are_stable_identities(self):
        p = parse_policy(NO_READ_UP)
        g = ingest_trace(CLASSIC)
        keys = [m.key() for m in find_matches(p, g)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        again = [m.key() for m in find_matches(p, g)]
        assert keys == again
        # the enumerator sorts by assignment alone; on random policies and
        # traces that is still Match.key() order
        rng = random.Random(31337)
        sorted_lists = 0
        for i in range(600):
            p = random_policy(rng, f"gen{i}", parallel=rng.random() < 0.3)
            g = ingest_trace(random_trace_records(rng, n_events=rng.randrange(2, 13)))
            ms = find_matches(p, g)
            assert ms == sorted(ms, key=Match.key), f"case {i}: {p}"
            sorted_lists += len(ms) > 1
        assert sorted_lists > 80


class TestBindingRule:
    """A variable captured twice with equal numbers of two kinds reports
    the capture of the first element in elements() order, whatever order
    the join placed the elements in."""

    POLICY = """
    policy p {
      node a
      node b
      node c
      edge e1: a -> b domain: m = "x" && v = $X
      edge e2: a -> c domain: m = "y" && v = $X
    }
    """

    def test_binding_does_not_depend_on_unrelated_events(self):
        p = parse_policy(self.POLICY)
        base = [{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in ("A", "B", "C")] + [
            {"t": 2, "event": {"src": "A", "dest": "B", "params": {"m": "x", "v": 1}}},
            {"t": 2, "event": {"src": "A", "dest": "C", "params": {"m": "y", "v": 1.0}}},
        ]
        reported = set()
        for extra in ([], [("B", "x")], [("C", "y")], [("B", "x"), ("B", "x")], [("C", "y"), ("C", "y")]):
            records = base + [
                {"t": 3, "event": {"src": "A", "dest": dest, "params": {"m": m, "v": 7}}} for dest, m in extra
            ]
            (match,) = [m for m in find_matches(p, ingest_trace(records)) if m.edge_events == {"e1": 0, "e2": 1}]
            reported.add(repr(match.bindings))
        assert reported == {"{'X': 1}"}  # e1's capture: e1 precedes e2

    def test_match_repr_does_not_depend_on_unrelated_events(self):
        # one more a -> b event makes the join place e2 before e1
        p = parse_policy(self.POLICY)
        base = [{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in ("A", "B", "C")] + [
            {"t": 2, "event": {"src": "A", "dest": "B", "params": {"m": "x", "v": 1}}},
            {"t": 2, "event": {"src": "A", "dest": "C", "params": {"m": "y", "v": 1}}},
        ]
        extra = [{"t": 3, "event": {"src": "A", "dest": "B", "params": {"m": "x", "v": 7}}}]
        reprs = set()
        for records in (base, base + extra):
            (match,) = [m for m in find_matches(p, ingest_trace(records)) if m.edge_events == {"e1": 0, "e2": 1}]
            reprs.add(repr(match))
        assert len(reprs) == 1
        assert list(match.edge_events) == ["e1", "e2"] and list(match.node_objects) == ["a", "b", "c"]

    SHAPES = [
        "node a\n node b\n node c\n edge e1: a -> b\n edge e2: a -> c domain: act = 1",
        'node a\n node b\n node c\n edge e1: a -> b domain: act = "alpha"\n edge e2: c -> b domain: grade = 2',
        'node a\n node b\n node n domain: kind = "beta"\n edge e1: b -> a domain: act != 1',
        "node a\n node b\n node c\n node d domain: level = 1\n edge e1: b -> a\n edge e2: a -> c domain: act = 2",
        'node m domain: kind = "alpha"\n node n domain: level = 2',
    ]

    def test_every_match_lists_its_assignments_in_one_order(self):
        rng = random.Random(77031)
        reordered = 0
        for i in range(100):
            p = parse_policy(f"policy p{i} {{\n {self.SHAPES[i % len(self.SHAPES)]}\n}}")
            g = ingest_trace(random_trace_records(rng, n_objects=4, n_events=6))
            pattern = domain_of(p)
            matches = find_matches(p, g)
            for m in matches:
                assert (tuple(m.edge_events), tuple(m.isolated_objects)) == pattern.key_ids
                assert list(m.node_objects) == sorted(pattern.graph.nodes)
            # whether the join, which takes the fewest candidates first, took another order
            counts = [[len(c) for c in cands.values()] for cands in (_edge_candidates(pattern, g), _iso_candidates(pattern, g))]
            reordered += bool(matches) and any(c != sorted(c) for c in counts)
        assert reordered > 10

    def test_isolated_placements_are_listed_by_node_id(self):
        # more k = 1 objects make the join place n before m
        p = parse_policy("policy p {\n node m domain: k = 1\n node n domain: k = 2\n}")
        base = [{"t": 1, "object": {"id": obj, "attrs": {"k": k}}} for obj, k in (("P", 1), ("Q", 2), ("R", 2))]
        extra = [{"t": 1, "object": {"id": obj, "attrs": {"k": 1}}} for obj in ("S", "T")]
        reprs = set()
        for records in (base, base + extra):
            (match,) = [m for m in find_matches(p, ingest_trace(records)) if m.node_objects == {"m": "P", "n": "Q"}]
            reprs.add(repr(match))
        assert len(reprs) == 1
        assert list(match.isolated_objects) == ["m", "n"] and list(match.node_objects) == ["m", "n"]

    def test_a_node_precedes_the_edges(self):
        p = parse_policy(
            "policy p {\n node a domain: k = $X\n node b\n edge e: a -> b domain: v = $X\n edge f: b -> a domain: v = $X\n}"
        )
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "A", "attrs": {"k": 2.0}}},
                {"t": 1, "object": {"id": "B", "attrs": {}}},
                {"t": 2, "event": {"src": "A", "dest": "B", "params": {"v": 2}}},
                {"t": 3, "event": {"src": "B", "dest": "A", "params": {"v": 2}}},
            ]
        )
        (match,) = find_matches(p, g)
        assert repr(match.bindings) == "{'X': 2.0}"


def wide_domain_policy(width: int):
    """One node whose domain is a width-way && chain: width - 1 tests on
    level (ten distinct ones, which keeps the oracle's value pool small),
    then the capture of $K."""
    tests = " && ".join(f"level != {100 + i % 10}" for i in range(width - 1))
    return parse_policy(f"policy wide {{\n node n domain: {tests} && kind = $K req: $K < 3\n}}\n")


class TestWideDomains:
    """A wide && domain is parsed, validated and matched without deep recursion."""

    RECORDS = [
        {"t": 1, "object": {"id": "a", "attrs": {"kind": 1, "level": 5}}},
        {"t": 1, "object": {"id": "b", "attrs": {"kind": 4, "level": 5}}},
        {"t": 1, "object": {"id": "c", "attrs": {"kind": 0}}},
        {"t": 2, "object": {"id": "d", "attrs": {"kind": 7, "level": 101}}},
    ]

    def test_ten_thousand_conjuncts(self):
        p = wide_domain_policy(10_000)
        assert validate_policy(p) == []
        v = verdict(p, ingest_trace(self.RECORDS))
        assert not v.upheld
        assert sorted((w.match.isolated_objects["n"], w.satisfied) for w in v.witnesses) == [
            (("a", 1), True), (("a", 2), True), (("b", 1), False), (("b", 2), False),
        ]

    def test_agrees_with_the_oracle(self):
        p, g = wide_domain_policy(400), ingest_trace(self.RECORDS)
        assert verdict(p, g).upheld == oracle_verdict(p, g) is False
        g = ingest_trace(self.RECORDS[:1] + self.RECORDS[2:])
        assert verdict(p, g).upheld == oracle_verdict(p, g) is True

    @pytest.mark.parametrize("op", ["&&", "||"])
    @pytest.mark.parametrize("where", ["domain", "requirement"])
    def test_ten_thousand_way_chains_at_the_default_recursion_limit(self, op, where):
        """A chain of one connective compiles into one loop over its
        operands, so a 10 000-way chain gets a verdict in a domain and in a
        requirement."""
        assert sys.getrecursionlimit() <= 1000
        p = wide_chain_policy(10_000, op, where)
        assert validate_policy(p) == []
        v = verdict(p, ingest_trace(self.RECORDS))
        # the || chain allows the kinds below 3 (objects a and c), the && chain forbids them
        allowed = op == "||"
        if where == "domain":
            want = {(obj, True) for obj in ("a", "b", "c", "d") if (obj in "ac") == allowed}
        else:
            want = {(obj, (obj in "ac") == allowed) for obj in ("a", "b", "c", "d")}
        assert {(w.match.node_objects["n"], w.satisfied) for w in v.witnesses} == want
        assert v.upheld == (where == "domain")

    @pytest.mark.parametrize("op", ["&&", "||"])
    @pytest.mark.parametrize("where", ["domain", "requirement"])
    def test_four_hundred_way_chains_agree_with_the_oracle(self, op, where):
        p, g = wide_chain_policy(400, op, where), ingest_trace(self.RECORDS)
        assert verdict(p, g).upheld == oracle_verdict(p, g)
        assert {m.key() for m in find_matches(p, g)} == oracle_matches(p, g)


    @pytest.mark.parametrize("where", ["domain", "requirement"])
    @pytest.mark.parametrize("width", [400, 10_000])
    def test_a_number_in_a_wide_chain_raises_the_interpreters_error(self, where, width):
        """The error shows the smallest link holding the number, with the
        snapshot substituted, as the parent engine printed it at 400 links;
        at 10 000 links it is still that error, not a RecursionError."""
        assert sys.getrecursionlimit() <= 1000
        g = ingest_trace([{"t": 1, "object": {"id": "a", "attrs": {"kind": 7, "level": 3}}}])
        for pos in (0, width // 2, width - 1):
            shown = [f"7 = {i if i < 3 else 100}" for i in range(max(pos, 1) + 1)]
            shown[pos] = "3"
            with pytest.raises(PredicateTypeError) as info:
                verdict(chain_with_a_number(width, where, pos), g)
            assert str(info.value) == "expected a boolean: " + " || ".join(shown)


def chain_with_a_number(width: int, where: str, pos: int):
    """wide_chain_policy's || chain with operand pos replaced by the number
    `level` (or $L, captured from it)."""
    terms = [f"kind = {i if i < 3 else 100}" for i in range(width)]
    terms[pos] = "level"
    if where == "domain":
        return parse_policy(f"policy e {{\n node n domain: ({' || '.join(terms)}) && kind = $K\n}}\n")
    chain = " || ".join(terms).replace("kind", "$K").replace("level", "$L")
    return parse_policy(f"policy e {{\n node n domain: kind = $K && level = $L req: {chain}\n}}\n")


def wide_chain_policy(width: int, op: str, where: str):
    """One node with a width-way chain of `op` over kind: an allow-list
    `kind = 0 || kind = 1 || ...` of the kinds below 3 (the rest repeat
    100), or a deny-list `kind != 0 && ...`, in the domain or, on the
    captured $K, in the requirement."""
    term = "kind = {}" if op == "||" else "kind != {}"
    chain = f" {op} ".join(term.format(i if i < 3 else 100) for i in range(width))
    if where == "domain":
        return parse_policy(f"policy wide {{\n node n domain: ({chain}) && kind = $K\n}}\n")
    chain = chain.replace("kind", "$K")
    return parse_policy(f"policy wide {{\n node n domain: kind = $K req: {chain}\n}}\n")


class TestSortedBindings:
    PROBE = """
import sys
from policygraph.matching import find_matches
from policygraph.policy import parse_policy
from policygraph.system import ingest_trace
p = parse_policy("policy p {\\n node a domain: x = $X && y = $Y && z = $Z\\n}")
g = ingest_trace([{"t": 1, "object": {"id": "o", "attrs": {"x": 1, "y": 2, "z": 3}}}])
print(repr(find_matches(p, g)))
"""

    def test_match_repr_does_not_depend_on_the_hash_seed(self):
        """Bindings are listed by sorted variable name, not in the
        iteration order of a frozenset of names, which the hash seed sets."""
        outputs = set()
        for seed in ("1", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
            done = subprocess.run([sys.executable, "-c", self.PROBE], env=env, capture_output=True, text=True, check=True)
            outputs.add(done.stdout)
        (output,) = outputs
        assert "bindings={'X': 1, 'Y': 2, 'Z': 3}" in output


class TestExactNumberKeys:
    """Match keys keep numbers exact: integers beyond a float's precision
    or range stay distinct and never overflow, while 1 and 1.0 still
    meet and true does not."""

    POLICY = "policy p {\n node n domain: level = $L\n}"

    def keys(self, *levels):
        records = [{"t": 1, "object": {"id": f"o{i}", "attrs": {"level": v}}} for i, v in enumerate(levels)]
        return [m.key() for m in find_matches(parse_policy(self.POLICY), ingest_trace(records))]

    def test_a_binding_beyond_the_float_range(self):
        (key,) = self.keys(10**400)
        assert key[2] == (("L", canonical(10**400)),)

    def test_integers_one_apart_beyond_float_precision(self):
        first, second = self.keys(2**60, 2**60 + 1)
        assert first[2] != second[2]
        assert ValueSet([2**60 + 1, 2**60]) == ValueSet([2**60, 2**60 + 1])

    def test_one_and_one_point_zero_meet_and_true_does_not(self):
        assert canonical(1) == canonical(1.0) and hash(canonical(1)) == hash(canonical(1.0))
        assert canonical(True) != canonical(1)
        (one,), (one_point_zero,), (true,) = self.keys(1), self.keys(1.0), self.keys(True)
        assert one[2] == one_point_zero[2] and one[2] != true[2]


class TestRecordContract:
    """Match and Witness are immutable records, equal by fields, that
    survive pickling; their keys and JSON records read as below."""

    POLICY = """policy rec {
  node u domain: type = "user" && level = $UL
  node f domain: type = "file" && level = $FL
  node log domain: kind = "log" && tag = $T
  edge r: u -> f domain: method = "read" req: $UL >= $FL
}"""
    RECORDS = [
        {"t": 1, "object": {"id": "ann", "attrs": {"type": "user", "level": 2}}},
        {"t": 1, "object": {"id": "doc", "attrs": {"type": "file", "level": 2.5}}},
        {"t": 2, "object": {"id": "syslog", "attrs": {"kind": "log", "tag": True}}},
        {"t": 2, "event": {"src": "ann", "dest": "doc", "params": {"method": "read"}}},
    ]

    def witness(self) -> Witness:
        (w,) = verdict(parse_policy(self.POLICY), ingest_trace(self.RECORDS)).witnesses
        return w

    def test_fields_cannot_be_assigned(self):
        w = self.witness()
        for record, field in ((w, "satisfied"), (w, "failing"), (w.match, "policy"), (w.match, "bindings")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_equal_fields_make_equal_records_and_pickling_keeps_them(self):
        w, m = self.witness(), self.witness().match
        assert w == self.witness() and m == Match(m.policy, dict(m.edge_events), dict(m.isolated_objects),
                                                  dict(m.node_objects), dict(m.bindings))
        assert w == Witness(m, w.satisfied, w.failing)
        assert w != Witness(m, not w.satisfied, w.failing)
        for record in (w, m):
            assert pickle.loads(pickle.dumps(record)) == record

    def test_key_and_records(self):
        w = self.witness()
        assert w.match.key() == (
            (("r", 0),),
            (("log", ("syslog", 2)),),
            (("FL", ("num", 2.5)), ("T", ("flag", True)), ("UL", ("num", 2))),
        )
        record = {"edges": {"r": 0}, "isolated": {"log": ["syslog", 2]}, "bindings": {"FL": 2.5, "T": True, "UL": 2}}
        assert match_record(w.match) == record
        assert witness_record("rec", w) == {
            "policy": "rec",
            "match": {"edges": {"r": 0}, "isolated": {"log": ["syslog", 2]},
                      "nodes": {"f": "doc", "log": "syslog", "u": "ann"}},
            "bindings": record["bindings"],
            "satisfied": False,
            "failing": ["r"],
        }


def join_results(policies, records) -> list:
    """test_screening.engine_results, plus per policy the order in which
    the join meets the matches on the whole trace, and a monitor's
    decisions under a match cap of 1."""
    out = engine_results(policies, records)
    graph = ingest_trace(records)
    for p in policies:
        met: list = []
        try:
            for edges, iso, _nodes, bindings, _waiting in each_match(p.domain, graph):
                met.append(repr((edges, iso, bindings)))
        except Exception as error:  # noqa: BLE001  compared, not handled
            met.append(_raised(error))
        out.append(met)
    mon = Monitor(policies, match_cap=1)
    for record in records:
        try:
            out.append([(d.allowed, d.denied_by) for d in mon.step(record)])
        except Exception as error:  # noqa: BLE001
            out.append(_raised(error))
    return out


class TestIndexedLikeScanned:
    def test_lookups_change_nothing(self, monkeypatch):
        """With every lookup giving the whole list, as a scan would try it,
        batch matches, their order, verdicts and errors, and monitor
        decisions, errors and MatchCapExceeded stay the same, over random
        policies of two and three edges that share nodes and variables,
        whose requirements and filters may raise."""
        rng = random.Random(2001)
        original = Candidates.lookup
        dropped = 0

        def counting(self, parts, probe):
            nonlocal dropped
            found = original(self, parts, probe)
            dropped += len(self) - len(found)
            return found

        seen = {"error": 0, "cap": 0, "deny": 0, "three edges": 0}
        for i in range(500):
            if i % 2:
                policies = [random_policy(rng, f"p{j}", values=MIXED_VALUES, keyed=True) for j in range(2)]
                records = random_trace_records(rng, n_objects=3, n_events=16, values=MIXED_VALUES)
            else:
                policies = [screened_policy(rng, f"p{j}") for j in range(rng.randrange(1, 3))]
                records = screened_records(rng)
            with monkeypatch.context() as patched:
                patched.setattr(Candidates, "lookup", counting)
                indexed = join_results(policies, records)
            with monkeypatch.context() as patched:
                patched.setattr(Candidates, "lookup", lambda self, parts, probe: self)
                scanned = join_results(policies, records)
            assert indexed == scanned, (i, policies, records)
            flat = repr(indexed)
            seen["error"] += flat.count("'error'")
            seen["cap"] += flat.count("MatchCapExceeded")
            seen["deny"] += flat.count("(False, (")
            seen["three edges"] += any(len(p.graph.edges) == 3 for p in policies)
        assert seen["error"] > 500 and seen["cap"] > 20 and seen["deny"] > 40, seen
        assert seen["three edges"] > 100 and dropped > 10000, (seen, dropped)


class TestNanCapture:
    """A JSON trace may carry NaN (json.loads accepts it).  A capture of a
    NaN, or of a set holding one, equals no value, so it binds nothing and
    makes no match, as the oracle and the Conditions reference find."""

    @pytest.mark.parametrize(
        "capture, act",
        [("act = $A", "NaN"), ("$A = act", "NaN"), ("$A = act + 0", "NaN"), ("act = $A", "[NaN]"), ("$A = act", "[1, NaN]")],
    )
    def test_no_match_and_no_denial(self, capture, act):
        p = parse_policy("policy flow {\n node a\n node b\n edge e: a -> b domain: %s req: $A = 0\n}" % capture)
        event = '{"t": 1, "event": {"src": "x", "dest": "y", "params": {"act": %s}}}' % act
        records = list(read_jsonl(['{"t": 1, "object": {"id": "x"}}', '{"t": 1, "object": {"id": "y"}}', event]))
        graph = ingest_trace(records)
        assert find_matches(p, graph) == [] and oracle_matches(p, graph) == set()
        assert verdict(p, graph).upheld
        assert pattern_matches_bounded(p.domain, graph) == set()
        mon = Monitor([p])
        assert [d.allowed for d in mon.run(records)] == [True] and len(mon.graph.events) == 1

    @pytest.mark.parametrize(
        "element, value", [("node", float("nan")), ("edge", float("nan")), ("edge", ValueSet([1, float("nan")]))]
    )
    def test_a_nan_constant_binds_nothing(self, element, value):
        """`$X = c` with c a NaN, or a set holding one, which only a policy
        built in code can spell, equals no value either."""
        domain = BinOp("=", Var("X"), Const(value))
        if element == "node":
            p = make_policy("p", {"n": (domain, None)}, {})
        else:
            p = make_policy("p", {"a": (None, None), "b": (None, None)}, {"e": ("a", "b", domain, None)})
        records = [
            {"t": 1, "object": {"id": "x"}},
            {"t": 1, "object": {"id": "y"}},
            {"t": 1, "event": {"src": "x", "dest": "y"}},
        ]
        graph = ingest_trace(records)
        assert extract_bindings(domain) == ({}, FALSE)
        assert find_matches(p, graph) == [] and oracle_matches(p, graph) == set()
        assert pattern_matches_bounded(p.domain, graph) == set()
        assert [d.allowed for d in Monitor([p]).run(records)] == [True]

    def test_the_conditions_reference_finds_no_binding(self):
        nan = float("nan")
        for value in (nan, ValueSet([nan])):
            assert extract_bindings(BinOp("=", Var("A"), Const(value))) == ({}, FALSE)
            assert reduce_conditions(satisfy(parse_predicate("act = $A"), {"act": value}, {})).is_false
        assert extract_bindings(BinOp("=", Var("A"), Const(1.5))) == ({"A": 1.5}, TRUE)


ORDER_POLICY = """
policy order {
  node a
  node b
  node n domain: kind = "iso" && level = $L
  edge e1: a -> b domain: m = "x" && v = $X
  edge e2: b -> b domain: m = "loop" && v = $Y
  edge e3: a -> b domain: m = "x" && w = $W && $W != $L + 4
}
"""

ORDER_RECORDS = [
    {"t": 1, "object": {"id": "A", "attrs": {}}},
    {"t": 1, "object": {"id": "B", "attrs": {}}},
    {"t": 1, "object": {"id": "N", "attrs": {"kind": "iso", "level": 1}}},
    {"t": 1, "event": {"src": "A", "dest": "B", "params": {"m": "x", "v": 1, "w": 5}}},
    {"t": 2, "event": {"src": "B", "dest": "B", "params": {"m": "loop", "v": 1}}},
    {"t": 2, "object": {"id": "N", "attrs": {"kind": "iso", "level": 2}}},
    {"t": 2, "event": {"src": "A", "dest": "B", "params": {"m": "x", "v": 2, "w": 6}}},
    {"t": 3, "event": {"src": "B", "dest": "B", "params": {"m": "loop", "v": 2}}},
    {"t": 3, "event": {"src": "A", "dest": "A", "params": {"m": "loop", "v": 2}}},
    {"t": 3, "event": {"src": "A", "dest": "B", "params": {"m": "x", "v": 1, "w": 7}}},
    {"t": 3, "object": {"id": "C", "attrs": {}}},
    {"t": 3, "event": {"src": "C", "dest": "B", "params": {"m": "x", "v": 2, "w": 8}}},
]


def order_call(e1, e2, e3, instant, L, W, X):
    """One match of the order pattern, as recorded by met_in_order."""
    edges = {"e1": e1, "e2": e2, "e3": e3}
    return edges, {"n": ("N", instant)}, {"a": "A", "b": "B", "n": "N"}, {"L": L, "W": W, "X": X, "Y": X}, ()


class _Stop(Exception):
    """Raised by a consumer that ends its search on a match."""


def met_in_order(pattern, graph, stop_at=None, how="break") -> list:
    """The matches each_match yields with `equal` (X, Y), in the order they
    come; at the match numbered stop_at the consumer stops, by `break` or,
    with how="raise", by raising _Stop."""
    met: list = []
    for edges, iso, nodes, bindings, waiting in each_match(pattern, graph, equal=(("X", "Y"),)):
        if len(met) == stop_at:
            if how == "raise":
                raise _Stop
            break
        met.append((dict(edges), dict(iso), dict(nodes), dict(bindings), waiting))
    return met


class TestJoinPlan:
    def test_enumeration_order(self):
        """The join's own order, which the monitor's first error and its cap
        count depend on: e2 (3 candidates) before e1 and e3 (4 each), then
        the isolated node; the self-loop e2 on A pairs with nothing, the
        `equal` pair keeps X = Y, and e3's filter waits for n's $L."""
        met = met_in_order(domain_of(parse_policy(ORDER_POLICY)), ingest_trace(ORDER_RECORDS))
        assert met == [
            order_call(0, 1, 2, 1, 1, 6, 1),
            order_call(0, 1, 5, 1, 1, 7, 1),
            order_call(0, 1, 5, 2, 2, 7, 1),
            order_call(0, 1, 5, 3, 2, 7, 1),
            order_call(5, 1, 0, 2, 2, 5, 1),
            order_call(5, 1, 0, 3, 2, 5, 1),
            order_call(5, 1, 2, 1, 1, 6, 1),
            order_call(2, 3, 0, 2, 2, 5, 2),
            order_call(2, 3, 0, 3, 2, 5, 2),
            order_call(2, 3, 5, 1, 1, 7, 2),
            order_call(2, 3, 5, 2, 2, 7, 2),
            order_call(2, 3, 5, 3, 2, 7, 2),
        ]

    @pytest.mark.parametrize("how", ["break", "raise"])
    def test_a_search_ended_by_its_consumer_leaves_nothing_behind(self, how):
        """The plan a search ran holds no per-call state: after its consumer
        stopped at any match, by `break` or by raising, the next search of
        the same pattern meets what a fresh pattern meets, in the same
        order."""
        graph = ingest_trace(ORDER_RECORDS)
        fresh = met_in_order(domain_of(parse_policy(ORDER_POLICY)), graph)
        pattern = domain_of(parse_policy(ORDER_POLICY))
        for stop_at in range(len(fresh)):
            if how == "raise":
                with pytest.raises(_Stop):
                    met_in_order(pattern, graph, stop_at, how)
            else:
                assert met_in_order(pattern, graph, stop_at, how) == fresh[:stop_at]
            assert met_in_order(pattern, graph) == fresh
        assert len(pattern.join_plans) == 1

    def test_the_join_leaves_no_reference_cycles(self):
        """A batch verdict on a corpus trace and 100 monitor decisions, a
        third of them denials that end their search by raising, leave
        nothing for the collector."""
        entry = next(e for e in load_manifest() if e.policy == "chinese_wall")
        policy = load_corpus_policy(entry)
        case = next(c for c in entry.cases if c.expected == "violated")
        records = list(read_jsonl(corpus_text(case.trace).splitlines()))
        rng = random.Random(1603)
        docs = [(f"d{k}{o}", f"own{k}{o}", f"class{k}") for k in range(3) for o in range(3)]
        stream = [{"t": 1, "object": {"id": f"c{i}", "attrs": {"type": "consultant"}}} for i in range(2)]
        stream += [{"t": 1, "object": {"id": d, "attrs": {"type": "data", "owner": w, "coi_class": k}}} for d, w, k in docs]
        stream += [
            {"t": t, "event": {"src": f"c{rng.randrange(2)}", "dest": rng.choice(docs)[0], "params": {"method": "read"}}}
            for t in range(2, 102)
        ]
        gc.collect()
        assert not verdict(policy, ingest_trace(records)).upheld
        mon = Monitor([policy])
        decisions = [d for record in stream for d in mon.step(record)]
        assert len(decisions) == 100 and sum(not d.allowed for d in decisions) > 30
        assert gc.collect() == 0
