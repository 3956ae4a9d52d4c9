"""Match enumeration and verdicts, checked against a brute-force oracle."""

import random

import pytest

from policygraph.matching import (
    InvalidPolicyError,
    Match,
    MatchCapExceeded,
    MatchingError,
    check_requirement,
    find_matches,
    match_graph,
    match_pattern,
    verdict,
    verdict_all,
)
from policygraph.policy import PatternGraph, domain_of, parse_policy
from policygraph.predicates import PredicateTypeError, parse_predicate
from policygraph.system import ingest_trace

from oracle import oracle_matches, oracle_verdict, random_policy, random_trace_records

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

    def test_found_matches_pass_match_graph(self):
        pattern = domain_of(self.policy)
        for m in find_matches(self.policy, self.graph):
            assert match_graph(pattern, m.edge_events, m.isolated_objects, self.graph, m.bindings)

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


class TestGuards:
    def test_unvalidated_policy_is_refused(self):
        p = parse_policy("policy p {\n node n\n edge e: n -> n req: $X > 1\n}")
        for _ in range(2):  # the policy keeps its issues, and every call refuses it
            with pytest.raises(InvalidPolicyError) as info:
                find_matches(p, ingest_trace(CLASSIC))
            assert any(i.rule == "R1" for i in info.value.issues)

    def test_unsettled_residual_is_an_internal_error(self):
        pattern = PatternGraph(
            parse_policy("policy p {\n node n\n}").graph,
            {"n": parse_predicate("$X > 1")},
            frozenset({"X"}),
        )
        g = ingest_trace([{"t": 1, "object": {"id": "x", "attrs": {}}}])
        with pytest.raises(MatchingError, match="did not settle"):
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
