"""Streaming enforcement: per-event decisions against the batch engine."""

import random

import pytest

from policygraph.corpus import corpus_text, load_manifest, load_corpus_policy
from policygraph.matching import (
    InvalidPolicyError,
    MatchCapExceeded,
    check_requirement,
    find_matches,
    verdict_all,
)
from policygraph.monitor import Decision, Monitor
from policygraph.policy import parse_policy
from policygraph.system import ingest_trace, read_jsonl

from oracle import random_policy, random_trace_records

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


def corpus_records(trace_name):
    return list(read_jsonl(corpus_text(trace_name).splitlines()))


class TestDecisions:
    def test_no_read_up_stream(self):
        mon = Monitor([parse_policy(NO_READ_UP)])
        decisions = list(mon.run(CLASSIC))
        assert [d.allowed for d in decisions] == [True, False, True]
        assert [d.line() for d in decisions] == [
            "1\tjohn->a\tallow\t-",
            "2\tjohn->b\tdeny\tno_read_up",
            "3\tjane->b\tallow\t-",
        ]

    def test_object_records_yield_no_decision(self):
        mon = Monitor([parse_policy(NO_READ_UP)])
        for record in CLASSIC[:4]:
            assert mon.step(record) == []
        assert len(mon.step(CLASSIC[4])) == 1

    def test_denied_event_leaves_no_history(self):
        mon = Monitor([parse_policy(NO_READ_UP)])
        list(mon.run(CLASSIC))
        assert len(mon.graph.events) == 2
        assert mon.verdicts().upheld

    def test_denial_lists_every_failing_policy(self):
        deny_a = parse_policy("policy deny_a {\n node n\n edge e: n -> n req: false\n}")
        deny_b = parse_policy("policy deny_b {\n node n\n edge e: n -> n req: false\n}")
        mon = Monitor([deny_a, deny_b])
        mon.step({"t": 1, "object": {"id": "x", "attrs": {}}})
        (decision,) = mon.step({"t": 1, "event": {"src": "x", "dest": "x", "params": {}}})
        assert not decision.allowed
        assert decision.denied_by == ("deny_a", "deny_b")
        assert decision.line().endswith("deny\tdeny_a")

    def test_rollback_releases_same_instant_snapshots(self):
        deny = parse_policy("policy deny {\n node n\n edge e: n -> n req: false\n}")
        mon = Monitor([deny])
        mon.step({"t": 1, "object": {"id": "x", "attrs": {"v": 1}}})
        (decision,) = mon.step({"t": 1, "event": {"src": "x", "dest": "x", "params": {}}})
        assert not decision.allowed
        # the denied event never used the snapshot, so it may still be replaced
        mon.step({"t": 1, "object": {"id": "x", "attrs": {"v": 2}}})
        assert mon.graph.attrs_at("x", 1)["v"] == 2

    def test_retrieval_budget_stream(self):
        entry = next(e for e in load_manifest() if e.policy == "image_retrieval_limit")
        policy = load_corpus_policy(entry)
        records = corpus_records("image_retrieval_limit_violate.trace.jsonl")
        mon = Monitor([policy])
        decisions = list(mon.run(records))
        assert [d.allowed for d in decisions] == [True, True, True, False]
        assert len(mon.graph.events) == 3
        assert mon.verdicts().upheld


class TestGuards:
    def test_rejects_non_validating_policies_up_front(self):
        bad = parse_policy("policy bad {\n node n\n edge e: n -> n req: $X = 1\n}")
        with pytest.raises(InvalidPolicyError):
            Monitor([bad])

    def test_cap_counts_the_matches_of_one_event_not_the_history(self):
        mon = Monitor([parse_policy(NO_READ_UP)], match_cap=50)
        mon.step({"t": 1, "object": {"id": "u", "attrs": {"type": "user", "sec_level": 2}}})
        mon.step({"t": 1, "object": {"id": "f", "attrs": {"type": "file", "sec_level": 0}}})
        decisions = []
        for t in range(1, 61):
            decisions += mon.step({"t": t, "event": {"src": "u", "dest": "f", "params": {"method": "read"}}})
        assert len(decisions) == 60 and all(d.allowed for d in decisions)
        assert len(mon.graph.events) == 60

    def test_cap_raise_commits_nothing_of_the_event(self):
        p = parse_policy("policy p {\n node a\n node b\n edge e1: a -> b\n edge e2: a -> b\n}")
        mon = Monitor([p], match_cap=3)
        mon.step({"t": 1, "object": {"id": "x", "attrs": {"v": 1}}})
        mon.step({"t": 1, "object": {"id": "y", "attrs": {}}})
        for t in (1, 2):  # the second event makes 2 matches: it takes e1 or e2
            (decision,) = mon.step({"t": t, "event": {"src": "x", "dest": "y", "params": {}}})
            assert decision.allowed
        with pytest.raises(MatchCapExceeded):  # the third makes 4
            mon.step({"t": 3, "event": {"src": "x", "dest": "y", "params": {}}})
        assert len(mon.graph.events) == 2
        assert mon.graph.horizon == 2
        # the dropped event never used the snapshot, so it may still be declared
        mon.step({"t": 3, "object": {"id": "x", "attrs": {"v": 2}}})
        assert mon.graph.attrs_at("x", 3)["v"] == 2


class TestAgainstBatch:
    def test_upheld_traces_stream_without_denials(self):
        for entry in load_manifest():
            policy = load_corpus_policy(entry)
            for case in entry.cases:
                if case.expected != "upheld":
                    continue
                records = corpus_records(case.trace)
                mon = Monitor([policy])
                decisions = list(mon.run(records))
                assert all(d.allowed for d in decisions), (entry.policy, case.trace)
                assert mon.graph == ingest_trace(records)
                assert mon.verdicts() == verdict_all([policy], mon.graph)

    def test_random_streams_decide_like_batch(self):
        """Each denial must be batch-confirmable; for policies without
        isolated nodes, each allowed prefix must stay batch-upheld."""
        rng = random.Random(20260814)
        denies = allows = 0
        for i in range(60):
            policies = [random_policy(rng, f"p{j}") for j in range(2)]
            edge_only = all(not p.graph.isolated_nodes() for p in policies)
            records = random_trace_records(rng, n_objects=3, n_events=5)
            mon = Monitor(policies)
            committed: list[dict] = []
            for record in records:
                decisions = mon.step(record)
                if not decisions:
                    committed.append(record)
                    continue
                (decision,) = decisions
                hypothetical = ingest_trace(committed + [record])
                if decision.allowed:
                    committed.append(record)
                    allows += 1
                    if edge_only:
                        assert verdict_all(policies, hypothetical).upheld
                else:
                    denies += 1
                    assert not verdict_all(policies, hypothetical).upheld
            assert mon.graph == ingest_trace(committed)
        assert denies > 15 and allows > 60  # both paths exercised

    def test_random_streams_deny_exactly_the_new_failing_matches(self):
        """A decision names exactly the policies with a batch match that
        assigns the new event to an edge and fails its requirement."""
        rng = random.Random(20261018)
        denies = allows = mixed = 0
        for i in range(300):
            policies = [random_policy(rng, f"p{j}") for j in range(2)]
            mixed += any(p.graph.edges and p.graph.isolated_nodes() for p in policies)
            mon = Monitor(policies)
            committed: list[dict] = []
            for record in random_trace_records(rng, n_objects=3, n_events=5):
                decisions = mon.step(record)
                if not decisions:
                    committed.append(record)
                    continue
                (decision,) = decisions
                hypothetical = ingest_trace(committed + [record])
                new = len(hypothetical.events) - 1
                failing = [
                    p.name
                    for p in policies
                    if any(
                        new in m.edge_events.values() and not check_requirement(p, m, hypothetical)[0]
                        for m in find_matches(p, hypothetical)
                    )
                ]
                assert decision.denied_by == tuple(sorted(failing)), (i, record)
                assert decision.allowed == (not failing)
                if decision.allowed:
                    committed.append(record)
                    allows += 1
                else:
                    denies += 1
            assert mon.graph == ingest_trace(committed)
        assert denies > 100 and allows > 500 and mixed > 100  # both outcomes, and edge-plus-isolated policies

    def test_verdicts_match_batch_on_committed_history(self):
        rng = random.Random(77)
        for i in range(20):
            policies = [random_policy(rng, f"p{j}") for j in range(2)]
            mon = Monitor(policies)
            list(mon.run(random_trace_records(rng)))
            assert mon.verdicts() == verdict_all(policies, mon.graph)


class TestDecisionShape:
    def test_decision_is_plain_data(self):
        d = Decision(4, "a", "b", True, ())
        assert d.line() == "4\ta->b\tallow\t-"
        d = Decision(4, "a", "b", False, ("p1", "p2"))
        assert d.line() == "4\ta->b\tdeny\tp1"
