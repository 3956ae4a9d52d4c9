"""Streaming enforcement: per-event decisions against the batch engine."""

import gc
import pickle
import random
import tracemalloc

import pytest

from policygraph.corpus import corpus_text, load_manifest, load_corpus_policy
from policygraph.matching import (
    DEFAULT_MATCH_CAP,
    Candidates,
    InvalidPolicyError,
    MatchCapExceeded,
    _edge_candidates,
    check_requirement,
    each_match,
    find_matches,
    judge_requirement,
    verdict,
    verdict_all,
)
from policygraph.monitor import Decision, Monitor
from policygraph.policy import PatternGraph, domain_of, parse_policy
from policygraph.predicates import PredicateTypeError
from policygraph.system import ingest_trace, read_jsonl

from oracle import MIXED_VALUES, oracle_failing, oracle_outcomes, random_policy, random_trace_records

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


class TestSearchAndStop:
    """A decision stops its search at the first failing match, so the
    matches after it are neither counted nor judged."""

    TWO_EDGES = 'policy p {\n node a\n node b\n edge e1: a -> b req: act != "bad"\n edge e2: a -> b\n}'

    def test_violation_found_before_the_cap_denies(self):
        mon = Monitor([parse_policy(self.TWO_EDGES)], match_cap=3)
        mon.step({"t": 1, "object": {"id": "x", "attrs": {}}})
        mon.step({"t": 1, "object": {"id": "y", "attrs": {}}})
        for t in (1, 2):
            (decision,) = mon.step({"t": t, "event": {"src": "x", "dest": "y", "params": {"act": "ok"}}})
            assert decision.allowed
        # 4 matches, over the cap; the first the search completes puts the
        # new event on e1, where it fails
        (decision,) = mon.step({"t": 3, "event": {"src": "x", "dest": "y", "params": {"act": "bad"}}})
        assert not decision.allowed and decision.denied_by == ("p",)
        assert len(mon.graph.events) == 2
        with pytest.raises(MatchCapExceeded):  # the same 4 matches, all passing
            mon.step({"t": 3, "event": {"src": "x", "dest": "y", "params": {"act": "ok"}}})

    RANKED = """
    policy ranked {
      node a
      node b
      node c domain: level = $V
      edge e: a -> b req: $V > 1
    }
    """

    def ranked_stream(self, levels):
        mon = Monitor([parse_policy(self.RANKED)])
        mon.step({"t": 1, "object": {"id": "x", "attrs": {}}})
        mon.step({"t": 1, "object": {"id": "y", "attrs": {}}})
        for i, level in enumerate(levels):
            mon.step({"t": 1, "object": {"id": f"c{i}", "attrs": {"level": level}}})
        return mon

    def test_violation_wins_over_a_raising_requirement(self):
        """c0 makes the requirement raise ("high" > 1), c1 makes it fail:
        the event is denied, whichever match the search meets first."""
        mon = self.ranked_stream(["high", 0])
        (decision,) = mon.step({"t": 1, "event": {"src": "x", "dest": "y", "params": {}}})
        assert not decision.allowed and decision.denied_by == ("ranked",)
        assert mon.graph.events == []

    def test_raising_requirement_without_violation_raises(self):
        mon = self.ranked_stream(["high", 5])
        with pytest.raises(PredicateTypeError, match="ordered comparison needs numbers"):
            mon.step({"t": 1, "event": {"src": "x", "dest": "y", "params": {}}})
        assert mon.graph.events == []


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

    def test_random_streams_with_filters_deny_like_the_oracle(self):
        """Policies with a conjunct that the join runs as a filter: a
        decision names exactly the policies with a brute-forced match that
        assigns the new event to an edge and fails its requirement.  The
        second half adds parallel edges, where the search meets one event
        under both edge orders, and policies of one isolated node."""
        rng = random.Random(20261021)
        denies = allows = parallel = 0
        for i in range(240):
            shapes = {"parallel": True, "lone_node": True} if i >= 120 else {}
            policies = [random_policy(rng, f"p{j}", filters=True, **shapes) for j in range(2)]
            parallel += any(
                len(p.graph.edges) == 2 and len({(s.src, s.dest) for s in p.graph.edges.values()}) == 1
                for p in policies
            )
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
                    if any(new in dict(key[0]).values() for key in oracle_failing(p, hypothetical))
                ]
                assert decision.denied_by == tuple(sorted(failing)), (i, record)
                if decision.allowed:
                    committed.append(record)
                    allows += 1
                else:
                    denies += 1
            assert mon.graph == ingest_trace(committed)
        assert denies > 70 and allows > 500 and parallel > 40

    def test_committed_candidates_are_the_batch_candidates(self):
        """The monitor and a batch pass judge events by one step: after a
        stream with denials and raised errors, each multi-edge policy's
        committed candidates per edge equal, field by field, what
        _edge_candidates lists on the committed history."""
        rng = random.Random(3105)
        wall = next(load_corpus_policy(e) for e in load_manifest() if e.policy == "chinese_wall")
        docs = [(f"d{k}{o}", f"own{k}{o}", f"class{k}") for k in range(3) for o in range(3)]
        wall_records = [{"t": 1, "object": {"id": f"c{i}", "attrs": {"type": "consultant"}}} for i in range(2)]
        wall_records += [{"t": 1, "object": {"id": d, "attrs": {"type": "data", "owner": w, "coi_class": k}}} for d, w, k in docs]
        wall_records += [{"t": t, "event": {"src": f"c{rng.randrange(2)}", "dest": rng.choice(docs)[0],
                                            "params": {"method": rng.choice(["read", "write"])}}} for t in range(2, 80)]
        streams = [([wall], wall_records)]
        for _ in range(100):
            policies = [random_policy(rng, f"p{j}", values=MIXED_VALUES, keyed=True) for j in range(2)]
            streams.append((policies, random_trace_records(rng, n_objects=3, n_events=16, values=MIXED_VALUES)))
        fields = ("event_index", "src_obj", "dest_obj", "captures", "filters")
        denied = raised = compared = 0
        for policies, records in streams:
            mon = Monitor(policies)
            for record in records:
                try:
                    denied += sum(not d.allowed for d in mon.step(record))
                except (PredicateTypeError, MatchCapExceeded):
                    raised += 1
            for watched in mon._watched:
                if len(watched.policy.graph.edges) < 2:
                    continue
                batch = _edge_candidates(watched.pattern, mon.graph)
                assert batch.keys() == watched.committed.keys()
                for edge_id, cands in batch.items():
                    committed = watched.committed[edge_id]
                    assert [[getattr(c, f) for f in fields] for c in committed] == [[getattr(c, f) for f in fields] for c in cands]
                    compared += len(cands)
        assert denied > 30 and raised > 15 and compared > 1000, (denied, raised, compared)

    def test_verdicts_match_batch_on_committed_history(self):
        rng = random.Random(77)
        for i in range(20):
            policies = [random_policy(rng, f"p{j}") for j in range(2)]
            mon = Monitor(policies)
            list(mon.run(random_trace_records(rng)))
            assert mon.verdicts() == verdict_all(policies, mon.graph)


def flat_decision(policies, graph, cap=DEFAULT_MATCH_CAP):
    """The decision on graph's last event when every other edge draws from
    all the candidates of the events before it, as a Monitor decided
    before its lookup was keyed: the names of the policies with a failing
    match, or the error the decision raises."""
    new = len(graph.events) - 1
    denied, error = [], None

    def search(p, every, committed):
        count, error = 0, None
        for e, cands in every.items():
            for cand in cands:
                if cand.event_index != new:
                    continue
                for edge_events, _isolated, _nodes, bindings, _waiting in each_match(p.domain, graph, {**committed, e: [cand]}):
                    count += 1
                    if count > cap:
                        raise MatchCapExceeded(p.name, cap)
                    try:
                        holds = judge_requirement(p, edge_events, bindings, graph)[0]
                    except PredicateTypeError as exc:
                        error = error or exc
                        continue
                    if not holds:
                        return True, None
        return False, error

    for p in policies:
        if not p.graph.edges:
            continue
        every = _edge_candidates(p.domain, graph)
        committed = {e: [c for c in cands if c.event_index != new] for e, cands in every.items()}
        violated, unsettled = search(p, every, committed)
        if violated:
            denied.append(p.name)
        error = error or unsettled
    if error is not None and not denied:
        raise error
    return tuple(denied)


def outcome(decide):
    """A decision's denied_by, or the type and message of what it raised."""
    try:
        return decide()
    except (PredicateTypeError, MatchCapExceeded) as exc:
        return type(exc).__name__, str(exc)


def key_join_records(name: str, n: int) -> list[dict]:
    """A stream whose n matches a join finds by key: n purchase orders each
    requested and approved through two sessions, or n courses whose exam is
    submitted and then has its key posted."""
    if name == "purchase_separation_of_duty":
        records = [{"t": 1, "object": {"id": f"s{u}", "attrs": {"type": "session", "user": f"u{u}"}}} for u in range(4)]
        records += [{"t": 1, "object": {"id": f"po{i}", "attrs": {"type": "purchase_order"}}} for i in range(n)]
        for i in range(n):
            records.append({"t": 2 + 2 * i, "event": {"src": f"s{i % 4}", "dest": f"po{i}", "params": {"method": "request"}}})
            records.append({"t": 3 + 2 * i, "event": {"src": f"s{(i + 1) % 4}", "dest": f"po{i}", "params": {"method": "approve"}}})
        return records
    kinds = (("st", "student"), ("es", "exam_server"), ("inst", "instructor"))
    records = [{"t": 1, "object": {"id": obj, "attrs": {"type": kind}}} for obj, kind in kinds]
    for i in range(n):
        exam = {"course": f"c{i}", "exam": 1}
        records.append({"t": 2 + 2 * i, "event": {"src": "st", "dest": "es", "params": {"method": "submit", **exam}}})
        records.append({"t": 3 + 2 * i, "event": {"src": "inst", "dest": "es", "params": {"method": "post_key", **exam}}})
    return records


def tried(monkeypatch) -> list[list]:
    """Records, from now on, the candidates each lookup of the join gives
    it to try: every edge after the first in join order that shares an
    endpoint or a variable with those before it is looked up."""
    lookups: list[list] = []
    original = Candidates.lookup

    def spy(self, parts, probe):
        found = original(self, parts, probe)
        lookups.append(list(found))
        return found

    monkeypatch.setattr(Candidates, "lookup", spy)
    return lookups


class TestKeyedLookup:
    """The join looks each edge after the first up by the key it shares
    with what is placed: endpoint objects, captured values and, where the
    monitor hands it the `$A != $B` operands of a requirement that never
    raises, the values those operands must share for the match to fail."""

    @staticmethod
    def decisions(mon_records, policy, monkeypatch):
        """Per decision, whether it allowed, and the candidates each lookup
        of its search gave the join to try."""
        lookups = tried(monkeypatch)
        mon, seen = Monitor([policy]), []
        for record in mon_records:
            for decision in mon.step(record):
                seen.append((decision.allowed, lookups[:]))
            lookups.clear()
        return mon, seen

    @pytest.mark.parametrize("name", ["purchase_separation_of_duty", "exam_submit_before_key_post"])
    def test_other_edge_lists_stay_small_over_many_keys(self, name, monkeypatch):
        """800 keys: a scan of the other edge's committed candidates would
        try up to 800; each decision but the first, whose other edge has no
        candidates yet, looks up once and tries at most the one candidate
        it pairs with."""
        n = 800
        policy = next(load_corpus_policy(e) for e in load_manifest() if e.policy == name)
        mon, seen = self.decisions(key_join_records(name, n), policy, monkeypatch)
        assert len(seen) == 2 * n and all(allowed for allowed, _ in seen)
        assert len(mon.graph.events) == 2 * n
        lengths = [len(found) for _, lookups in seen for found in lookups]
        assert len(lengths) == 2 * n - 1 and max(lengths) <= 1

    @pytest.mark.parametrize("name", ["purchase_separation_of_duty", "exam_submit_before_key_post"])
    def test_batch_verdicts_try_linearly_many_candidates(self, name, monkeypatch):
        """The batch counterpart: verdict scans the first edge's n
        candidates and, for each, tries at most the one candidate of the
        other edge that its lookup gives, so the candidates tried grow
        linearly in n where a scan of every pair would try n * n."""
        policy = next(load_corpus_policy(e) for e in load_manifest() if e.policy == name)
        lookups = tried(monkeypatch)
        for n in (200, 400, 800):
            graph = ingest_trace(key_join_records(name, n))
            lookups.clear()
            result = verdict(policy, graph)
            assert result.upheld and len(result.witnesses) == n
            assert len(lookups) == n and sum(len(found) for found in lookups) <= n

    def test_an_allowed_chinese_wall_read_meets_only_same_owner_candidates(self, monkeypatch):
        policy = next(load_corpus_policy(e) for e in load_manifest() if e.policy == "chinese_wall")
        rng = random.Random(1603)
        records = [{"t": 1, "object": {"id": f"c{i}", "attrs": {"type": "consultant"}}} for i in range(2)]
        docs = [(f"d{k}{o}", f"own{k}{o}", f"class{k}") for k in range(3) for o in range(3)]
        records += [{"t": 1, "object": {"id": d, "attrs": {"type": "data", "owner": w, "coi_class": k}}} for d, w, k in docs]
        for t in range(2, 120):
            doc = rng.choice(docs)[0]
            records.append({"t": t, "event": {"src": f"c{rng.randrange(2)}", "dest": doc, "params": {"method": "read"}}})
        mon, seen = self.decisions(records, policy, monkeypatch)
        owner = {d: w for d, w, _ in docs}
        allowed = denied = tries = 0
        for (ok, lookups), record in zip(seen, [r for r in records if "event" in r]):
            if not ok:
                denied += 1
                continue
            allowed += 1
            for found in lookups:
                tries += len(found)
                assert all(owner[c.dest_obj] == owner[record["event"]["dest"]] for c in found)
        assert allowed > 20 and denied > 20 and tries > 20

    def test_reads_across_classes_stay_under_the_cap(self):
        """The documented cap change: with match_cap=2, a flat search of the
        committed reads raised MatchCapExceeded at the third read, since
        every pair of reads in different classes is a match, though none
        can fail.  The keyed search completes no match at all."""
        policy = next(load_corpus_policy(e) for e in load_manifest() if e.policy == "chinese_wall")
        records = [{"t": 1, "object": {"id": "c", "attrs": {"type": "consultant"}}}]
        records += [
            {"t": 1, "object": {"id": f"d{k}", "attrs": {"type": "data", "owner": f"o{k}", "coi_class": f"k{k}"}}}
            for k in range(4)
        ]
        records += [{"t": 2 + k, "event": {"src": "c", "dest": f"d{k}", "params": {"method": "read"}}} for k in range(4)]
        mon = Monitor([policy], match_cap=2)
        decisions = list(mon.run(records))
        assert [d.allowed for d in decisions] == [True] * 4 and len(mon.graph.events) == 4
        with pytest.raises(MatchCapExceeded):
            flat_decision([policy], ingest_trace(records[:-1]), cap=2)

    def test_more_than_two_edges_stay_flat_where_a_requirement_raises(self):
        """The join places the shorter list first, so lists cut down to
        what can pair (3 e1 candidates, 2 e2 ones) would meet (a2, b1),
        which raises on "r", before (a1, b2), which raises on "q", where the
        flat lists (3 and 5) meet them the other way round.  The join
        orders edges by the lengths of the lists it is handed and looks up
        inside them, so the error is the flat search's."""
        policy = parse_policy(
            """
            policy three {
              node u
              node x
              node y
              node z
              edge e1: u -> x domain: method = "one" && arg = $X
              edge e2: u -> y domain: method = "two" && arg = $Y && tag = $T
              edge e3: u -> z domain: method = "three" && tag = $T req: $X < $Y
            }
            """
        )
        objects = ["u", "p1", "p2", "p3", "q1", "q2", "q3", "q4", "q5", "r"]
        records = [{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in objects]
        events = [("p1", "one", 1, None), ("p2", "one", "r", None), ("p3", "one", 0, None)]
        events += [("q1", "two", 5, "t"), ("q2", "two", "q", "t")]
        events += [(f"q{i}", "two", 9, "other") for i in (3, 4, 5)]
        for t, (dest, method, arg, tag) in enumerate(events, 2):
            params = {"method": method, "arg": arg, **({"tag": tag} if tag else {})}
            records.append({"t": t, "event": {"src": "u", "dest": dest, "params": params}})
        records.append({"t": 20, "event": {"src": "u", "dest": "r", "params": {"method": "three", "tag": "t"}}})
        mon = Monitor([policy])
        assert all(d.allowed for d in mon.run(records[:-1]))
        expected = outcome(lambda: flat_decision([policy], ingest_trace(records)))
        assert expected == ("PredicateTypeError", 'ordered comparison needs numbers: 1 < "q"')
        assert outcome(lambda: mon.step(records[-1])) == expected

    def test_random_keyed_shapes_decide_like_the_flat_search_and_the_oracle(self):
        """Two- and three-edge policies that share nodes and variables, over
        values of mixed kinds; some requirements and filters raise, where
        the lookup must stay flat.  Each decision, or the error it raises,
        equals the flat search's; where nothing raises, it names exactly
        the policies with a brute-forced failing match of the new event."""
        rng = random.Random(1604)
        denies = allows = raised = three = 0
        for i in range(150):
            policies = [random_policy(rng, f"p{j}", values=MIXED_VALUES, keyed=True) for j in range(2)]
            three += any(len(p.graph.edges) == 3 for p in policies)
            mon = Monitor(policies)
            committed: list[dict] = []
            for record in random_trace_records(rng, n_objects=3, n_events=16, values=MIXED_VALUES):
                hypothetical = ingest_trace(committed + [record])
                got = outcome(lambda: [(d.allowed, d.denied_by) for d in mon.step(record)])
                if "event" not in record:
                    assert got == []
                    committed.append(record)
                    continue
                expected = outcome(lambda: flat_decision(policies, hypothetical))
                if isinstance(expected, tuple) and expected and expected[0] == "PredicateTypeError":
                    assert got == expected, (i, record)
                    raised += 1
                    continue
                assert got == [(not expected, expected)], (i, record)
                new = len(hypothetical.events) - 1
                failing = tuple(p.name for p in policies if False in oracle_outcomes(p, hypothetical, new).values())
                assert expected == failing, (i, record)
                if expected:
                    denies += 1
                else:
                    allows += 1
                    committed.append(record)
            assert mon.graph == ingest_trace(committed)
        assert denies > 20 and allows > 800 and raised > 40 and three > 80


class TestProbeFirst:
    """A decision whose pinned candidate alone keys a later edge's lookup,
    in a policy none of whose domain filters can raise, makes that lookup
    before it places anything; an empty one ends the decision."""

    @staticmethod
    def placing(policy, records, monkeypatch) -> tuple[list, list]:
        """The decisions of a Monitor over records and, per decision, how
        many of its searches went on to place a candidate: each such search
        sets up its assignments from the pattern's blank_assignment."""
        searches = [0]
        blank = PatternGraph.__dict__["blank_assignment"].func

        def counting(pattern):
            searches[0] += 1
            return blank(pattern)

        placed, decisions, mon = [], [], Monitor([policy])
        with monkeypatch.context() as patched:
            patched.setattr(PatternGraph, "blank_assignment", property(counting))
            for record in records:
                searches[0] = 0
                for decision in mon.step(record):
                    decisions.append((decision.allowed, decision.denied_by))
                    placed.append(searches[0])
        return decisions, placed

    def test_unpaired_candidates_place_nothing(self, monkeypatch):
        """purchase_separation_of_duty over 800 orders: no approval's user
        is its request's, so no candidate pairs, and every decision allows,
        as the batch verdict upholds the stream.  Only the second decision
        places anything: there the committed request goes first and the
        pinned approval is looked up after it.  A search that placed its
        pinned candidate before its lookup (1 599 of them) finds the same."""
        name = "purchase_separation_of_duty"
        policy = next(load_corpus_policy(e) for e in load_manifest() if e.policy == name)
        records = key_join_records(name, 800)
        decisions, placed = self.placing(policy, records, monkeypatch)
        assert decisions == [(True, ())] * 1600 and verdict(policy, ingest_trace(records)).upheld
        assert [i for i, n in enumerate(placed) if n] == [1]

    def test_the_plan_cache_stops_growing(self):
        """A 2 000-event chinese_wall stream meets each edge order once:
        the pattern keeps one plan per (edge order, isolated-node order,
        `equal`) it met, and none after the orders are all met."""
        policy = next(load_corpus_policy(e) for e in load_manifest() if e.policy == "chinese_wall")
        rng = random.Random(2100)
        docs = [(f"d{k}{o}", f"own{k}{o}", f"class{k}") for k in range(4) for o in range(3)]
        records = [{"t": 1, "object": {"id": f"c{i}", "attrs": {"type": "consultant"}}} for i in range(20)]
        records += [{"t": 1, "object": {"id": d, "attrs": {"type": "data", "owner": w, "coi_class": k}}} for d, w, k in docs]
        records += [
            {"t": t, "event": {"src": f"c{rng.randrange(20)}", "dest": rng.choice(docs)[0], "params": {"method": "read"}}}
            for t in range(2, 2002)
        ]
        mon = Monitor([policy])
        plans = domain_of(policy).join_plans
        sizes = [len(plans) for record in records for _ in mon.step(record)]
        assert len(sizes) == 2000 and len(set(sizes[100:])) == 1
        equal = (("C1", "C2"),)
        assert set(plans) == {(("r1", "r2"), (), equal), (("r2", "r1"), (), equal)}


class TestRetained:
    def test_one_edge_policies_keep_no_committed_candidates(self):
        """A one-edge policy pins its only edge to the new event, so the
        monitor keeps nothing of its committed candidates: 20 000 allowed
        reads of one file by one user retain at most 320 B each: about
        270 B is the committed history itself (named-tuple events), and a
        list of the committed candidates made it about 590 B."""
        records = [
            {"t": 1, "object": {"id": "u", "attrs": {"type": "user", "sec_level": 2}}},
            {"t": 1, "object": {"id": "f", "attrs": {"type": "file", "sec_level": 0}}},
        ]
        n = 20_000
        reads = [{"t": t, "event": {"src": "u", "dest": "f", "params": {"method": "read"}}} for t in range(1, n + 1)]
        mon = Monitor([parse_policy(NO_READ_UP)])
        for record in records + reads[:1]:
            mon.step(record)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for record in reads[1:]:
                mon.step(record)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(mon.graph.events) == n
        assert retained / (n - 1) <= 320, retained / (n - 1)


class TestDecisionShape:
    def test_decision_is_plain_data(self):
        d = Decision(4, "a", "b", True, ())
        assert d.line() == "4\ta->b\tallow\t-"
        d = Decision(4, "a", "b", False, ("p1", "p2"))
        assert d.line() == "4\ta->b\tdeny\tp1"

    @pytest.mark.parametrize("decision, line", [
        (Decision(0, "a", "a", True, ()), "0\ta->a\tallow\t-"),
        (Decision(17, "user 1", "file\t2", False, ("only",)), "17\tuser 1->file\t2\tdeny\tonly"),
        (Decision(1_700_000_000, "u", "f", False, ("b_policy", "c_policy")), "1700000000\tu->f\tdeny\tb_policy"),
    ])
    def test_line_format(self, decision, line):
        assert decision.line() == line

    def test_decision_is_immutable_equal_by_fields_and_picklable(self):
        d = Decision(4, "a", "b", False, ("p1", "p2"))
        for field in ("time", "src", "dest", "allowed", "denied_by"):
            with pytest.raises(AttributeError):
                setattr(d, field, None)
        assert d == Decision(4, "a", "b", False, ("p1", "p2"))
        assert d != Decision(4, "a", "b", True, ())
        assert pickle.loads(pickle.dumps(d)) == d
        assert pickle.loads(pickle.dumps(d)).line() == d.line()

    def test_monitor_decisions_round_trip_through_pickle(self):
        mon = Monitor([parse_policy(NO_READ_UP)])
        decisions = list(mon.run(CLASSIC))
        assert [d.line() for d in decisions] == ["1\tjohn->a\tallow\t-", "2\tjohn->b\tdeny\tno_read_up", "3\tjane->b\tallow\t-"]
        assert pickle.loads(pickle.dumps(decisions)) == decisions
