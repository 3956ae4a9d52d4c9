"""Candidate screening: constant equalities as plan steps, and node plans
judged once per snapshot.

A top-level `attr = c` conjunct is an equality step of its binding plan,
which must decide exactly as the interpreter does.  The matcher memoises a
node plan's outcome per snapshot, for one batch pass or for one monitor's
life: decisions must not change where objects are redeclared, a plan that
raises must raise again wherever the parent engine reached it, and the
memo must go with the pass or the monitor that owns it.
"""

import gc
import random
import tracemalloc

import pytest

from policygraph.matching import find_matches, verdict
from policygraph.monitor import Monitor
from policygraph.policy import parse_policy
from policygraph.predicates import (
    _EQUAL,
    TRUE,
    Attr,
    BinOp,
    BindingPlan,
    Const,
    PredicateTypeError,
    evaluate,
    parse_predicate,
)
from policygraph.system import SystemGraph, ingest_trace
from policygraph.values import ValueSet

from oracle import GEN_ATTRS, GEN_VALUES, oracle_failing, random_policy, random_trace_records

NO_READ_UP = """
policy no_read_up {
  node u domain: type = "user" && sec_level = $UL
  node f domain: type = "file" && sec_level = $FL
  edge r: u -> f domain: method = "read" req: $UL >= $FL
}
"""

ABSENT = object()
NAN = float("nan")
VALUES = [1, 1.0, True, "1", ValueSet([1, "a"]), NAN]


def plan_outcome(plan, ctx):
    try:
        return plan(ctx)
    except PredicateTypeError as error:
        return ("error", str(error))


def interpreter_outcome(e, ctx):
    """What a plan without captures must give: [] where the interpreter
    folds e to true, None where to anything else, or its error."""
    try:
        return [] if evaluate(e, ctx, {}) == TRUE else None
    except PredicateTypeError as error:
        return ("error", str(error))


class TestEqualityStep:
    @pytest.mark.parametrize("const", VALUES, ids=repr)
    @pytest.mark.parametrize("attr_first", [True, False])
    def test_agrees_with_the_interpreter(self, const, attr_first):
        e = BinOp("=", Attr("a"), Const(const)) if attr_first else BinOp("=", Const(const), Attr("a"))
        plan = BindingPlan(e)
        assert plan.steps == [(_EQUAL, "a", const)]
        assert not plan.may_raise
        for value in VALUES + [ABSENT]:
            ctx = {} if value is ABSENT else {"a": value}
            assert plan(ctx) == interpreter_outcome(e, ctx), (e, value)

    @pytest.mark.parametrize(
        "text, may_raise",
        [
            ('a = 1 && b > 1', True),
            ('b > 1 && a = 1', True),
            ('a = "x" && c = 2.0', False),
            ('a = 1 && !(b = 2) && 1.0 = c', False),
            ('(a = 1 || b = 2) && a = 1', False),
        ],
    )
    def test_in_conjunctions(self, text, may_raise):
        """Steps keep their order, so an equality that fails first hides a
        later error, as the interpreter's && does, and may_raise comes
        from the other steps alone."""
        e = parse_predicate(text)
        plan = BindingPlan(e)
        assert plan.may_raise == may_raise
        assert any(step[0] == _EQUAL for step in plan.steps)
        rng = random.Random(1404)
        pool = [1, 2, 1.0, True, "x", "1", ValueSet([1]), NAN, ABSENT]
        for _ in range(300):
            ctx = {name: v for name in "abc" if (v := rng.choice(pool)) is not ABSENT}
            assert plan_outcome(plan, ctx) == interpreter_outcome(e, ctx), (text, ctx)


def redeclaring_records(rng: random.Random) -> list[dict]:
    """A random stream in which objects are redeclared between events:
    some at the instant of the next event, some twice within it, but none
    at an instant an event has already read it at."""
    records, read = [], set()
    for record in random_trace_records(rng, n_objects=3, n_events=6):
        if "event" in record:
            t, event = record["t"], record["event"]
            for _ in range(rng.randrange(3) if rng.random() < 0.5 else 0):
                obj = rng.choice(["o1", "o2", "o3"])
                if (obj, t) not in read:
                    attrs = {name: rng.choice(GEN_VALUES) for name in GEN_ATTRS if rng.random() < 0.85}
                    records.append({"t": t, "object": {"id": obj, "attrs": attrs}})
            read |= {(event["src"], t), (event["dest"], t)}
        records.append(record)
    return records


class TestNodeOutcomesPerSnapshot:
    def test_redeclared_objects_decide_like_the_oracle(self):
        """A decision names exactly the policies with a brute-forced match
        that assigns the new event to an edge and fails its requirement,
        where objects change between and within instants."""
        rng = random.Random(1410)
        denies = allows = redeclared = 0
        for i in range(200):
            policies = [random_policy(rng, f"p{j}", filters=i % 2 == 1) for j in range(2)]
            records = redeclaring_records(rng)
            mon = Monitor(policies)
            committed: list[dict] = []
            for record in records:
                decisions = mon.step(record)
                if not decisions:
                    redeclared += any(r.get("object", {}).get("id") == record["object"]["id"] for r in committed)
                    committed.append(record)
                    continue
                (decision,) = decisions
                hypothetical = ingest_trace(committed + [record])
                new = len(hypothetical.events) - 1
                failing = [
                    p.name for p in policies if any(new in dict(key[0]).values() for key in oracle_failing(p, hypothetical))
                ]
                assert decision.denied_by == tuple(sorted(failing)), (i, record)
                if decision.allowed:
                    committed.append(record)
                    allows += 1
                else:
                    denies += 1
            assert mon.graph == ingest_trace(committed)
        assert denies > 50 and allows > 300 and redeclared > 300

    def test_each_snapshot_is_judged_once_per_pass(self, monkeypatch):
        """Twenty reads of one file by one user call each node plan once,
        and a node plan without steps or filters is not called and its
        snapshot not looked up."""
        calls = []
        original = BindingPlan.__call__

        def counted(plan, ctx):
            calls.append(plan.pred)
            return original(plan, ctx)

        monkeypatch.setattr(BindingPlan, "__call__", counted)
        records = [
            {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 2}}},
            {"t": 1, "object": {"id": "a", "attrs": {"type": "file", "sec_level": 0}}},
        ] + [{"t": 2, "event": {"src": "john", "dest": "a", "params": {"method": "read"}}}] * 20
        graph = ingest_trace(records)
        assert len(find_matches(parse_policy(NO_READ_UP), graph)) == 20
        user, file, read = (parse_predicate(text) for text in (
            'type = "user" && sec_level = $UL', 'type = "file" && sec_level = $FL', 'method = "read"'))
        assert (calls.count(user), calls.count(file), calls.count(read)) == (1, 1, 20)

        calls.clear()
        lookups = []
        attrs_at = SystemGraph.attrs_at
        monkeypatch.setattr(SystemGraph, "attrs_at", lambda g, *args: lookups.append(args) or attrs_at(g, *args))
        bare = parse_policy('policy p {\n node u\n node f\n edge r: u -> f domain: method = "read"\n}')
        assert len(find_matches(bare, graph)) == 20
        assert calls == [read] * 20 and lookups == []

    NODE_RAISES = """
    policy p {
      node u domain: level > 1
      node f
      edge r: u -> f domain: method = "read"
    }
    """

    def test_a_raising_node_predicate_raises_on_every_event(self):
        """A node plan that raises stores nothing, so every event that
        reaches it raises the interpreter's error again, in the monitor,
        and a batch pass raises it too."""
        p = parse_policy(self.NODE_RAISES)
        bad, good = {"level": "x"}, {"level": 3}
        message = str(pytest.raises(PredicateTypeError, evaluate, parse_predicate("level > 1"), bad, {}).value)
        assert message == 'ordered comparison needs numbers: "x" > 1'
        objects = [
            {"t": 1, "object": {"id": "bad", "attrs": bad}},
            {"t": 1, "object": {"id": "good", "attrs": good}},
            {"t": 1, "object": {"id": "f", "attrs": {}}},
        ]
        read = lambda src: {"t": 2, "event": {"src": src, "dest": "f", "params": {"method": "read"}}}  # noqa: E731
        mon = Monitor([p])
        for record in objects:
            assert mon.step(record) == []
        for src in ("bad", "good", "bad", "good", "bad"):
            if src == "bad":
                with pytest.raises(PredicateTypeError) as raised:
                    mon.step(read(src))
                assert str(raised.value) == message
            else:
                (decision,) = mon.step(read(src))
                assert decision.allowed
        assert [e.src for e in mon.graph.events] == ["good", "good"]
        with pytest.raises(PredicateTypeError) as raised:
            verdict(p, ingest_trace(objects + [read("good"), read("bad")]))
        assert str(raised.value) == message

    def test_the_memo_does_not_outlive_its_graph(self):
        """Batch passes over many fresh graphs, and monitors that are
        dropped, leave no memo behind."""
        p = parse_policy(NO_READ_UP)
        records = [
            {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 0}}},
            {"t": 1, "object": {"id": "a", "attrs": {"type": "file", "sec_level": 0}}},
        ] + [{"t": t, "event": {"src": "john", "dest": "a", "params": {"method": "read"}}} for t in range(1, 30)]

        def churn():
            for _ in range(50):
                verdict(p, ingest_trace(records))
            for _ in range(5):
                mon = Monitor([p])
                for record in records:
                    mon.step(record)
                del mon

        churn()  # compiles the policy's predicates once and for all
        gc.collect()
        tracemalloc.start()
        try:
            churn()
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(4):
                churn()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16_384, grown
