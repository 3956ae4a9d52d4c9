"""Candidate screening: constant equalities as plan steps, node plans
judged once per snapshot, and events routed to the edges they can take.

A top-level `attr = c` conjunct is an equality step of its binding plan,
which must decide exactly as the interpreter does.  The graph keeps a node
plan's outcome with the snapshot it read, over the snapshot's whole span:
decisions must not change where objects are redeclared, a pass must look
each snapshot up once, a plan that raises must raise again wherever the
parent engine reached it, and the memo must go with its graph, keep no
plan of a dropped policy alive, and hold no more than one entry per
object.  A pattern's edge screen must change nothing but the work done:
batch and monitor results, errors included, equal those of a flat screen
that judges every edge for every event.
"""

import gc
import random
import tracemalloc

import pytest

from policygraph import matching
from policygraph.matching import each_match, edge_candidate, find_matches, verdict
from policygraph.monitor import Monitor
from policygraph.policy import PatternGraph, make_policy, parse_policy, parse_policy_set, validate_policy
from policygraph.predicates import (
    _EQUAL,
    TRUE,
    Attr,
    BinOp,
    BindingPlan,
    Const,
    Not,
    PredicateTypeError,
    Var,
    evaluate,
    parse_predicate,
)
from policygraph.system import SystemGraph, apply_record, ingest_trace
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

    def test_a_pass_looks_each_snapshot_up_once(self, monkeypatch):
        """A batch pass over a user read at twenty instants of an older
        snapshot and ten of the newest looks each snapshot up once: the
        graph's entry covers its snapshot's whole span."""
        records = [
            {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 2}}},
            {"t": 1, "object": {"id": "a", "attrs": {"type": "file", "sec_level": 0}}},
        ]
        read = {"src": "john", "dest": "a", "params": {"method": "read"}}
        records += [{"t": t, "event": read} for t in range(1, 21)]
        records += [{"t": 30, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 1}}}]
        records += [{"t": t, "event": read} for t in range(30, 40)]
        graph = ingest_trace(records)
        lookups = []
        attrs_at = SystemGraph.attrs_at
        monkeypatch.setattr(SystemGraph, "attrs_at", lambda g, *args: lookups.append(args) or attrs_at(g, *args))
        assert len(find_matches(parse_policy(NO_READ_UP), graph)) == 30
        assert sorted(lookups) == [("a", 1), ("john", 1), ("john", 30)]

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

    def test_the_memo_does_not_outlive_its_policy(self):
        """The graph keeps each snapshot's memo as long as the snapshot;
        500 fresh policies checked on one graph leave no plans in it."""
        graph = ingest_trace([
            {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 0}}},
            {"t": 1, "object": {"id": "a", "attrs": {"type": "file", "sec_level": 0}}},
            {"t": 1, "event": {"src": "john", "dest": "a", "params": {"method": "read"}}},
        ])

        def churn(n):
            for _ in range(n):
                assert verdict(parse_policy(NO_READ_UP), graph).upheld

        churn(50)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            churn(500)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16_384, grown


# --- the edge screen against a flat one ----------------------------------

# constants that Python's == conflates or splits in ways values_equal does
# not: 1, 1.0 and true share a hash; -0.0 and 0.0 are equal; NaN is equal
# to nothing; a set is a constant too
SCREEN_CONSTS = [1, 1.0, True, "1", ValueSet([1, "a"]), -0.0, 0.0, NAN]
# the same as trace values of `a` and `m` (a list is a set); None leaves
# the name out.  `b` and `k` are compared by order, so mostly numbers.
TRACE_VALUES = [1, 1.0, True, "1", [1, "a"], -0.0, 0, NAN, "x", 2, None] + [1, True, "1", -0.0] * 2
ORDERED_VALUES = [0, 2, 7, 1.5, 2, 7, "x", None]


def _edge_domain(rng: random.Random, var: str, node_vars: list[str]) -> tuple:
    """An edge's domain conjuncts, shuffled, so that equalities on `m` and
    `k` come before and after captures, tests that raise on text, and
    computed captures that raise; and its captured variables."""
    conjuncts = [BinOp("=", Attr("m"), Const(rng.choice(SCREEN_CONSTS)))]
    if rng.random() < 0.5:  # constant first
        conjuncts[0] = BinOp("=", conjuncts[0].right, conjuncts[0].left)
    captured = []
    for roll in rng.sample(range(6), rng.choice([0, 0, 1, 1, 2, 3])):
        if roll == 0:
            conjuncts.append(BinOp("=", Attr("k"), Const(rng.choice(SCREEN_CONSTS))))
        elif roll == 1:
            conjuncts.append(BinOp("=", Var(var), Attr("k")))
            captured.append(var)
        elif roll == 2:
            conjuncts.append(BinOp(">", Attr("k"), Const(0)))  # raises on text
        elif roll == 3:
            conjuncts.append(BinOp("=", Var(var + "c"), BinOp("+", Attr("m"), Const(1))))  # may raise
            captured.append(var + "c")
        elif roll == 4 and node_vars:
            conjuncts.append(BinOp("!=", Attr("m"), Var(rng.choice(node_vars))))  # a filter
        elif roll == 5:
            conjuncts.append(BinOp("=", Attr("m"), Const(rng.choice(SCREEN_CONSTS))))
    rng.shuffle(conjuncts)
    e = conjuncts[0]
    for c in conjuncts[1:]:
        e = BinOp("&&", e, c)
    return e, captured


def _node_domain(rng: random.Random, var: str) -> tuple:
    roll = rng.randrange(8)
    if roll >= 4:
        return TRUE, []
    if roll == 1:
        return BinOp("=", Attr("a"), Const(rng.choice(SCREEN_CONSTS))), []
    if roll == 2:
        return BinOp("&&", BinOp(">", Attr("b"), Const(1)), BinOp("=", Var(var), Attr("a"))), [var]  # may raise
    if roll == 3:
        return BinOp("&&", BinOp("=", Attr("a"), Const(rng.choice(SCREEN_CONSTS))), BinOp("<", Attr("b"), Const(6))), []
    return BinOp("=", Var(var), Attr("a")), [var]


def screened_policy(rng: random.Random, name: str):
    """A random valid policy of 1-3 edges over three nodes, self-loops and
    parallel edges included, with an isolated node now and then."""
    while True:
        nodes, captured = {}, []
        for n in ("n1", "n2", "n3"):
            dom, got = _node_domain(rng, "W" + n)
            nodes[n] = (dom, None)
            captured += got
        if rng.random() < 0.2:
            nodes["n4"] = (BinOp("=", Attr("a"), Const(rng.choice(SCREEN_CONSTS))), None)
        edges = {}
        for i in range(rng.choice([1, 1, 2, 3])):
            dom, got = _edge_domain(rng, f"E{i}", [v for v in captured if v.startswith("W")])
            captured += got
            src, dest = rng.choice(["n1", "n2", "n3"]), rng.choice(["n1", "n2", "n3"])
            edges[f"e{i}"] = (src, dest, dom, None)
        for edge_id in rng.sample(sorted(edges), rng.randrange(len(edges) + 1)):
            src, dest, dom, _ = edges[edge_id]
            pool = captured or ["none"]
            req = rng.choice([
                BinOp("=", Var(rng.choice(pool)), Const(1)),
                BinOp(">", Var(rng.choice(pool)), Const(0)),  # may raise
                Not(BinOp("=", Var(rng.choice(pool)), Var(rng.choice(pool)))),
                Const(False),
                Const(False),
            ])
            edges[edge_id] = (src, dest, dom, req)
        p = make_policy(name, nodes, edges)
        if not validate_policy(p):
            return p


def screened_records(rng: random.Random) -> list[dict]:
    """A stream over three objects whose attributes and parameters draw
    from TRACE_VALUES, with objects redeclared between events."""

    def values(names):
        return {n: v for n, pool in zip(names, (TRACE_VALUES, ORDERED_VALUES)) if (v := rng.choice(pool)) is not None}

    ids = ["o1", "o2", "o3"]
    records = [{"t": 1, "object": {"id": obj, "attrs": values("ab")}} for obj in ids]
    t = 1
    for _ in range(rng.randrange(1, 13)):
        if rng.random() < 0.3:
            t += 1
            records.append({"t": t, "object": {"id": rng.choice(ids), "attrs": values("ab")}})
        t += rng.randrange(2)
        records.append({"t": t, "event": {"src": rng.choice(ids), "dest": rng.choice(ids), "params": values("mk")}})
    return records


class FlatScreen:
    """A screen that takes every event to every edge."""

    def __init__(self, pattern):
        self.attr, self.routes, self.reads_ends = None, {}, True
        self.default = dict.fromkeys(sorted(pattern.graph.edges), False)

    def route(self, params):
        return self.default


def _raised(error: Exception) -> tuple:
    return ("error", type(error).__name__, str(error))


def engine_results(policies, records) -> list:
    """Everything the engine says about a stream: each monitor decision or
    error, the monitor's final graph, and per policy the batch matches,
    verdict and error-pruned matches on the whole trace, or their errors."""
    out = []
    mon = Monitor(policies)
    for record in records:
        try:
            out.append([(d.allowed, d.denied_by) for d in mon.step(record)])
        except Exception as error:  # noqa: BLE001  compared, not handled
            out.append(_raised(error))
    out.append(repr(mon.graph.to_records()))
    graph = ingest_trace(records)
    for p in policies:
        try:
            out.append([repr(m.key()) for m in find_matches(p, graph)])
        except Exception as error:  # noqa: BLE001
            out.append(_raised(error))
        try:
            v = verdict(p, graph)
            out.append((v.upheld, [(repr(w.match.key()), w.satisfied, w.failing) for w in v.witnesses]))
        except Exception as error:  # noqa: BLE001
            out.append(_raised(error))
        pruned = each_match(p.domain, graph, prune_errors=True)
        out.append(repr([(sorted(edges.items()), sorted(iso.items())) for edges, iso, *_ in pruned]))
    return out


def edge_by_edge(pattern, graph, pruned=()) -> dict:
    """matching._edge_candidates as a walk over the whole trace for each
    edge in turn, by sorted id: the reference for which error the
    event-by-event walk raises."""
    out = {}
    for edge_id in pattern.key_ids[0]:
        out[edge_id] = []
        for index, event in enumerate(graph.events):
            screened_out = pattern.screen.route(event.params).get(edge_id)
            if screened_out is None:
                continue
            try:
                cand = edge_candidate(pattern, edge_id, index, event, graph, screened_out)
            except pruned:
                continue
            if cand is not None:
                out[edge_id].append(cand)
    return out


class TestEdgeScreen:
    def test_screened_like_flat(self, monkeypatch):
        """Random policies and streams: the screen changes no decision,
        denial, match, verdict, error or final graph."""
        rng = random.Random(1800)
        errors = denials = screened = 0
        for i in range(1000):
            policies = [screened_policy(rng, f"p{j}") for j in range(rng.randrange(1, 3))]
            records = screened_records(rng)
            screened += sum(len(p.domain.screen.routes) > 0 for p in policies)
            got = engine_results(policies, records)
            with monkeypatch.context() as patched:
                patched.setattr(PatternGraph, "screen", property(FlatScreen))
                flat = engine_results(policies, records)
            with monkeypatch.context() as patched:
                patched.setattr(matching, "_edge_candidates", edge_by_edge)
                by_edge = engine_results(policies, records)
            assert got == flat == by_edge, (i, policies, records)
            errors += sum(isinstance(r, tuple) and r[:1] == ("error",) for r in got)
            denials += sum(1 for r in got if isinstance(r, list) and r and r[0][:1] == (False,))
        assert errors > 1000 and denials > 20 and screened > 1000, (errors, denials, screened)

    def test_the_first_edge_to_raise_is_the_one_raised(self):
        """The batch pass walks event by event, yet raises the error of the
        first edge, by sorted id, that raises anywhere: e1's at the second
        event, not e2's at the first."""
        p = parse_policy("""
        policy p {
          node a
          node b
          edge e1: a -> b domain: m = 1 && k > 0
          edge e2: a -> b domain: m = 1 && j > 0
        }
        """)
        records = [
            {"t": 1, "object": {"id": "x", "attrs": {}}},
            {"t": 1, "object": {"id": "y", "attrs": {}}},
            {"t": 2, "event": {"src": "x", "dest": "y", "params": {"m": 1, "k": 1, "j": "late"}}},
            {"t": 3, "event": {"src": "x", "dest": "y", "params": {"m": 1, "k": "early", "j": 1}}},
        ]
        graph = ingest_trace(records)
        for check in (find_matches, verdict):
            with pytest.raises(PredicateTypeError, match='^ordered comparison needs numbers: "early" > 0$'):
                check(p, graph)

    def test_the_event_step_stops_at_the_first_edge_that_raises(self, monkeypatch):
        """matching.event_candidates judges the edges on the event's route
        in sorted order: the first that raises is returned with its error
        and no later edge is judged; an error of a `pruned` type only drops
        its edge; with no error, `raised` is None."""
        p = parse_policy("""
        policy p {
          node a
          node b
          edge e1: a -> b domain: m = 1
          edge e2: a -> b domain: m = 1 && k > 0
          edge e3: a -> b domain: m = 1
        }
        """)
        records = [
            {"t": 1, "object": {"id": "x", "attrs": {}}},
            {"t": 1, "object": {"id": "y", "attrs": {}}},
            {"t": 2, "event": {"src": "x", "dest": "y", "params": {"m": 1, "k": "z"}}},
            {"t": 3, "event": {"src": "x", "dest": "y", "params": {"m": 1, "k": 1}}},
        ]
        graph = ingest_trace(records)
        judged, judge = [], matching.edge_candidate

        def spy(pattern, edge_id, *args):
            judged.append(edge_id)
            return judge(pattern, edge_id, *args)

        monkeypatch.setattr(matching, "edge_candidate", spy)
        bad, good = graph.events

        cands, raised = matching.event_candidates(p.domain, 7, bad, graph)
        assert judged == ["e1", "e2"] and list(cands) == ["e1"]
        edge_id, exc = raised
        assert edge_id == "e2" and isinstance(exc, PredicateTypeError)
        assert str(exc) == 'ordered comparison needs numbers: "z" > 0'

        judged.clear()
        cands, raised = matching.event_candidates(p.domain, 7, bad, graph, PredicateTypeError)
        assert judged == ["e1", "e2", "e3"] and list(cands) == ["e1", "e3"] and raised is None

        cands, raised = matching.event_candidates(p.domain, 8, good, graph)
        assert raised is None and list(cands) == ["e1", "e2", "e3"]
        assert all((c.event_index, c.src_obj, c.dest_obj) == (8, "x", "y") for c in cands.values())

    @pytest.mark.parametrize("raising, judged", [
        ("e1", 1),  # the first edge raises at the first event: the walk stops there
        ("e2", 2 + 1_000),  # e2 raises there: each later event is judged for e1 alone
    ])
    def test_a_pass_judges_no_edge_at_or_after_one_that_raised(self, monkeypatch, raising, judged):
        """Once an edge has raised, the batch pass judges no event for it or
        any later edge, whose errors could never be the one raised; once the
        pattern's first edge has raised, it judges nothing more.  Counted in
        edge_candidate calls over 1 001 events; the error is the same."""
        domains = {"e1": "m = 1", "e2": "m = 1"}
        domains[raising] = 'm = 1 && k > 0'
        p = parse_policy(f"""
        policy p {{
          node a
          node b
          edge e1: a -> b domain: {domains["e1"]}
          edge e2: a -> b domain: {domains["e2"]}
        }}
        """)
        records = [{"t": 1, "object": {"id": "x", "attrs": {}}}, {"t": 1, "object": {"id": "y", "attrs": {}}}]
        records += [{"t": 2, "event": {"src": "x", "dest": "y", "params": {"m": 1, "k": "z"}}}] * 1_001
        graph = ingest_trace(records)
        calls, judge = [], matching.edge_candidate

        def spy(*args):
            calls.append(args[1])
            return judge(*args)

        monkeypatch.setattr(matching, "edge_candidate", spy)
        for check in (find_matches, verdict):
            calls.clear()
            with pytest.raises(PredicateTypeError, match='^ordered comparison needs numbers: "z" > 0$'):
                check(p, graph)
            assert len(calls) == judged and calls[-1] == "e1"

    def test_the_event_step_judges_no_edge_at_or_after_before(self, monkeypatch):
        """event_candidates given `before` judges only the edges on the
        route whose ids sort before it."""
        p = parse_policy("""
        policy p {
          node a
          node b
          edge e1: a -> b domain: m = 1
          edge e2: a -> b domain: m = 1
          edge e3: a -> b domain: m = 1
        }
        """)
        graph = ingest_trace([
            {"t": 1, "object": {"id": "x", "attrs": {}}},
            {"t": 1, "object": {"id": "y", "attrs": {}}},
            {"t": 2, "event": {"src": "x", "dest": "y", "params": {"m": 1}}},
        ])
        event = graph.events[0]
        for before, judged in ((None, ["e1", "e2", "e3"]), ("e3", ["e1", "e2"]), ("e2", ["e1"]), ("e1", [])):
            cands, raised = matching.event_candidates(p.domain, 0, event, graph, before=before)
            assert list(cands) == judged and raised is None

    def test_raw_probe_admits_every_equal_constant(self):
        """1, 1.0 and true share a route, which admits all three edges; the
        edges' plans then tell them apart.  -0.0 meets 0.0, and a NaN
        constant admits nothing but the same NaN object."""
        p = make_policy(
            "p",
            {"a": (None, None), "b": (None, None)},
            {f"e{i}": ("a", "b", BinOp("=", Attr("m"), Const(c)), None) for i, c in enumerate([1, 1.0, True, -0.0, NAN])},
        )
        screen = p.domain.screen
        assert screen.attr == "m"
        assert list(screen.route({"m": 1})) == ["e0", "e1", "e2"]
        assert list(screen.route({"m": 0.0})) == ["e3"]
        assert list(screen.route({"m": float("nan")})) == []
        assert list(screen.route({"m": NAN})) == ["e4"]
        assert list(screen.route({})) == []

    def test_only_an_equality_before_any_raising_step_screens(self):
        """An equality after a test that may raise screens nothing; one
        before it does, as does one after a test that never raises."""
        plans = {
            'k > 0 && m = "r"': [],
            'm = "r" && k > 0': [("m", "r")],
            'k = 1 && m = "r"': [("k", 1), ("m", "r")],
            '$X = k + 1 && m = "r"': [],
            '$X = k && m = "r"': [("m", "r")],
        }
        for text, expected in plans.items():
            assert BindingPlan(parse_predicate(text)).screening_equalities == expected, text

    def test_screened_out_edges_still_raise_their_endpoint_errors(self):
        """An event that no edge takes still judges the endpoint plans that
        may raise, once per end: the monitor and a batch pass raise the
        interpreter's error as a flat screen would."""
        p = parse_policy("""
        policy p {
          node u domain: level > 1
          node f
          edge r1: u -> f domain: method = "read"
          edge r2: u -> f domain: method = "read"
        }
        """)
        assert p.domain.screen.default == {"r1": True}
        objects = [
            {"t": 1, "object": {"id": "bad", "attrs": {"level": "x"}}},
            {"t": 1, "object": {"id": "f", "attrs": {}}},
        ]
        write = {"t": 2, "event": {"src": "bad", "dest": "f", "params": {"method": "write"}}}
        mon = Monitor([p])
        for record in objects:
            mon.step(record)
        with pytest.raises(PredicateTypeError, match='ordered comparison needs numbers: "x" > 1'):
            mon.step(write)
        with pytest.raises(PredicateTypeError, match='ordered comparison needs numbers: "x" > 1'):
            find_matches(p, ingest_trace(objects + [write]))


WALL = """
policy chinese_wall {
  node c domain: type = "consultant"
  node o1 domain: type = "data" && owner = $O1 && coi_class = $C1
  node o2 domain: type = "data" && owner = $O2 && coi_class = $C2
  edge r1: c -> o1 domain: method = "read"
  edge r2: c -> o2 domain: method = "read" req: $O1 = $O2 || $C1 != $C2
}
policy image_retrieval_limit {
  node cust domain: type = "customer" && service_level < 6
  node img domain: type = "image" && free = false
  edge g1: cust -> img domain: method = "retrieve"
  edge g2: cust -> img domain: method = "retrieve"
  edge g3: cust -> img domain: method = "retrieve"
  edge g4: cust -> img domain: method = "retrieve" req: false
}
"""


class TestScreeningWork:
    def test_a_write_calls_no_edge_plan(self, monkeypatch):
        """On a wall_join-shaped stream, a write that no edge takes calls no
        edge plan and looks each endpoint's snapshot up at most once, though
        every image_retrieval_limit edge has an endpoint plan that may
        raise; a read calls each of its policy's edge plans once."""
        policies = parse_policy_set(WALL)
        edge_preds = {p.domain_preds[e] for p in policies for e in p.graph.edges}
        calls, lookups = [], []
        call, attrs_at = BindingPlan.__call__, SystemGraph.attrs_at
        monkeypatch.setattr(BindingPlan, "__call__", lambda plan, ctx: calls.append(plan.pred) or call(plan, ctx))
        monkeypatch.setattr(SystemGraph, "attrs_at", lambda g, *args: lookups.append(args) or attrs_at(g, *args))
        mon = Monitor(policies)
        for obj, attrs in [
            ("ann", {"type": "consultant"}),
            ("bob", {"type": "customer", "service_level": 2}),
            ("d1", {"type": "data", "owner": "x", "coi_class": "bank"}),
            ("img", {"type": "image", "free": False}),
        ]:
            mon.step({"t": 1, "object": {"id": obj, "attrs": attrs}})

        def step(src, dest, method):
            calls.clear(), lookups.clear()
            (decision,) = mon.step({"t": 2, "event": {"src": src, "dest": dest, "params": {"method": method}}})
            assert decision.allowed
            return [c for c in calls if c in edge_preds], sorted(lookups)

        for src, dest in [("ann", "d1"), ("bob", "img")]:
            edge_calls, first = step(src, dest, "write")
            assert edge_calls == [] and len(first) <= 2, first
            edge_calls, again = step(src, dest, "write")
            assert edge_calls == [] and again == []  # the snapshots are memoised
        edge_calls, _ = step("ann", "d1", "read")
        assert len(edge_calls) == 2
        edge_calls, _ = step("bob", "img", "retrieve")
        assert len(edge_calls) == 4

    def test_the_memo_holds_one_entry_per_object(self):
        """50 000 redeclarations of one file, each read once, keep the
        graph's snapshot memo at one entry per object: the monitor retains
        no more than the committed history of the same records does."""
        p = parse_policy(NO_READ_UP)
        user = {"t": 0, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 2}}}
        records = [user]
        for t in range(50_000):
            records.append({"t": t, "object": {"id": "a", "attrs": {"type": "file", "sec_level": t % 3}}})
            records.append({"t": t, "event": {"src": "john", "dest": "a", "params": {"method": "read"}}})
        warm = 1000

        def retained(feed) -> float:
            feed(records[:warm])
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                feed(records[warm:])
                gc.collect()
                return (tracemalloc.get_traced_memory()[0] - before) / (len(records) - warm)
            finally:
                tracemalloc.stop()

        mon = Monitor([p])

        def monitored(chunk):
            for record in chunk:
                mon.step(record)

        graph = SystemGraph()
        cursor = 0

        def ingested(chunk):
            nonlocal cursor
            for record in chunk:
                cursor, _ = apply_record(graph, dict(record), cursor)

        by_monitor, by_graph = retained(monitored), retained(ingested)
        assert mon.graph == graph and len(mon.graph._entries) == 2
        assert by_monitor <= by_graph + 8, (by_monitor, by_graph)
