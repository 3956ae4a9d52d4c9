"""Policy combinators, their per-match semantics, and bounded coverage."""

import gc
import itertools
import json
import logging
import math
import random
import re
import sys
import time

import pytest

from policygraph.algebra import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESSER,
    Always,
    Atom,
    Conjunction,
    Disjunction,
    DomainMismatchError,
    Reversal,
    UniverseBounds,
    UniverseCeilingError,
    conjoin,
    conjoin_same_domain,
    contains,
    coverage_compare,
    disjoin,
    enumerate_systems,
    eval_policy_expr,
    nullify,
    nullify_graph,
    orbit_systems,
    reverse,
    reverse_expr,
)
from policygraph import algebra
from policygraph.algebra import _Frame, _system_count
from policygraph.corpus import corpus_text
from policygraph.matching import InvalidPolicyError, MatchCapExceeded, MatchingError, each_match, find_matches, verdict
from policygraph.monitor import Monitor
from policygraph.policy import PolicyGraph, domain_of, parse_policy, parse_policy_set, print_policy, requirement_of
from policygraph.predicates import BinOp, PredicateTypeError, parse_predicate
from policygraph.system import SystemEvent, apply_record, ingest_trace

from oracle import (
    GEN_VALUES,
    random_policy,
    random_trace_records,
    reference_contains,
    reference_coverage,
    reference_eval_policy_expr,
    reference_systems,
)

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


def same_domain_variant(rng: random.Random, p: PolicyGraph, name: str, values=GEN_VALUES) -> PolicyGraph:
    """Fresh requirements over the same graph and domain."""
    variables = sorted(p.variables)
    reqs = {}
    for elt in p.graph.elements():
        roll = rng.random()
        if roll < 0.35:
            reqs[elt] = parse_predicate("true")
        elif roll < 0.55 and elt in p.graph.edges:
            reqs[elt] = parse_predicate(f"act = {_lit(rng.choice(values))}")
        elif variables:
            reqs[elt] = parse_predicate(f"${rng.choice(variables)} = {_lit(rng.choice(values))}")
        else:
            reqs[elt] = parse_predicate("true" if rng.random() < 0.7 else "false")
    return PolicyGraph(name, p.graph, dict(p.domain_preds), reqs)


def _lit(v):
    return f'"{v}"' if isinstance(v, str) else str(v)


class TestSameDomainConjunction:
    def test_requirements_and_together(self):
        a = parse_policy(NO_READ_UP)
        b = PolicyGraph("cap", a.graph, dict(a.domain_preds), {
            "u": parse_predicate("true"),
            "f": parse_predicate("true"),
            "r": parse_predicate("$FL < 9"),
        })
        c = conjoin_same_domain(a, b)
        assert c.name == "no_read_up_and_cap"
        assert c.domain_preds == a.domain_preds
        assert c.requirement_preds["r"] == parse_predicate("$UL >= $FL && $FL < 9")
        assert c.requirement_preds["u"] == parse_predicate("true")

    def test_true_requirements_disappear(self):
        a = parse_policy(NO_READ_UP)
        b = nullify_graph(a)
        c = conjoin_same_domain(a, b)
        assert c.requirement_preds == dict(a.requirement_preds)

    def test_upheld_iff_both_upheld(self):
        rng = random.Random(60614)
        for i in range(40):
            p = random_policy(rng, f"p{i}")
            q = same_domain_variant(rng, p, f"q{i}")
            g = ingest_trace(random_trace_records(rng))
            combined = conjoin_same_domain(p, q)
            assert verdict(combined, g).upheld == (verdict(p, g).upheld and verdict(q, g).upheld)

    def test_mismatched_domains_are_refused(self):
        a = parse_policy(NO_READ_UP)
        b = parse_policy("policy other {\n node n\n}")
        with pytest.raises(DomainMismatchError):
            conjoin_same_domain(a, b)
        tightened = PolicyGraph("t", a.graph, {**a.domain_preds, "r": parse_predicate('method = "write"')}, dict(a.requirement_preds))
        with pytest.raises(DomainMismatchError):
            conjoin_same_domain(a, tightened)


class TestNullify:
    def test_nullify_is_the_unit(self):
        p = parse_policy(NO_READ_UP)
        assert nullify(p) == Always()
        assert eval_policy_expr(Always(), ingest_trace(CLASSIC))

    def test_nullify_graph_keeps_the_domain(self):
        p = parse_policy(NO_READ_UP)
        n = nullify_graph(p)
        g = ingest_trace(CLASSIC)
        assert n.domain_preds == dict(p.domain_preds)
        assert {m.key() for m in find_matches(n, g)} == {m.key() for m in find_matches(p, g)}
        assert verdict(n, g).upheld
        assert not verdict(p, g).upheld

    def test_always_is_identity_for_both_combinators(self):
        p = parse_policy(NO_READ_UP)
        g = ingest_trace(CLASSIC)
        for expr in (conjoin(Always(), p), disjoin(Always(), p)):
            assert eval_policy_expr(expr, g) == eval_policy_expr(p, g)


class TestReversal:
    def test_graph_form_negates_the_active_requirement(self):
        p = parse_policy(NO_READ_UP)
        rev = reverse(p)
        assert isinstance(rev, Disjunction)
        (atom,) = rev.operands
        assert atom.policy.domain_preds == dict(p.domain_preds)
        assert atom.policy.requirement_preds["r"] == parse_predicate("!($UL >= $FL)")
        assert atom.policy.requirement_preds["u"] == parse_predicate("true")

    def test_reversal_match_set_is_preserved(self):
        p = parse_policy(NO_READ_UP)
        g = ingest_trace(CLASSIC)
        (atom,) = reverse(p).operands
        assert {m.key() for m in find_matches(atom.policy, g)} == {m.key() for m in find_matches(p, g)}

    def test_all_true_requirements_reverse_to_unsatisfiable(self):
        p = parse_policy("policy open {\n node a\n node b\n edge e: a -> b\n}")
        rev = reverse(p)
        (atom,) = rev.operands
        g = ingest_trace(CLASSIC)
        assert {m.key() for m in find_matches(atom.policy, g)} == {m.key() for m in find_matches(p, g)}
        assert not eval_policy_expr(rev, g)  # matches exist, all now fail
        empty = ingest_trace([])
        assert eval_policy_expr(rev, empty)  # nothing to fail on

    def test_expression_reversal_flips_every_witness(self):
        p = parse_policy(NO_READ_UP)
        g = ingest_trace(CLASSIC)
        expected = all(not w.satisfied for w in verdict(p, g).witnesses)
        assert eval_policy_expr(reverse_expr(p), g) == expected

    def test_graph_form_agrees_with_expression_form(self):
        rng = random.Random(13031)
        for i in range(60):
            p = random_policy(rng, f"p{i}")
            g = ingest_trace(random_trace_records(rng))
            assert eval_policy_expr(reverse(p), g) == eval_policy_expr(reverse_expr(p), g)

    def test_differently_shaped_disjuncts_warn_once_when_built(self, caplog):
        """A reversal over disjuncts of two shapes logs its warning when it
        is built, and nothing more while it is evaluated on every system of
        a universe; disjuncts of one shape log nothing."""
        p = parse_policy(NO_READ_UP)
        loop = parse_policy("policy loop {\n node n\n edge e: n -> n domain: act = $A req: $A = 0\n}")
        u = UniverseBounds(1, 1, ("kind",), ("act",), (0, 1), max_events=1)
        with caplog.at_level(logging.WARNING, logger="policygraph.algebra"):
            mixed = Reversal(Disjunction((Atom(p), Atom(loop))))
            assert [r.getMessage().split(";")[0] for r in caplog.records] == [
                "reversal over a disjunction of differently-shaped policies"]
            caplog.clear()
            assert len([eval_policy_expr(mixed, g) for g in enumerate_systems(u)]) == 7
            Reversal(Disjunction((Atom(p), Atom(nullify_graph(p)))))
        assert caplog.records == []

    def test_double_reversal_restores_the_verdict(self):
        rng = random.Random(20262)
        for i in range(40):
            p = random_policy(rng, f"p{i}")
            g = ingest_trace(random_trace_records(rng))
            assert eval_policy_expr(Reversal(Reversal(Atom(p))), g) == verdict(p, g).upheld


class TestExpressionSemantics:
    def test_atoms_agree_with_verdicts(self):
        rng = random.Random(90125)
        for i in range(40):
            p = random_policy(rng, f"p{i}")
            g = ingest_trace(random_trace_records(rng))
            assert eval_policy_expr(p, g) == verdict(p, g).upheld

    def test_conjunction_is_every_operand_upheld(self):
        rng = random.Random(1999)
        for i in range(40):
            a = random_policy(rng, f"a{i}")
            b = random_policy(rng, f"b{i}")
            g = ingest_trace(random_trace_records(rng))
            assert eval_policy_expr(conjoin(a, b), g) == (
                verdict(a, g).upheld and verdict(b, g).upheld
            )

    def test_same_domain_disjunction_excuses_matches_either_way(self):
        rng = random.Random(30309)
        for i in range(60):
            p = random_policy(rng, f"p{i}")
            q = same_domain_variant(rng, p, f"q{i}")
            g = ingest_trace(random_trace_records(rng))
            wp = {w.match.key(): w.satisfied for w in verdict(p, g).witnesses}
            wq = {w.match.key(): w.satisfied for w in verdict(q, g).witnesses}
            assert wp.keys() == wq.keys()
            expected = all(wp[k] or wq[k] for k in wp)
            assert eval_policy_expr(disjoin(p, q), g) == expected

    def test_disjunction_upheld_though_each_operand_fails_somewhere(self):
        p = parse_policy(NO_READ_UP)
        q = PolicyGraph("level_two_files", p.graph, dict(p.domain_preds), {
            "u": parse_predicate("true"),
            "f": parse_predicate("true"),
            "r": parse_predicate("$FL = 2"),
        })
        g = ingest_trace(CLASSIC)
        # p fails on the read of the secret file, q fails on the public one;
        # each match is excused by the other operand
        assert not verdict(p, g).upheld
        assert not verdict(q, g).upheld
        assert eval_policy_expr(disjoin(p, q), g)

    def test_disjoint_domains_enforce_independently(self):
        lenient = parse_policy("policy lenient {\n node n\n edge e: n -> n req: true\n}")
        strict = parse_policy('policy strict {\n node a\n node b\n edge e: a -> b req: false\n}')
        g = ingest_trace(
            [
                {"t": 1, "object": {"id": "x", "attrs": {}}},
                {"t": 1, "object": {"id": "y", "attrs": {}}},
                {"t": 1, "event": {"src": "x", "dest": "y", "params": {}}},
            ]
        )
        # strict's match is not shared with lenient (different shapes), so
        # lenient being upheld does not excuse it
        assert eval_policy_expr(lenient, g)
        assert not eval_policy_expr(disjoin(lenient, strict), g)

    def test_de_morgan_over_shared_matches(self):
        rng = random.Random(61820)
        for i in range(40):
            p = random_policy(rng, f"p{i}")
            q = same_domain_variant(rng, p, f"q{i}")
            g = ingest_trace(random_trace_records(rng))
            lhs = eval_policy_expr(reverse_expr(disjoin(p, q)), g)
            rhs = eval_policy_expr(conjoin(reverse_expr(p), reverse_expr(q)), g)
            assert lhs == rhs

    def test_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            eval_policy_expr("not a policy", ingest_trace([]))

    def test_edge_shapes_against_the_reference(self):
        """Empty and one-operand connectives, reversed units, and one atom
        shared under nested reversals and both connectives, on systems
        where the atoms match nothing, hold everywhere, or fail somewhere."""
        flow, tag = Atom(TestAtomMemo.FLOW), Atom(TestAtomMemo.TAG)
        exprs = [Conjunction(()), Disjunction(()), Reversal(Always()), Reversal(Reversal(Always()))]
        for a in (flow, tag):
            exprs += [
                Conjunction((a,)), Disjunction((a,)), Conjunction((Reversal(a),)), Disjunction((Reversal(a),)),
                Conjunction((Always(), Reversal(a))), Disjunction((Always(), a)), Reversal(Reversal(a)),
                Conjunction((a, Reversal(a))), Disjunction((a, Reversal(a))),
                Reversal(Conjunction((a, Reversal(Reversal(a))))),
                Disjunction((Reversal(a), Reversal(Reversal(a)), a)),
                Conjunction((Disjunction((a, Reversal(a))), Reversal(a))),
                Reversal(Disjunction((Conjunction((a, tag)), Reversal(Conjunction((flow, a)))))),
            ]
        objects = [{"t": 1, "object": {"id": "x", "attrs": {"kind": 1}}}, {"t": 1, "object": {"id": "y", "attrs": {}}}]
        systems = [
            ingest_trace([]),
            ingest_trace(objects),
            ingest_trace(objects + [{"t": 2, "event": {"src": "x", "dest": "y", "params": {"act": 0}}}]),
            ingest_trace(objects + [
                {"t": 1, "event": {"src": "x", "dest": "y", "params": {"act": 0}}},
                {"t": 2, "object": {"id": "y", "attrs": {"kind": 0}}},
                {"t": 2, "event": {"src": "x", "dest": "y", "params": {"act": 1}}},
            ]),
        ]
        outcomes = set()
        for g in systems:
            for e in exprs:
                expected = reference_eval_policy_expr(e, g)
                assert eval_policy_expr(e, g) == expected, (e, g.to_records())
                outcomes.add(expected)
        assert outcomes == {True, False}


def random_policy_expr(rng: random.Random, atoms: list, depth: int = 3):
    """An expression of Atom, Always, Conjunction, Disjunction and Reversal
    nodes up to `depth` deep, with leaves drawn from `atoms`."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return Always() if rng.random() < 0.1 else rng.choice(atoms)
    if roll < 0.45:
        return Reversal(random_policy_expr(rng, atoms, depth - 1))
    kind = Conjunction if roll < 0.75 else Disjunction
    return kind(tuple(random_policy_expr(rng, atoms, depth - 1) for _ in range(rng.randrange(1, 4))))


def atom_leaves(e) -> list:
    if isinstance(e, Atom):
        return [e]
    if isinstance(e, Reversal):
        return atom_leaves(e.operand)
    if isinstance(e, (Conjunction, Disjunction)):
        return [leaf for c in e.operands for leaf in atom_leaves(c)]
    return []


class TestAtomMemo:
    """Each atom is matched once per state of the system graph; the memo
    must never change a result."""

    FLOW = parse_policy("policy flow {\n node a\n node b\n edge e: a -> b domain: act = $A req: $A = 0\n}")
    TAG = parse_policy("policy tag {\n node n domain: kind = $K req: $K = 1\n}")
    EXPRS = [
        Atom(FLOW),
        reverse_expr(reverse_expr(TAG)),
        conjoin(FLOW, TAG),
        disjoin(reverse_expr(FLOW), TAG),
        reverse_expr(conjoin(reverse_expr(FLOW), reverse_expr(TAG))),
    ]

    def evaluate(self, graph) -> list[bool]:
        """Every expression on the graph, each equal to its value on a
        freshly ingested copy, where no memo holds anything."""
        fresh = ingest_trace(graph.to_records())
        got = [eval_policy_expr(e, graph) for e in self.EXPRS]
        assert got == [eval_policy_expr(e, fresh) for e in self.EXPRS]
        return got

    def test_random_expressions_against_the_reference(self):
        rng = random.Random(20261018)
        repeated = 0
        for i in range(30):
            p = random_policy(rng, f"p{i}")
            policies = [p, same_domain_variant(rng, p, f"q{i}")]
            if rng.random() < 0.5:
                policies.append(random_policy(rng, f"r{i}"))
            atoms = [Atom(q) for q in policies]
            exprs = []
            while len(exprs) < 5:
                e = random_policy_expr(rng, atoms)
                leaves = [id(leaf.policy) for leaf in atom_leaves(e)]
                if len(set(leaves)) < len(leaves):  # some atom occurs twice
                    exprs.append(e)
            g = ingest_trace(random_trace_records(rng))
            expected = [reference_eval_policy_expr(e, g) for e in exprs]
            order = [j for j in range(len(exprs)) for _ in range(3)]
            rng.shuffle(order)
            for j in order:
                assert eval_policy_expr(exprs[j], g) == expected[j]
            repeated += len(order)
        assert repeated == 450

    def test_monitor_records_drop_the_memo(self):
        guard = parse_policy('policy guard {\n node a\n node b\n edge e: a -> b domain: act = 9 req: false\n}')
        mon = Monitor([guard])
        for obj in ("x", "y"):
            mon.step({"t": 1, "object": {"id": obj, "attrs": {"kind": 1}}})
        start = self.evaluate(mon.graph)
        (decision,) = mon.step({"t": 2, "event": {"src": "x", "dest": "y", "params": {"act": 1}}})
        assert decision.allowed
        allowed = self.evaluate(mon.graph)
        assert allowed != start
        (decision,) = mon.step({"t": 5, "event": {"src": "x", "dest": "y", "params": {"act": 9}}})
        assert not decision.allowed and mon.graph.horizon == 2
        assert self.evaluate(mon.graph) == allowed
        mon.step({"t": 6, "object": {"id": "y", "attrs": {"kind": 1}}})
        declared = self.evaluate(mon.graph)
        mon.step({"t": 6, "object": {"id": "y", "attrs": {"kind": 0}}})  # redeclared within the instant
        assert self.evaluate(mon.graph) != declared

    def test_each_mutator_drops_the_memo(self):
        g = ingest_trace([{"t": 1, "object": {"id": obj, "attrs": {"kind": 1}}} for obj in ("x", "y")])
        start = self.evaluate(g)
        g._append_event(SystemEvent("x", "y", {"act": 1, "time": 2}, 2))
        appended = self.evaluate(g)
        assert appended != start
        g._drop_last_event()
        assert self.evaluate(g) == start
        g._declare_object("x", {"id": "x", "kind": 0}, 1)  # redeclared within the instant
        assert self.evaluate(g) != start

    def test_atom_errors_are_those_of_find_matches_and_verdict(self):
        """A cap passed wins over a requirement's error; a requirement's
        error is that of the first raising match in Match.key() order,
        whatever order the join meets the matches in; find_matches' guards
        raise as they do there."""
        raising = parse_policy('policy raising {\n node a\n node b\n edge e: a -> b domain: act = $A req: $A < "z"\n}')
        g = ingest_trace(
            [{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in ("x", "y")]
            + [{"t": t, "event": {"src": "x", "dest": "y", "params": {"act": t}}} for t in (1, 2, 3)]
        )
        with pytest.raises(MatchCapExceeded):
            eval_policy_expr(raising, g, cap=2)
        with pytest.raises(PredicateTypeError):
            eval_policy_expr(raising, g, cap=3)

        ordered = parse_policy(
            'policy ordered {\n node a\n node b\n node c\n'
            ' edge e1: a -> b domain: kind = "in" && v = $A req: $A < "z"\n'
            ' edge e2: b -> c domain: kind = "out"\n}'
        )
        g = ingest_trace(
            [{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in "pqrwxy"]
            + [{"t": t, "event": {"src": src, "dest": dest, "params": params}} for t, (src, dest, params) in enumerate([
                ("x", "p", {"kind": "in", "v": 1}),
                ("y", "q", {"kind": "in", "v": 2}),
                ("w", "x", {"kind": "in", "v": 3}),
                ("q", "r", {"kind": "out"}),
                ("p", "r", {"kind": "out"}),
            ], 2)]
        )
        met = []  # e2 has fewer candidates, so the join places it first
        for edge_events, *_ in each_match(domain_of(ordered), g):
            met.append((edge_events["e1"], edge_events["e2"]))
        assert met[0] != min(met)
        with pytest.raises(PredicateTypeError) as expected:
            verdict(ordered, g)
        with pytest.raises(PredicateTypeError) as got:
            eval_policy_expr(ordered, g)
        assert str(got.value) == str(expected.value) == 'ordered comparison needs numbers: 1 < "z"'

        for text in ("policy attrs {\n node a req: kind = 1\n}", "policy free {\n node a\n node b\n edge e: a -> b req: $X = 1\n}"):
            bad = parse_policy(text)
            with pytest.raises(Exception) as expected:
                find_matches(bad, g)
            with pytest.raises(type(expected.value)) as got:
                eval_policy_expr(bad, g)
            assert str(got.value) == str(expected.value)

    def test_the_cap_is_part_of_the_key(self):
        g = ingest_trace(
            [{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in ("x", "y")]
            + [{"t": t, "event": {"src": "x", "dest": "y", "params": {"act": 0}}} for t in (1, 2, 3)]
        )
        assert eval_policy_expr(conjoin(self.FLOW, self.FLOW), g, cap=100)
        with pytest.raises(MatchCapExceeded):
            eval_policy_expr(self.FLOW, g, cap=2)
        assert eval_policy_expr(self.FLOW, g, cap=3)

    def test_entries_die_with_their_policy(self, monkeypatch):
        g = ingest_trace(
            [{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in ("x", "y")]
            + [{"t": 1, "event": {"src": "x", "dest": "y", "params": {"act": 0}}}]
        )
        for _ in range(2000):  # a fresh PolicyGraph for each call
            assert not eval_policy_expr(reverse(self.FLOW), g)
        gc.collect()
        assert len(g.derived()) == 0
        kept = reverse(self.FLOW)
        assert not eval_policy_expr(kept, g)
        assert len(g.derived()) == 1
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return each_match(*args, **kwargs)

        monkeypatch.setattr(algebra, "each_match", counting)
        assert not eval_policy_expr(kept, g)
        assert calls == []  # a policy still referenced still hits the memo
        del kept
        assert len(g.derived()) == 0

    @pytest.mark.parametrize(
        "text, error",
        [
            ('policy bad {\n node a\n node b\n edge e: a -> b domain: act = $A req: $A < "z"\n}', PredicateTypeError),
            ("policy bad {\n node a\n node b\n edge e: a -> b req: $X = 1\n}", InvalidPolicyError),
        ],
    )
    def test_an_atom_that_raises_raises_every_time(self, text, error):
        bad = parse_policy(text)
        g = ingest_trace(
            [{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in ("x", "y")]
            + [{"t": 1, "event": {"src": "x", "dest": "y", "params": {"act": 1}}}]
        )
        for expr in (Atom(bad), conjoin(self.FLOW, bad), Atom(bad)):
            with pytest.raises(error):
                eval_policy_expr(expr, g)


class TestBoundedUniverse:
    TINY = UniverseBounds(
        max_objects=1,
        max_instances=1,
        attributes=("kind",),
        parameters=(),
        values=(0, 1),
        max_events=1,
    )

    def test_enumeration_is_exhaustive_and_duplicate_free(self):
        systems = list(enumerate_systems(self.TINY))
        assert len(systems) == 5
        for i, a in enumerate(systems):
            for b in systems[i + 1 :]:
                assert a != b

    def test_ceiling_guard(self):
        big = UniverseBounds(
            max_objects=3,
            max_instances=3,
            attributes=("a", "b"),
            parameters=("p",),
            values=(0, 1, 2),
            max_events=3,
            ceiling=1000,
        )
        with pytest.raises(UniverseCeilingError) as info:
            list(enumerate_systems(big))
        assert info.value.ceiling == 1000

    @pytest.mark.parametrize("fields", [
        {"max_objects": 20_000},
        {"max_objects": 10**6},
        {"max_instances": 10**9},
        {"attributes": (), "max_instances": 10**6, "max_events": 10**9},
    ], ids=str)
    def test_far_past_the_ceiling_raises_at_once(self, fields):
        """The count stops once it passes the ceiling: no object count, power
        of the values or sum of event choices is taken further."""
        u = UniverseBounds(**{**dict(max_objects=2, max_instances=1, attributes=("kind",), parameters=("act",),
                                     values=(0, 1, "x"), max_events=2), **fields})
        start = time.perf_counter()
        with pytest.raises(UniverseCeilingError, match=r"^universe holds more than 500000 systems$"):
            next(orbit_systems(u))
        # the count stops at the first frame that takes it past the ceiling
        assert time.perf_counter() - start < 0.25

    def test_from_json(self):
        u = UniverseBounds.from_json(
            '{"max_objects": 2, "max_instances": 1, "attributes": ["kind"],'
            ' "parameters": ["act"], "values": [0, 1], "max_events": 2}'
        )
        assert u == UniverseBounds(2, 1, ("kind",), ("act",), (0, 1), 2)

    @pytest.mark.parametrize(
        "counts,name,value",
        [
            (dict(max_objects=-3, max_instances=1), "max_objects", -3),
            (dict(max_objects=1, max_instances=-1), "max_instances", -1),
            (dict(max_objects=1, max_instances=1, max_events=-1), "max_events", -1),
            (dict(max_objects=1, max_instances=1, ceiling=-1), "ceiling", -1),
        ],
    )
    def test_bounds_built_in_code_refuse_negative_counts(self, counts, name, value):
        """Bounds built in code refuse a negative count, as from_json does;
        unchecked, `contains` would answer over no systems (max_objects=-3)
        or over a few (max_instances=-1)."""
        p = parse_policy_set(corpus_text("no_read_up.policy"))[0]
        message = f"universe bounds field '{name}' must not be negative, got {value}"
        with pytest.raises(ValueError, match=message):
            contains(p, p, UniverseBounds(**{"max_events": 0, **counts}, attributes=(), parameters=(), values=(0,)))

    @pytest.mark.parametrize(
        "name,bad,what",
        [
            ("attributes", "kind", "a list of names"),
            ("parameters", "act", "a list of names"),
            ("values", "01", "a list of numbers, strings and booleans"),
            ("max_objects", True, "an integer"),
            ("max_objects", 1.5, "an integer"),
            ("values", (0, [1]), "a list of numbers, strings and booleans"),
            ("values", (0, None), "a list of numbers, strings and booleans"),
        ],
    )
    def test_bounds_built_in_code_refuse_an_ill_typed_field(self, name, bad, what):
        """Bounds built in code check each field's type, with from_json's
        message: unchecked, attributes="kind" walked four attributes and
        2353 systems for a 43-system universe, and max_objects=True walked
        as 1."""
        fields = dict(max_objects=2, max_instances=1, attributes=("kind",), parameters=("act",), values=(0, 1))
        with pytest.raises(ValueError, match=re.escape(f"universe bounds field {name!r} must be {what}, got {bad!r}")):
            UniverseBounds(**{**fields, name: bad})
        listed = list(bad) if isinstance(bad, tuple) else bad
        message = f"universe bounds field {name!r} must be {what}, got {listed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            UniverseBounds.from_json(json.dumps({**fields, name: listed}))

    def test_lists_built_in_code_are_kept_as_tuples(self):
        u = UniverseBounds(2, 1, ["kind"], ["act"], [0, 1])
        assert u == UniverseBounds(2, 1, ("kind",), ("act",), (0, 1)) and hash(u) is not None

    def test_from_json_refuses_an_unknown_field(self):
        """A misspelt optional field would otherwise leave its default in force."""
        text = json.dumps(dict(max_objects=2, max_instances=1, attributes=["kind"], parameters=["act"], values=[0, 1],
                               max_evnets=3))
        with pytest.raises(ValueError, match="universe bounds have no field 'max_evnets'"):
            UniverseBounds.from_json(text)

    @pytest.mark.parametrize("values", [(0, 1, 1), (0, 1, 1.0), ("x", 0, "x")])
    def test_bounds_refuse_a_repeated_value(self, values):
        """A value equal to an earlier one would count its systems twice:
        [0, 1, 1] made contains report 130 systems for a 43-system
        universe.  Built in code and from JSON alike, it raises."""
        message = f"universe bounds field 'values' holds {values[-1]!r}, equal to an earlier value"
        with pytest.raises(ValueError, match=re.escape(message)):
            UniverseBounds(2, 1, ("kind",), ("act",), values, max_events=1)
        text = json.dumps(dict(max_objects=2, max_instances=1, attributes=["kind"], parameters=["act"], values=values))
        with pytest.raises(ValueError, match=re.escape(message)):
            UniverseBounds.from_json(text)
        assert _system_count(UniverseBounds(2, 1, ("kind",), ("act",), (0, True, 1, math.nan, math.nan), 1)) > 0

    def test_bounds_refuse_a_parameter_named_time(self):
        """Every event carries its instant as the parameter "time", so a
        universe cannot range over it; built in code and from JSON alike,
        it raises before any system is walked."""
        message = "universe bounds field 'parameters' holds 'time', which is injected into every event"
        with pytest.raises(ValueError, match=re.escape(message)):
            UniverseBounds(1, 1, (), ("time",), (0,), max_events=1)
        text = json.dumps(dict(max_objects=1, max_instances=1, attributes=[], parameters=["act", "time"], values=[0]))
        with pytest.raises(ValueError, match=re.escape(message)):
            UniverseBounds.from_json(text)

    def test_conjunction_idempotent_across_a_whole_universe(self):
        p = parse_policy("policy p {\n node a\n node b\n edge e: a -> b domain: act = $A req: $A = 0\n}")
        u = UniverseBounds(2, 1, ("kind",), ("act",), (0, 1), max_events=1)
        checked = 0
        for g in enumerate_systems(u):
            assert eval_policy_expr(conjoin(p, p), g) == eval_policy_expr(p, g)
            checked += 1
        # 1 empty + 2*3 one-object + 4*9 two-object configurations
        assert checked == 43


class TestCoverage:
    UNIVERSE = UniverseBounds(
        max_objects=1,
        max_instances=1,
        attributes=("level",),
        parameters=(),
        values=(0, 1, 2, 3),
        max_events=0,
    )

    @staticmethod
    def node_pattern(domain: str):
        return domain_of(parse_policy(f"policy q {{\n node n domain: {domain}\n}}"))

    def test_wildcard_covers_specific(self):
        wild = self.node_pattern("true")
        fixed = self.node_pattern("level = 0")
        assert coverage_compare(wild, fixed, self.UNIVERSE).relation == GREATER
        assert coverage_compare(fixed, wild, self.UNIVERSE).relation == LESSER

    def test_identical_patterns_are_equal(self):
        a = self.node_pattern("level = 0")
        b = self.node_pattern("level = 0")
        result = coverage_compare(a, b, self.UNIVERSE)
        assert result.relation == EQUAL
        assert result.systems_checked == 5  # never breaks early
        assert str(result) == "equal (bounded: 5 systems checked)"

    def test_disjoint_patterns_are_incomparable(self):
        a = self.node_pattern("level = 0")
        b = self.node_pattern("level = 1")
        result = coverage_compare(a, b, self.UNIVERSE)
        assert result.relation == INCOMPARABLE
        assert 1 <= result.systems_checked <= 5

    def test_semantically_equal_syntactically_different(self):
        a = self.node_pattern("level = 0 || level = 1")
        b = self.node_pattern("level < 2")
        assert coverage_compare(a, b, self.UNIVERSE).relation == EQUAL


class TestContainment:
    UNIVERSE = UniverseBounds(
        max_objects=1,
        max_instances=1,
        attributes=("level",),
        parameters=(),
        values=(0, 1, 2, 3),
        max_events=0,
    )

    @staticmethod
    def policy(name, req):
        return parse_policy(f"policy {name} {{\n node n domain: level = $L req: {req}\n}}")

    @staticmethod
    def flow(name, req):
        return parse_policy(f"policy {name} {{\n node a\n node b\n edge f: a -> b domain: act = $A req: {req}\n}}")

    def test_tighter_requirement_contains_looser(self):
        tight = self.policy("tight", "$L <= 1")
        loose = self.policy("loose", "$L <= 2")
        assert contains(tight, loose, self.UNIVERSE)
        assert not contains(loose, tight, self.UNIVERSE)

    def test_wider_domain_contains_narrower(self):
        wide = parse_policy("policy wide {\n node n req: false\n}")
        narrow = parse_policy("policy narrow {\n node n domain: level = 0 req: false\n}")
        assert contains(wide, narrow, self.UNIVERSE)
        assert not contains(narrow, wide, self.UNIVERSE)

    def test_every_policy_contains_itself(self):
        p = self.policy("p", "$L <= 1")
        result = contains(p, p, self.UNIVERSE)
        assert result.holds
        assert str(result).startswith("contains (bounded:")

    def test_result_is_falsy_when_containment_fails(self):
        loose = self.policy("loose", "$L <= 2")
        tight = self.policy("tight", "$L <= 1")
        result = contains(loose, tight, self.UNIVERSE)
        assert not result
        assert str(result).startswith("does not contain")

    def test_ordered_requirement_beside_elements_without_predicates(self):
        """Nodes without a domain add no `true` to the values a variable
        is tried with, so `$A <= 1` is never asked of a boolean."""
        u = UniverseBounds(
            max_objects=2,
            max_instances=1,
            attributes=("kind",),
            parameters=("act",),
            values=(0, 1),
            max_events=1,
        )
        strict, le = self.flow("flow_strict", "$A <= 0"), self.flow("flow_le", "$A <= 1")
        assert contains(strict, le, u)
        assert not contains(le, strict, u)

    def test_pool_binding_of_the_wrong_kind_is_no_match(self):
        """The pair's pool holds p's constant "x", which no system of u can
        bind to $A.  Under it q's `$A > 0` raises; that binding is no match,
        as in the oracle, and contains answers instead of raising."""
        u = UniverseBounds(2, 1, ("kind",), ("act",), (0, 1, 2), max_events=1)
        p, q = self.flow("p", '$A = "x" || $A > 1'), self.flow("q", "$A > 0")
        result = contains(p, q, u)
        assert result == reference_contains(p, q, u)[0]
        assert not result.holds and result.systems_checked == 130

    def test_the_match_cap_bounds_contains_and_coverage(self):
        """One event per system makes at most one domain match: a cap of 1
        changes no coverage answer, and a cap of 0 raises, as it does for
        eval_policy_expr."""
        u = UniverseBounds(2, 1, ("kind",), ("act",), (0, 1), max_events=1)
        p, q = self.flow("p", "$A = 0"), self.flow("q", "$A <= 1")
        assert coverage_compare(domain_of(p), domain_of(q), u, cap=1) == coverage_compare(domain_of(p), domain_of(q), u)
        with pytest.raises(MatchCapExceeded, match="exceeded the match cap of 0"):
            contains(p, q, u, cap=0)
        with pytest.raises(MatchCapExceeded, match="exceeded the match cap of 0"):
            coverage_compare(domain_of(p), domain_of(q), u, cap=0)


def pattern(body: str):
    """The domain of a policy with the given element lines."""
    return domain_of(parse_policy(f"policy q {{\n{body}\n}}"))


def system_key(g) -> tuple:
    return (
        tuple(sorted((s.id, s.time, tuple(sorted(s.attrs.items()))) for s in g.objects())),
        tuple((e.src, e.dest, tuple(sorted(e.params.items())), e.time) for e in g.events),
    )


def universe_id(u) -> str:
    return f"{u.max_objects}obj{u.max_instances}t{len(u.values)}v"


# The containment universe of the benchmark's algebra_universe workload.
BENCH_CONTAINS = UniverseBounds(2, 1, ("kind",), ("act",), (0, 1, 2), max_events=2)


class TestOrbitWalk:
    UNIVERSES = [
        BENCH_CONTAINS,
        UniverseBounds(3, 1, ("kind",), ("act",), (0, 1), max_events=2),
        UniverseBounds(2, 2, ("kind",), ("act",), (0, 1), max_events=2),
        UniverseBounds(3, 1, (), (), (0, 1), max_events=2),
        UniverseBounds(1, 1, ("kind",), (), (0, 1), max_events=1),
    ]

    @pytest.mark.parametrize("u", UNIVERSES, ids=universe_id)
    def test_weights_sum_to_the_universe(self, u):
        assert sum(weight for _, weight, _ in orbit_systems(u)) == _system_count(u)

    def test_orbit_counts(self):
        assert sum(1 for _ in orbit_systems(BENCH_CONTAINS)) == 388
        three = UniverseBounds(3, 1, ("kind",), ("act",), (0, 1), max_events=2)
        assert _system_count(three) == 1533
        assert sum(1 for _ in orbit_systems(three)) == 342

    def test_each_orbit_is_walked_at_its_first_system(self):
        """The walk takes the first system of each orbit in
        enumerate_systems() order, weighted by the orbit's size."""
        u = UniverseBounds(3, 1, ("kind",), (), (0, 1), max_events=2)

        def orbit(key):
            objects, events = key
            ids = sorted({obj for obj, _, _ in objects})
            images = []
            for perm in itertools.permutations(ids):
                rename = dict(zip(ids, perm))
                images.append((
                    tuple(sorted(
                        (rename[obj], t, tuple((a, rename[v] if a == "id" else v) for a, v in attrs))
                        for obj, t, attrs in objects
                    )),
                    tuple(sorted((rename[s], rename[d], p, t) for s, d, p, t in events)),
                ))
            return min(images)

        firsts, sizes = {}, {}
        for g in enumerate_systems(u):
            key = system_key(g)
            firsts.setdefault(orbit(key), key)
            sizes[orbit(key)] = sizes.get(orbit(key), 0) + 1
        walked = [(system_key(g), weight) for g, weight, _ in orbit_systems(u)]
        assert walked == [(firsts[o], sizes[o]) for o in firsts]

    def test_without_renaming_every_system_in_order(self):
        u = UniverseBounds(2, 1, ("kind",), ("act",), (0, 1), max_events=1)
        walked = [(system_key(g), w) for g, w, _ in orbit_systems(u, renaming=False)]
        assert walked == [(system_key(g), 1) for g in enumerate_systems(u)]

    def test_ceiling_guard(self):
        big = UniverseBounds(3, 3, ("a", "b"), ("p",), (0, 1, 2), max_events=3, ceiling=1000)
        with pytest.raises(UniverseCeilingError):
            next(orbit_systems(big))

    @pytest.mark.parametrize("max_objects", [0, 1, 8000, 10**6])
    def test_a_zero_instant_universe_holds_one_system(self, max_objects):
        """Without an instant no object is declared, whatever max_objects
        says: the universe holds one system, the one without objects,
        walked once with weight 1 and checked once by contains."""
        u = UniverseBounds(max_objects, 0, ("kind",), ("act",), (0,), 2)
        start = time.perf_counter()
        assert _system_count(u) == 1
        assert [(system_key(g), weight) for g, weight, _ in orbit_systems(u)] == [(((), ()), 1)]
        assert [system_key(g) for g in enumerate_systems(u)] == [((), ())]
        p = TestAtomMemo.FLOW
        assert contains(p, p, u).systems_checked == 1
        assert time.perf_counter() - start < 1.0
        with pytest.raises(UniverseCeilingError):
            next(orbit_systems(UniverseBounds(max_objects, 0, ("kind",), (), (0,), 0, ceiling=0)))

    def test_a_cell_without_values_ends_the_walk(self):
        """With an attribute at an instant and no value for it, only the
        system without objects exists, and no later object count is built."""
        u = UniverseBounds(400, 1, ("kind",), (), (), 2)
        start = time.perf_counter()
        assert [(system_key(g), weight) for g, weight, _ in orbit_systems(u)] == [(((), ()), 1)]
        assert [system_key(g) for g in enumerate_systems(u)] == [((), ())]
        assert time.perf_counter() - start < 1.0
        assert _system_count(u) == 1

    def test_many_objects_few_systems(self):
        """Ten objects, no attributes, one value: 396 systems, but 10! id
        permutations.  A frame whose group is larger than its set of
        configurations, or whose maps would outgrow the ceiling, is walked
        with the identity alone, and enumerate_systems builds no maps."""
        u = UniverseBounds(10, 1, (), (), (0,), max_events=1)
        for k in range(11):  # in this order, so a missing guard fails before 10! maps
            assert len(_Frame(u, k).renamings()) == (math.factorial(k) - 1 if k <= 3 else 0), k
        assert sum(1 for _ in enumerate_systems(u)) == _system_count(u) == 396
        assert sum(weight for _, weight, _ in orbit_systems(u)) == 396
        loop = parse_policy("policy loop {\n node n\n edge e: n -> n\n}")
        flow = parse_policy("policy flow {\n node a\n node b\n edge e: a -> b\n}")
        assert contains(loop, loop, u) == reference_contains(loop, loop, u)[0]
        assert contains(loop, loop, u).systems_checked == 396
        assert not contains(loop, flow, u)
        assert not reference_contains(loop, flow, u)[0]

    def test_predicate_reading_id_takes_every_system(self):
        """Ingestion copies an object's id into its attributes, so renaming
        the objects can change what such a predicate matches: a walk with one
        system per orbit would find pattern a's matches inside b's."""
        u = UniverseBounds(2, 1, ("kind",), (), (0, 1), max_events=0)
        a = pattern(' node n domain: id = "o2" && kind = 0\n node m')
        b = pattern(" node n domain: kind = 0\n node m domain: kind = 0")
        assert coverage_compare(a, b, u).relation == INCOMPARABLE
        assert coverage_compare(b, a, u).relation == INCOMPARABLE
        assert reference_coverage(a, b, u).relation == INCOMPARABLE

    def test_containment_with_one_incomparable_half_walks_to_the_end(self):
        """Domains incomparable, requirements not: the domain comparison
        stops counting, the requirement comparison walks every orbit."""
        u = UniverseBounds(2, 1, ("kind",), ("act",), (0, 1), max_events=1)
        p = parse_policy("policy p {\n node a domain: kind = 0\n node b\n edge e: a -> b req: act = 0\n}")
        q = parse_policy("policy q {\n node a domain: kind = 1\n node b\n edge e: a -> b req: act = 0\n}")
        assert coverage_compare(domain_of(p), domain_of(q), u).relation == INCOMPARABLE
        result = contains(p, q, u)
        assert not result
        assert result.systems_checked == _system_count(u) == 43
        assert result == reference_contains(p, q, u)[0]

    def test_early_stop_counts_whole_orbits(self):
        """The relation turns incomparable on o1 kind 0, o2 kind 1: the
        plain walk stops there, the orbit walk stops there too but counts
        its renaming (o1 kind 1, o2 kind 0) as well."""
        u = UniverseBounds(2, 1, ("kind",), (), (0, 1), max_events=0)
        a = pattern(" node n domain: kind = 0\n node m domain: kind = 1")
        b = pattern(" node n domain: kind = 1\n node m domain: kind = 0")
        got, want = coverage_compare(a, b, u), reference_coverage(a, b, u)
        assert got.relation == want.relation == INCOMPARABLE
        # empty, o1 kind 0, o1 kind 1, both kind 0, then the stop
        assert (got.systems_checked, want.systems_checked) == (6, 5)


class TestBlockWalk:
    """Each system of an attribute block is the block's objects, ingested
    once, plus its chosen events; each is still an independent graph."""

    UNIVERSES = TestOrbitWalk.UNIVERSES
    POLICIES = [
        "policy flow {\n node a\n node b domain: kind = 1\n edge e: a -> b domain: act = $A req: $A = 0\n}",
        "policy pair {\n node a domain: kind = $K\n node b\n edge e: a -> b\n edge f: b -> a req: $K = 0\n}",
        "policy lone {\n node n domain: kind = $K\n node m\n edge e: m -> m domain: act = 1 req: $K = 1\n}",
    ]

    @pytest.mark.parametrize("u", UNIVERSES, ids=universe_id)
    def test_the_oracle_enumeration_agrees_system_by_system(self, u):
        """tests/oracle.py builds and ingests every configuration's records
        itself; the engine's walk gives the same systems in the same order."""
        engine, reference = list(enumerate_systems(u)), list(reference_systems(u))
        assert [system_key(g) for g in engine] == [system_key(g) for g in reference]
        assert engine == reference

    @pytest.mark.parametrize("u", UNIVERSES, ids=universe_id)
    def test_each_system_equals_its_fresh_ingest_after_the_walk(self, u):
        for systems in ([g for g in enumerate_systems(u)], [g for g, _, _ in orbit_systems(u)]):
            for g in systems:  # the walk has moved on past every block
                assert g == ingest_trace(g.to_records())
                assert g.horizon == (u.max_instances if g.object_count() else 0)

    def test_a_record_applied_to_one_system_leaves_its_neighbours(self):
        """Systems of one block share no list or memo: a record applied to
        one changes none of the others, nor what their patterns match, and
        the changed system's matches are those of its fresh ingest."""
        u = BENCH_CONTAINS
        flow = domain_of(parse_policy(self.POLICIES[0]))
        walked = list(orbit_systems(u, renaming=False))
        systems = [g for g, _, _ in walked]
        block = [g for g in systems if system_key(g)[0] == system_key(systems[-1])[0]]
        assert len(block) == 79  # every event choice of the last block
        changed = block[3]

        def matches():  # the other systems, on their block's candidates
            return [(system_key(g), algebra.pattern_matches_bounded(flow, g, edge_cands=candidates(flow)))
                    for g, _, candidates in walked if g is not changed]
        before = matches()
        t, _ = apply_record(changed, {"t": 2, "object": {"id": "o1", "attrs": {"kind": 1}}}, 1)
        apply_record(changed, {"t": 2, "event": {"src": "o2", "dest": "o1", "params": {"act": 0}}}, t)
        fresh = ingest_trace(changed.to_records())
        assert algebra.pattern_matches_bounded(flow, changed) == algebra.pattern_matches_bounded(flow, fresh)
        assert len(changed.events) == 2 and changed.horizon == 2
        assert matches() == before

    @pytest.mark.parametrize("u", UNIVERSES[:3], ids=universe_id)
    def test_matches_and_verdicts_equal_those_of_a_fresh_ingest(self, u):
        """pattern_matches_bounded, exact and over a pool, and
        eval_policy_expr give on each walked system, on its block's
        candidates, what they give on its fresh ingest, which lists its
        own."""
        policies = [parse_policy(text) for text in self.POLICIES]
        pool = algebra.Distinct((*u.values, 0, 1))
        for g, _, candidates in orbit_systems(u, renaming=False):
            fresh = ingest_trace(g.to_records())
            for p in policies:
                assert eval_policy_expr(p, g) == verdict(p, fresh).upheld
                for pat in (domain_of(p), requirement_of(p)):
                    free = tuple(sorted(pat.variables - pat.owners.keys()))
                    choices = list(itertools.product(pool.values, repeat=len(free)))
                    cands = candidates(pat)
                    if not free:
                        got = algebra.pattern_matches_bounded(pat, g, edge_cands=cands)
                        assert got == algebra.pattern_matches_bounded(pat, fresh)
                    got = algebra.pattern_matches_bounded(pat, g, pool, choices, edge_cands=cands)
                    assert got == algebra.pattern_matches_bounded(pat, fresh, pool, choices)

    def test_walked_systems_start_with_an_empty_memo(self):
        """The block's candidates travel beside each system, not in it:
        every system of both walks starts with an empty derived() memo."""
        u = self.UNIVERSES[0]
        assert all(len(g.derived()) == 0 for g in enumerate_systems(u))
        assert all(len(g.derived()) == 0 for g, _, _ in orbit_systems(u))

    @pytest.mark.parametrize("u", UNIVERSES, ids=universe_id)
    def test_ingest_runs_once_per_attribute_block(self, u, monkeypatch):
        calls = []

        def counting(records):
            calls.append(records)
            return ingest_trace(records)

        monkeypatch.setattr(algebra, "ingest_trace", counting)
        blocks = {system_key(g)[0] for g in enumerate_systems(u)}
        assert len(calls) == len(blocks)
        calls.clear()
        walked = {system_key(g)[0] for g, _, _ in orbit_systems(u)}
        assert len(calls) == len(walked)
        calls.clear()
        flow = parse_policy(self.POLICIES[0])
        contains(flow, flow, u)
        assert 0 < len(calls) <= len(walked)


class TestWalkErrorParity:
    """A slot whose edge or endpoint plan raises PredicateTypeError: in
    exact mode the walk raises what matching's own candidate walk raises,
    at the same system; over a pool the slot is no candidate."""

    U = UniverseBounds(2, 1, ("kind",), ("act",), (0, "a"), max_events=2)

    @staticmethod
    def flow(name, domain, req, src=""):
        return parse_policy(f"policy {name} {{\n node a{src}\n node b\n edge e: a -> b domain: {domain} req: {req}\n}}")

    @staticmethod
    def outcome(check):
        try:
            return check()
        except PredicateTypeError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("p_domain, src", [("act > 0 && act = $A", ""), ("act = $A", " domain: kind < 1")])
    def test_exact_mode_raises_as_the_candidate_walk_does(self, p_domain, src, monkeypatch):
        p, q = self.flow("p", p_domain, "$A = 1", src), self.flow("q", "act = $A", "$A = 1")
        checks = [
            lambda: contains(p, q, self.U),
            lambda: contains(q, p, self.U),
            lambda: coverage_compare(domain_of(p), domain_of(q), self.U),
            lambda: coverage_compare(domain_of(q), domain_of(p), self.U),
        ]
        got = [self.outcome(check) for check in checks]
        assert all(isinstance(o, tuple) and o[0] is PredicateTypeError for o in got)
        # without the block's candidates, each_match lists its own
        monkeypatch.setattr(algebra._Frame, "candidates", lambda *args: None)
        assert got == [self.outcome(check) for check in checks]

    def test_pool_mode_prunes_the_slot(self):
        p, q = self.flow("p", "act > 0", "$A = 1"), self.flow("q", "act = $A", "$A = 0 || $A = 1")
        for a, b in ((p, q), (q, p)):
            got, want = contains(a, b, self.U), reference_contains(a, b, self.U)[0]
            assert (got.holds, got.systems_checked) == (want.holds, want.systems_checked) == (
                got.holds, _system_count(self.U))
        assert not contains(p, q, self.U)


class TestExactDomains:
    """Domains that capture an object id or an instant: every binding they
    capture is found, not only those in the universe's values."""

    def test_id_capture(self):
        u = UniverseBounds(2, 1, ("kind",), ("act",), (0, 1), max_events=1)
        any_id = pattern(" node n domain: id = $X")
        kind_0 = pattern(" node n domain: id = $X && kind = 0")
        assert coverage_compare(any_id, kind_0, u).relation == GREATER
        assert coverage_compare(kind_0, any_id, u).relation == LESSER
        assert str(coverage_compare(any_id, kind_0, u)) == "greater (bounded: 43 systems checked)"

    def test_an_exact_match_past_the_cap_raises(self):
        g = ingest_trace([{"t": 1, "object": {"id": obj, "attrs": {}}} for obj in ("x", "y", "z")])
        any_id = pattern(" node n domain: id = $X")
        assert len(algebra.pattern_matches_bounded(any_id, g, cap=3)) == 3
        with pytest.raises(MatchCapExceeded, match="exceeded the match cap of 2"):
            algebra.pattern_matches_bounded(any_id, g, cap=2)

    def test_an_exact_match_of_a_free_variable_raises(self):
        """Without a pool nothing gives $X a value, so its filter cannot run."""
        g = ingest_trace([{"t": 1, "object": {"id": "x", "attrs": {}}}])
        with pytest.raises(MatchingError, match=r"variables \['X'\] have no capture"):
            algebra.pattern_matches_bounded(pattern(" node n domain: $X >= 0"), g)

    def test_a_pool_match_past_the_cap_raises(self):
        """Over a pool the cap counts keys too: here one per value the free
        $X takes on the one object."""
        g = ingest_trace([{"t": 1, "object": {"id": "x", "attrs": {}}}])
        any_value = pattern(" node n domain: $X >= 0")
        pool, choices = algebra.Distinct((0, 1, 2)), [(0,), (1,), (2,)]
        assert len(algebra.pattern_matches_bounded(any_value, g, pool, choices, cap=3)) == 3
        with pytest.raises(MatchCapExceeded, match="exceeded the match cap of 2"):
            algebra.pattern_matches_bounded(any_value, g, pool, choices, cap=2)

    def test_instant_capture(self):
        u = UniverseBounds(1, 3, ("kind",), ("act",), (0, 1), max_events=1)
        late = pattern(" node n\n edge e: n -> n domain: time = $T && time > 1")
        late_0 = pattern(" node n\n edge e: n -> n domain: time = $T && time > 1 && act = 0")
        assert coverage_compare(late, late_0, u).relation == GREATER
        assert coverage_compare(late_0, late, u).relation == LESSER

    def test_pair_with_one_unforced_pattern_uses_the_pool_for_both(self):
        """`$T = time` forces $T, `$T = time || $T = 5` does not.  Matching
        the first exactly would bind instants (2, 3) the second, matched over
        the pool {0, 1, 5}, can never bind: the pair must share the pool."""
        u = UniverseBounds(1, 3, (), ("act",), (0, 1), max_events=1)
        at = parse_policy("policy at {\n node n\n edge e: n -> n domain: act = $T req: $T = time\n}")
        at_or_5 = parse_policy(
            "policy at_or_5 {\n node n\n edge e: n -> n domain: act = $T req: $T = time || $T = 5\n}"
        )
        assert coverage_compare(requirement_of(at), requirement_of(at_or_5), u).relation == LESSER
        assert reference_coverage(requirement_of(at), requirement_of(at_or_5), u).relation == LESSER
        assert contains(at, at_or_5, u)
        assert not contains(at_or_5, at, u)

    def test_requirement_patterns_keep_the_value_pool(self):
        p = parse_policy("policy p {\n node a\n node b\n edge e: a -> b domain: act = $A req: $A = 0 || $A = 1\n}")
        u = UniverseBounds(2, 1, ("kind",), ("act",), (0, 1, 2), max_events=1)
        req = requirement_of(p)
        assert not req.variables <= req.owners.keys()
        assert coverage_compare(req, requirement_of(p), u).relation == EQUAL


class TestPoolMatching:
    """Pool pairs run on the shared join, where a binding under which a
    pool-matched predicate raises is no match, as brute_matches counts it."""

    RAISING = [
        "$A > 0",
        "act > 0 && $A = 1",
        '$A = 1 && $A > "x"',
        '$A = "a" && $A > 0',
        "!$A",
        "$A / 0 = 1 || $B = 1",
    ]
    PLAIN = ["$A = 0 || $A = 1", "$A = $B", "$A <= 1", "act = 0 && $A = 0", "$A != 1"]
    DOMAINS = ["act = $A", "act = $A && act != 0", "true"]
    UNIVERSES = [
        UniverseBounds(2, 1, ("kind",), ("act",), (0, "a"), max_events=1),
        UniverseBounds(2, 1, ("kind",), ("act",), (0, 1, True), max_events=1),
        UniverseBounds(2, 1, ("kind",), ("act",), (0, 1.0, math.nan), max_events=1),
    ]

    @staticmethod
    def flow(name, domain, req):
        return parse_policy(f"policy {name} {{\n node a\n node b\n edge f: a -> b domain: {domain} req: {req}\n}}")

    @staticmethod
    def holds_or_raises(check):
        try:
            return check().holds
        except PredicateTypeError:
            return PredicateTypeError

    @pytest.mark.parametrize("case", range(3))
    def test_mixed_kind_universes_against_the_oracle(self, case):
        """contains agrees with the plain walk on every pair, and raises
        PredicateTypeError exactly where it does; the two walks may meet
        different systems first, so messages are not compared.  Every
        raising requirement is met on each universe."""
        u, rng = self.UNIVERSES[case], random.Random(1717 + case)
        reqs = self.RAISING + self.PLAIN
        pairs = [(req, rng.choice(reqs)) for req in self.RAISING] + [
            (rng.choice(reqs), rng.choice(reqs)) for _ in range(18)
        ]
        outcomes = set()
        for i, (r1, r2) in enumerate(pairs):
            p = self.flow(f"p{i}", rng.choice(self.DOMAINS), r1)
            q = self.flow(f"q{i}", rng.choice(self.DOMAINS), r2)
            p, q = (p, q) if rng.random() < 0.5 else (q, p)
            got = self.holds_or_raises(lambda: contains(p, q, u))
            assert got == self.holds_or_raises(lambda: reference_contains(p, q, u)[0]), (p, q)
            outcomes.add(got)
        assert outcomes >= {True, False}

    def test_an_ill_typed_pool_requirement_is_no_match(self):
        """`!$A` raises under every value of the pair's pool, so p's
        requirement has no match and reads as the strictest one: p contains
        q, as in the oracle.  Where the requirement binds $A itself, it is
        matched exactly and its type error raises."""
        u = UniverseBounds(2, 1, ("kind",), ("act",), (0, 1, 2), max_events=1)
        p, q = self.flow("p", "act = $A", "!$A"), self.flow("q", "act = $A", "$A > 0")
        result = contains(p, q, u)
        assert result.holds and result.systems_checked == 130
        assert result == reference_contains(p, q, u)[0]
        exact_p = self.flow("exact_p", "act = $A", "act = $A && !$A")
        exact_q = self.flow("exact_q", "act = $A", "act = $A && $A > 0")
        with pytest.raises(PredicateTypeError, match="expected a boolean: !0"):
            contains(exact_p, exact_q, u)

    def test_a_free_variable_takes_nan_at_an_edge(self):
        """Over a pool with NaN, a requirement variable that nothing
        captures takes NaN in a pattern with an edge too, as in the oracle:
        `$A != 1` holds there and `$A = 0` does not, so p does not contain q."""
        u = UniverseBounds(2, 1, ("kind",), ("act",), (0, math.nan), max_events=1)
        p, q = self.flow("p", "act = $A", "$A != 1"), self.flow("q", "act = $A", "$A = 0")
        result = contains(p, q, u)
        assert not result.holds
        assert result == reference_contains(p, q, u)[0]


# (universe, random policy pairs on it): 320 pairs, fewer on the larger universes
DIFFERENTIAL_UNIVERSES = [
    (UniverseBounds(2, 1, ("kind",), ("act",), (0, 1), max_events=1), 60),
    (UniverseBounds(2, 1, ("kind",), (), (0, 1, 2), max_events=1), 50),
    (UniverseBounds(3, 1, ("kind",), (), (0, 1), max_events=1), 40),
    (UniverseBounds(2, 2, ("kind",), (), (0, 1), max_events=1), 20),
    (UniverseBounds(2, 1, ("kind",), ("act",), (0, 1), max_events=2), 30),
    (UniverseBounds(1, 2, ("kind",), ("act",), (0, 1), max_events=2), 20),
    (UniverseBounds(2, 1, ("kind", "level"), (), (0, 1), max_events=1), 40),
    (UniverseBounds(2, 1, ("level",), ("act", "grade"), (1, 2), max_events=1), 60),
]


class TestAgainstReference:
    """The orbit walk against the plain walk of tests/oracle.py, on random
    policy pairs: the same relations and containment everywhere, and the
    same count wherever neither walk stopped early."""

    @pytest.mark.parametrize("case", range(len(DIFFERENTIAL_UNIVERSES)))
    def test_random_pairs(self, case):
        u, pairs = DIFFERENTIAL_UNIVERSES[case]
        rng = random.Random(7331 + case)
        for i in range(pairs):
            p, q = random_pair(rng, u, i)
            want, *halves = reference_contains(p, q, u)
            for (g1, g2), half in zip(((domain_of(p), domain_of(q)), (requirement_of(p), requirement_of(q))), halves):
                got = coverage_compare(g1, g2, u)
                assert got.relation == half.relation, (p, q)
                if half.relation != INCOMPARABLE:
                    assert got.systems_checked == half.systems_checked == _system_count(u), (p, q)
            got = contains(p, q, u)
            assert got.holds == want.holds, (p, q)
            if [h.relation for h in halves] != [INCOMPARABLE, INCOMPARABLE]:
                assert got.systems_checked == want.systems_checked == _system_count(u), (p, q)


def random_pair(rng: random.Random, u: UniverseBounds, i: int) -> tuple[PolicyGraph, PolicyGraph]:
    """Two random policies over the universe's names and values: unrelated,
    or sharing a domain, or one's domain narrowed by a clause; in either
    order."""
    names = dict(values=list(u.values), attrs=u.attributes or ("kind",), params=u.parameters or ("act",))
    p = random_policy(rng, f"p{i}", lone_node=True, **names)
    roll = rng.random()
    if roll < 0.4:
        q = random_policy(rng, f"q{i}", lone_node=True, **names)
    else:
        q = p if roll < 0.7 else narrowed(rng, p, names)
        if q is p or rng.random() < 0.5:
            q = same_domain_variant(rng, q, q.name + "_v", names["values"])
    return (p, q) if rng.random() < 0.5 else (q, p)


def narrowed(rng: random.Random, p: PolicyGraph, names: dict) -> PolicyGraph:
    """p with one more clause on one element's domain."""
    elt = rng.choice(p.graph.elements())
    name = rng.choice(names["params"] if elt in p.graph.edges else names["attrs"])
    clause = f"{name} {rng.choice(['=', '!='])} {rng.choice(names['values'])}"
    domain = dict(p.domain_preds)
    domain[elt] = BinOp("&&", domain[elt], parse_predicate(clause))
    return PolicyGraph(p.name + "_n", p.graph, domain, dict(p.requirement_preds))


class TestWideRequirements:
    """Reversal and same-domain conjunction fold a 10 000-way requirement
    in a loop over its links, at the default recursion limit."""

    WIDTH = 10_000
    RECORDS = [{"t": 1, "object": {"id": obj, "attrs": {"kind": kind}}} for obj, kind in (("a", 1), ("b", 7))]

    def policy(self):
        chain = " || ".join(f"$K = {i if i < 3 else 100}" for i in range(self.WIDTH))
        return parse_policy(f"policy wide {{\n node n domain: kind = $K req: {chain}\n}}\n")

    def round_trips(self, p):
        text = print_policy(p)
        assert print_policy(parse_policy(text)) == text

    def test_reverse(self):
        assert sys.getrecursionlimit() <= 1000
        (atom,) = reverse(self.policy()).operands
        assert print_policy(atom.policy).count(" || ") == self.WIDTH - 1
        self.round_trips(atom.policy)
        g = ingest_trace(self.RECORDS)
        assert {w.match.node_objects["n"]: w.satisfied for w in verdict(atom.policy, g).witnesses} == {
            "a": False, "b": True,
        }

    def test_equal_policies_compare_and_hash_equal(self):
        assert sys.getrecursionlimit() <= 1000
        p, q = self.policy(), self.policy()
        assert p == q and p.requirement_preds["n"] is not q.requirement_preds["n"]
        assert hash(p.requirement_preds["n"]) == hash(q.requirement_preds["n"])
        other = parse_policy(print_policy(p).replace("$K = 100 ||", "$K = 101 ||", 1))
        assert other != p

    def test_contains(self):
        """The pair's requirement patterns compare equal, and each of the
        pool's 10 000 values is tried for $A."""
        assert sys.getrecursionlimit() <= 1000
        chain = " || ".join(f"act = {i}" for i in range(self.WIDTH))
        text = f"policy wide {{\n node a\n node b\n edge f: a -> b domain: act = $A req: {chain}\n}}\n"
        u = UniverseBounds(1, 1, (), ("act",), (0, 1), max_events=1)
        assert contains(parse_policy(text), parse_policy(text), u)

    def test_conjoin_same_domain(self):
        assert sys.getrecursionlimit() <= 1000
        p = self.policy()
        both = conjoin_same_domain(p, p)
        assert print_policy(both).count(" || ") == 2 * (self.WIDTH - 1)
        self.round_trips(both)
        g = ingest_trace(self.RECORDS)
        assert {w.match.node_objects["n"]: w.satisfied for w in verdict(both, g).witnesses} == {
            "a": True, "b": False,
        }
