"""Policy combinators, their per-match semantics, and bounded coverage."""

import random

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
    reverse,
    reverse_expr,
)
from policygraph.matching import find_matches, verdict
from policygraph.policy import PolicyGraph, domain_of, parse_policy
from policygraph.predicates import parse_predicate
from policygraph.system import ingest_trace

from oracle import GEN_VALUES, random_policy, random_trace_records

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


def same_domain_variant(rng: random.Random, p: PolicyGraph, name: str) -> PolicyGraph:
    """Fresh requirements over the same graph and domain."""
    variables = sorted(p.variables)
    reqs = {}
    for elt in p.graph.elements():
        roll = rng.random()
        if roll < 0.35:
            reqs[elt] = parse_predicate("true")
        elif roll < 0.55 and elt in p.graph.edges:
            reqs[elt] = parse_predicate(f"act = {_lit(rng.choice(GEN_VALUES))}")
        elif variables:
            reqs[elt] = parse_predicate(f"${rng.choice(variables)} = {_lit(rng.choice(GEN_VALUES))}")
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
        assert info.value.count > info.value.ceiling == 1000

    def test_from_json(self):
        u = UniverseBounds.from_json(
            '{"max_objects": 2, "max_instances": 1, "attributes": ["kind"],'
            ' "parameters": ["act"], "values": [0, 1], "max_events": 2}'
        )
        assert u == UniverseBounds(2, 1, ("kind",), ("act",), (0, 1), 2)

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

        def flow(name, req):
            return parse_policy(f"policy {name} {{\n node a\n node b\n edge f: a -> b domain: act = $A req: {req}\n}}")

        u = UniverseBounds(
            max_objects=2,
            max_instances=1,
            attributes=("kind",),
            parameters=("act",),
            values=(0, 1),
            max_events=1,
        )
        strict, le = flow("flow_strict", "$A <= 0"), flow("flow_le", "$A <= 1")
        assert contains(strict, le, u)
        assert not contains(le, strict, u)
