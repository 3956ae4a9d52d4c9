"""Policy text form, programmatic construction, and well-formedness rules."""

import pickle

import pytest

from policygraph.corpus import corpus_text, load_manifest
from policygraph.policy import (
    RULE_NODE_REQUIREMENT_ATTRS,
    RULE_VARIABLE_BINDING,
    BasicGraph,
    EdgeSpec,
    ParseError,
    PolicyError,
    PolicyGraph,
    domain_of,
    make_policy,
    parse_policy,
    parse_policy_set,
    print_policy,
    requirement_of,
    validate_policy,
)
from policygraph.predicates import TRUE, BinOp, Const, Var, parse_predicate

NO_READ_UP = """
policy no_read_up {
  node u domain: type = "user" && sec_level = $UL
  node f domain: type = "file" && sec_level = $FL
  edge r: u -> f domain: method = "read" req: $UL >= $FL
}
"""


class TestParsing:
    def test_structure(self):
        p = parse_policy(NO_READ_UP)
        assert p.name == "no_read_up"
        assert p.graph.nodes == frozenset({"u", "f"})
        assert p.graph.edges == {"r": EdgeSpec("u", "f")}
        assert p.variables == frozenset({"UL", "FL"})

    def test_predicates_attach_to_the_right_elements(self):
        p = parse_policy(NO_READ_UP)
        assert p.domain_preds["u"] == parse_predicate('type = "user" && sec_level = $UL')
        assert p.requirement_preds["u"] == TRUE
        assert p.domain_preds["r"] == parse_predicate('method = "read"')
        assert p.requirement_preds["r"] == BinOp(">=", Var("UL"), Var("FL"))

    def test_omitted_predicates_default_to_true(self):
        p = parse_policy("policy p {\n node n\n}")
        assert p.domain_preds["n"] == TRUE
        assert p.requirement_preds["n"] == TRUE

    def test_req_before_domain(self):
        p = parse_policy("policy p {\n node n req: false domain: kind = 1\n}")
        assert p.requirement_preds["n"] == Const(False)
        assert p.domain_preds["n"] == parse_predicate("kind = 1")

    def test_comments_and_blank_lines(self):
        text = "# preamble\n\npolicy p {\n  # inner note\n  node n\n\n}\n# trailing"
        assert parse_policy(text).name == "p"

    def test_multiple_policies_per_file(self):
        text = "policy a {\n node n\n}\npolicy b {\n node m\n}"
        assert [p.name for p in parse_policy_set(text)] == ["a", "b"]
        with pytest.raises(ParseError, match="exactly one"):
            parse_policy(text)

    def test_self_loop_edge(self):
        p = parse_policy("policy p {\n node n\n edge e: n -> n\n}")
        assert p.graph.edges["e"] == EdgeSpec("n", "n")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "no policy blocks"),
            ("node n", "expected 'policy'"),
            ("policy p {\n node n\n", "never closed"),
            ("policy p {\n nod n\n}", "'node' or 'edge'"),
            ("policy p {\n node n\n node n\n}", "duplicate element id"),
            ("policy p {\n node n\n edge n: n -> n\n}", "duplicate element id"),
            ("policy p {\n node n\n edge e: n -> m\n}", "not declared"),
            ("policy p {\n edge e: a -> b\n node a\n node b\n}", "not declared"),
            ("policy p {\n node n domain: x = 1 domain: y = 2\n}", "duplicate 'domain:'"),
            ("policy p {\n node n req: true req: true\n}", "duplicate 'req:'"),
            ("policy p {\n node n domain: domain = 1\n}", "reserved"),
            ("policy p {\n node n domain: req = 1\n}", "reserved"),
            ("policy p {\n node n where: x = 1\n}", "expected 'domain:' or 'req:'"),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises((ParseError, PolicyError), match=fragment):
            parse_policy_set(text)

    def test_parse_errors_carry_file_line_numbers(self):
        text = "policy p {\n  node n\n  bogus q\n}"
        with pytest.raises(ParseError) as info:
            parse_policy(text)
        assert info.value.line == 3


class TestPrinting:
    def test_round_trip_fixed(self):
        p = parse_policy(NO_READ_UP)
        assert parse_policy(print_policy(p)) == p

    @pytest.mark.parametrize(
        "name", sorted({entry.policy_file for entry in load_manifest()})
    )
    def test_round_trip_corpus(self, name):
        for p in parse_policy_set(corpus_text(name)):
            assert parse_policy(print_policy(p)) == p

    @pytest.mark.parametrize("op", ["&&", "||"])
    def test_wide_chains_print_at_the_default_recursion_limit(self, op):
        """A 10 000-way chain prints with a loop down its left spine.  The
        round trip compares printed text, since dataclass == recurses once
        per link."""
        terms = f" {op} ".join(f"level != {i}" for i in range(10_000))
        domain = f"{terms} && kind = $K" if op == "&&" else f"({terms}) && kind = $K"
        text = f"policy wide {{\n  node n domain: {domain} req: $K < 3\n}}\n"
        printed = print_policy(parse_policy(text))
        assert printed == text
        assert print_policy(parse_policy(printed)) == printed

    def test_true_predicates_are_left_implicit(self):
        p = parse_policy("policy p {\n node n domain: true req: true\n}")
        assert print_policy(p) == "policy p {\n  node n\n}\n"


class TestConstruction:
    def test_make_policy_matches_parse(self):
        built = make_policy(
            "no_read_up",
            nodes={
                "u": (parse_predicate('type = "user" && sec_level = $UL'), None),
                "f": (parse_predicate('type = "file" && sec_level = $FL'), None),
            },
            edges={
                "r": ("u", "f", parse_predicate('method = "read"'), parse_predicate("$UL >= $FL")),
            },
        )
        assert built == parse_policy(NO_READ_UP)

    def test_variables_are_computed_not_supplied(self):
        p = make_policy("p", nodes={"n": (parse_predicate("x = $V"), None)}, edges={})
        assert p.variables == frozenset({"V"})
        with pytest.raises(TypeError, match="variables"):
            PolicyGraph(p.name, p.graph, p.domain_preds, p.requirement_preds, variables=frozenset({"W"}))
        assert PolicyGraph(p.name, p.graph, p.domain_preds, p.requirement_preds) == p
        assert pickle.loads(pickle.dumps(p)) == p and pickle.loads(pickle.dumps(p)).variables == p.variables

    def test_bad_endpoint(self):
        with pytest.raises(PolicyError, match="not declared"):
            make_policy("p", nodes={"n": (None, None)}, edges={"e": ("n", "m", None, None)})

    def test_edge_id_clashing_with_node_id(self):
        with pytest.raises(PolicyError, match="both a node and an edge"):
            make_policy("p", nodes={"n": (None, None)}, edges={"n": ("n", "n", None, None)})


class TestGraphShape:
    def test_isolated_and_connected(self):
        g = BasicGraph(frozenset({"a", "b", "c"}), {"e": EdgeSpec("a", "b")})
        assert g.isolated_nodes() == ["c"]
        assert g.connected_nodes() == ["a", "b"]
        assert g.elements() == ["a", "b", "c", "e"]

    def test_signature_ignores_construction_order(self):
        g1 = BasicGraph(frozenset({"a", "b"}), {"e": EdgeSpec("a", "b"), "f": EdgeSpec("b", "a")})
        g2 = BasicGraph(frozenset({"b", "a"}), {"f": EdgeSpec("b", "a"), "e": EdgeSpec("a", "b")})
        assert g1.signature() == g2.signature()

    def test_pattern_views_share_the_graph(self):
        p = parse_policy(NO_READ_UP)
        assert domain_of(p).graph is requirement_of(p).graph
        assert domain_of(p).preds == p.domain_preds
        assert requirement_of(p).preds == p.requirement_preds


class TestValidation:
    def test_corpus_policies_are_well_formed(self):
        for name in sorted({entry.policy_file for entry in load_manifest()}):
            for p in parse_policy_set(corpus_text(name)):
                assert validate_policy(p) == []

    def test_unbound_variable(self):
        p = parse_policy("policy p {\n node n\n edge e: n -> n req: $X > 1\n}")
        issues = validate_policy(p)
        assert [i.rule for i in issues] == [RULE_VARIABLE_BINDING]
        assert issues[0].element == "e"
        assert "$X" in issues[0].message

    def test_binding_beneath_disjunction_does_not_count(self):
        p = parse_policy("policy p {\n node n domain: x = $V || y = 2\n}")
        assert [i.rule for i in validate_policy(p)] == [RULE_VARIABLE_BINDING]

    def test_binding_beneath_negation_does_not_count(self):
        p = parse_policy("policy p {\n node n domain: !(x = $V)\n}")
        assert [i.rule for i in validate_policy(p)] == [RULE_VARIABLE_BINDING]

    def test_binding_to_another_variable_does_not_count(self):
        p = parse_policy("policy p {\n node n domain: $V = $W && x = $W\n}")
        issues = validate_policy(p)
        assert [i.rule for i in issues] == [RULE_VARIABLE_BINDING]
        assert "$V" in issues[0].message

    def test_binding_on_a_conjunction_spine_counts(self):
        p = parse_policy("policy p {\n node n domain: a = 1 && ($V = x && b = 2)\n}")
        assert validate_policy(p) == []

    def test_requirement_mention_alone_is_not_a_binding(self):
        p = parse_policy("policy p {\n node n req: $V = 1\n}")
        assert [i.rule for i in validate_policy(p)] == [RULE_VARIABLE_BINDING]

    def test_node_requirement_naming_attributes(self):
        p = parse_policy("policy p {\n node n req: size > 10\n}")
        issues = validate_policy(p)
        assert [i.rule for i in issues] == [RULE_NODE_REQUIREMENT_ATTRS]
        assert issues[0].element == "n"
        assert "size" in issues[0].message

    def test_edge_requirement_may_name_attributes(self):
        p = parse_policy("policy p {\n node n\n edge e: n -> n req: size > 10\n}")
        assert validate_policy(p) == []

    def test_both_rules_fire_together(self):
        p = parse_policy("policy p {\n node n req: size = $X\n}")
        assert sorted(i.rule for i in validate_policy(p)) == [
            RULE_VARIABLE_BINDING,
            RULE_NODE_REQUIREMENT_ATTRS,
        ]

    def test_issue_rendering(self):
        p = parse_policy("policy p {\n node n req: size > 10\n}")
        text = str(validate_policy(p)[0])
        assert text.startswith("p/n: [R2]")
