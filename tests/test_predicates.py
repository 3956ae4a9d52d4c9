"""Predicate language: parsing, substitution, folding, conditions.

The fixed expected values in this file were worked out by hand from the
documented semantics before being run; the randomized sections compare the
engine against the independent evaluator in oracle.py under fixed seeds.
"""

import itertools
import json
import random
import time

import pytest

from policygraph.matching import find_matches
from policygraph.policy import parse_policy, print_policy, validate_policy
from policygraph.predicates import (
    BOTTOM,
    FALSE,
    MAX_NESTING,
    TRUE,
    BindingPlan,
    Attr,
    BinOp,
    Conditions,
    Const,
    Not,
    ParseError,
    PredicateTypeError,
    Var,
    attributes_of,
    compile_ground,
    constants_of,
    evaluate,
    extract_bindings,
    fold_constants,
    format_expr,
    merge_conditions,
    parse_predicate,
    reduce_conditions,
    satisfy,
    substitute_attrs,
    substitute_vars,
    variables_of,
)
from policygraph.system import ingest_trace
from policygraph.values import ValueSet, values_equal

from oracle import (
    OracleTypeError,
    oracle_eval,
    random_expr,
    same_value,
    typed_bindings,
    typed_context,
    typed_expr,
)


def vs(*members):
    return Const(ValueSet(members))


class TestParsing:
    def test_conjunction_of_comparisons(self):
        got = parse_predicate('type = "user" && sec_level = $UL')
        want = BinOp(
            "&&",
            BinOp("=", Attr("type"), Const("user")),
            BinOp("=", Attr("sec_level"), Var("UL")),
        )
        assert got == want

    def test_boolean_literals(self):
        assert parse_predicate("true") == Const(True)
        assert parse_predicate("false") == Const(False)

    def test_parenthesized_membership(self):
        got = parse_predicate("($x > 17) && ($y in {a,b})")
        want = BinOp(
            "&&",
            BinOp(">", Var("x"), Const(17)),
            BinOp("in", Var("y"), vs("a", "b")),
        )
        assert got == want

    def test_or_binds_looser_than_and(self):
        got = parse_predicate("a = 1 || b = 2 && c = 3")
        want = BinOp(
            "||",
            BinOp("=", Attr("a"), Const(1)),
            BinOp(
                "&&",
                BinOp("=", Attr("b"), Const(2)),
                BinOp("=", Attr("c"), Const(3)),
            ),
        )
        assert got == want

    def test_arithmetic_binds_tighter_than_comparison(self):
        got = parse_predicate("1 + 2 * 3 = 7")
        want = BinOp(
            "=",
            BinOp("+", Const(1), BinOp("*", Const(2), Const(3))),
            Const(7),
        )
        assert got == want

    def test_set_ops_bind_tighter_than_comparison(self):
        got = parse_predicate("$s intersect {1} = {1}")
        want = BinOp("=", BinOp("intersect", Var("s"), vs(1)), vs(1))
        assert got == want

    def test_not_binds_tightest(self):
        got = parse_predicate("!a && b")
        assert got == BinOp("&&", Not(Attr("a")), Attr("b"))

    def test_set_literals(self):
        assert parse_predicate("{}") == Const(ValueSet())
        assert parse_predicate("{1, 1}") == vs(1)
        assert parse_predicate("{true}") != vs(1)  # flags are not numbers
        nested = parse_predicate("{{1}, 2}")
        assert nested == Const(ValueSet([ValueSet([1]), 2]))

    def test_bare_identifiers_in_sets_are_strings(self):
        assert parse_predicate('{a, "a"}') == vs("a")

    def test_negative_numbers_allowed_in_sets(self):
        assert parse_predicate("$x in {-3, 2}") == BinOp("in", Var("x"), vs(-3, 2))

    def test_string_escapes(self):
        assert parse_predicate(r'"a\"b" = x') == BinOp("=", Const('a"b'), Attr("x"))

    def test_comments_are_skipped(self):
        assert parse_predicate("a = 1 # trailing words\n&& b = 2") == parse_predicate(
            "a = 1 && b = 2"
        )

    # the binary operators by binding strength, loosest first
    OPERATOR_LEVELS = [
        ["||"],
        ["&&"],
        ["=", "!=", "<", ">", "<=", ">=", "in", "subset", "subseteq"],
        ["intersect", "union"],
        ["+", "-"],
        ["*", "/"],
    ]

    def test_operators_nest_by_level_and_associate_left(self):
        a, b, c = Attr("a"), Attr("b"), Attr("c")
        level = {op: i for i, ops in enumerate(self.OPERATOR_LEVELS) for op in ops}
        for first, second in itertools.product(level, repeat=2):
            if level[first] < level[second]:
                want = BinOp(first, a, BinOp(second, b, c))
            else:
                want = BinOp(second, BinOp(first, a, b), c)
            assert parse_predicate(f"a {first} b {second} c") == want, (first, second)

    @pytest.mark.parametrize("bad", ["1 +", "(a = 1", "a ~ b", "= 3", "$ x", "{1", "a in in b"])
    def test_errors_carry_positions(self, bad):
        with pytest.raises(ParseError) as info:
            parse_predicate(bad)
        assert info.value.line >= 1
        assert info.value.col >= 1

    @pytest.mark.parametrize("bad, message", [
        ("x in {-a}", "line 1, col 8: expected a number after '-'"),
        ("x in {1, )}", "line 1, col 10: expected a set member, found ')'"),
        ("x in {1,", "line 1, col 9: expected a set member, found 'end of input'"),
    ])
    def test_set_literal_errors(self, bad, message):
        with pytest.raises(ParseError) as info:
            parse_predicate(bad)
        assert str(info.value) == message


class TestSubstitution:
    def test_attr_replacement(self):
        got = substitute_attrs(
            BinOp("=", Attr("type"), Const("user")), {"type": "user", "name": "john"}
        )
        assert got == BinOp("=", Const("user"), Const("user"))

    def test_var_replacement(self):
        got = substitute_vars(BinOp(">=", Var("UL"), Var("FL")), {"UL": 1, "FL": 2})
        assert got == BinOp(">=", Const(1), Const(2))

    def test_unbound_vars_stay(self):
        e = BinOp(">=", Var("UL"), Var("FL"))
        assert substitute_vars(e, {"UL": 1}) == BinOp(">=", Const(1), Var("FL"))

    def test_missing_attr_falsifies_enclosing_comparison(self):
        got = substitute_attrs(BinOp("=", Attr("owner"), Const("x")), {"type": "file"})
        assert got == FALSE

    def test_missing_attr_under_disjunction_is_local(self):
        e = parse_predicate('owner = "x" || type = "file"')
        got = substitute_attrs(e, {"type": "file"})
        assert got == BinOp("||", FALSE, BinOp("=", Const("file"), Const("file")))
        assert evaluate(e, {"type": "file"}, {}) == TRUE

    def test_missing_attr_at_root(self):
        assert substitute_attrs(Attr("gone"), {}) == FALSE

    def test_negated_missing_attr_is_false_not_true(self):
        assert substitute_attrs(Not(Attr("gone")), {}) == FALSE

    def test_missing_attr_poisons_through_arithmetic(self):
        assert substitute_attrs(parse_predicate("price + 1 > 2"), {}) == FALSE


class TestSatisfy:
    def test_partially_bound_residual(self):
        pred = parse_predicate('type = "user" && sec_level = $UL')
        got = satisfy(pred, {"type": "user", "sec_level": 0}, {})
        assert got == Conditions({}, BinOp("=", Const(0), Var("UL")))

    def test_mismatched_context_is_false(self):
        got = satisfy(parse_predicate('method = "read"'), {"method": "write"}, {})
        assert got == Conditions({}, FALSE)

    def test_bound_comparison_folds_to_false(self):
        got = satisfy(parse_predicate("$UL >= $FL"), {}, {"UL": 0, "FL": 2})
        assert got == Conditions({"UL": 0, "FL": 2}, FALSE)

    def test_fold_type_errors_surface(self):
        with pytest.raises(PredicateTypeError):
            satisfy(parse_predicate("$UL >= $FL"), {}, {"UL": "secret", "FL": 2})

    def test_division_by_zero_is_a_type_error(self):
        with pytest.raises(PredicateTypeError):
            satisfy(parse_predicate("1 / x = 1"), {"x": 0}, {})


class TestExtract:
    def test_forced_equality_harvested(self):
        bindings, rest = extract_bindings(parse_predicate("$x = 3 && $x < 5"))
        assert bindings == {"x": 3}
        assert rest == BinOp("<", Var("x"), Const(5))

    def test_reversed_orientation(self):
        bindings, rest = extract_bindings(parse_predicate("3 = $x"))
        assert bindings == {"x": 3}
        assert rest == TRUE

    def test_unbound_comparison_stays(self):
        bindings, rest = extract_bindings(parse_predicate("$x > $y"))
        assert bindings == {}
        assert rest == BinOp(">", Var("x"), Var("y"))

    def test_true_extracts_nothing(self):
        assert extract_bindings(TRUE) == ({}, TRUE)

    def test_contradiction_collapses(self):
        assert extract_bindings(parse_predicate("$x = 1 && $x = 2")) == ({}, FALSE)

    def test_variable_to_variable_equality_stays(self):
        bindings, rest = extract_bindings(parse_predicate("$x = $y"))
        assert bindings == {}
        assert rest == BinOp("=", Var("x"), Var("y"))

    def test_nothing_harvested_under_disjunction(self):
        e = parse_predicate("$x = 1 || $x = 1")
        assert extract_bindings(e) == ({}, e)

    def test_nothing_harvested_under_negation(self):
        e = Not(BinOp("=", Var("x"), Const(1)))
        assert extract_bindings(e) == ({}, e)

    def test_conjunct_next_to_disjunction(self):
        e = parse_predicate("$x = 1 && ($y = 2 || $y = 3)")
        bindings, rest = extract_bindings(e)
        assert bindings == {"x": 1}
        assert rest == parse_predicate("$y = 2 || $y = 3")


class TestReduce:
    def test_binds_then_settles(self):
        got = reduce_conditions(Conditions({}, parse_predicate("$x = 3 && $x < 5")))
        assert got == Conditions({"x": 3}, TRUE)

    def test_fixpoint_derives_from_bound(self):
        got = reduce_conditions(Conditions({"x": 1}, parse_predicate("$y = $x + 1")))
        assert got == Conditions({"x": 1, "y": 2}, TRUE)

    def test_false_stays_false(self):
        assert reduce_conditions(Conditions({}, FALSE)) == Conditions({}, FALSE)

    def test_chained_rounds(self):
        cond = Conditions({}, parse_predicate("$x = 3 && $y = $x + 1 && $z = $y + $x"))
        assert reduce_conditions(cond) == Conditions({"x": 3, "y": 4, "z": 7}, TRUE)


class TestMerge:
    def test_conflicting_bindings_bottom(self):
        got = merge_conditions([Conditions({"x": 1}, TRUE), Conditions({"x": 2}, TRUE)])
        assert got == BOTTOM
        assert got.is_false

    def test_union_then_reduce(self):
        got = merge_conditions(
            [Conditions({"x": 1}, parse_predicate("$y > $x")), Conditions({"y": 5}, TRUE)]
        )
        assert got == Conditions({"x": 1, "y": 5}, TRUE)

    def test_singleton(self):
        assert merge_conditions([Conditions({}, TRUE)]) == Conditions({}, TRUE)

    def test_false_residual_dominates(self):
        got = merge_conditions([Conditions({"x": 1}, FALSE), Conditions({"y": 2}, TRUE)])
        assert got.is_false

    def test_bool_binding_is_not_number(self):
        got = merge_conditions([Conditions({"x": True}, TRUE), Conditions({"x": 1}, TRUE)])
        assert got == BOTTOM


def _strip_negative_consts(e):
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, (int, float)) and not isinstance(v, bool) and v < 0:
            return Const(-v)
        return e
    if isinstance(e, Not):
        return Not(_strip_negative_consts(e.operand))
    if isinstance(e, BinOp):
        return BinOp(e.op, _strip_negative_consts(e.left), _strip_negative_consts(e.right))
    return e


class TestPrinterRoundTrip:
    def test_random_expressions_round_trip(self):
        rng = random.Random(1001)
        floats = random.Random(1002)
        for _ in range(400):
            e = _strip_negative_consts(random_expr(rng, depth=4))
            assert parse_predicate(format_expr(e)) == e
            # floats whose repr has an exponent, alone and as set members
            tiny = floats.random() * 10.0 ** -floats.randrange(4, 320)
            e = BinOp("||", BinOp("<", e, Const(tiny)), BinOp("in", Const(tiny), Const(ValueSet([tiny, 2]))))
            assert parse_predicate(format_expr(e)) == e

    def test_small_floats_print_without_exponent(self):
        assert format_expr(BinOp("<", Attr("level"), Const(0.00001))) == "level < 0.00001"
        assert format_expr(Const(ValueSet([-2.5e-7]))) == "{-0.00000025}"
        assert parse_predicate(format_expr(Const(5e-324))) == Const(5e-324)

    def test_negative_constants_print_as_parseable_equivalent(self):
        text = format_expr(BinOp("=", Const(-3), Var("x")))
        assert fold_constants(parse_predicate(text)) == BinOp("=", Const(-3), Var("x"))

    def test_float_constants(self):
        assert parse_predicate(format_expr(Const(0.5))) == Const(0.5)

    def test_sets_with_negative_members_round_trip(self):
        e = Const(ValueSet([-3, 1.5, "x"]))
        assert parse_predicate(format_expr(e)) == e

    def test_infinite_floats_round_trip(self):
        """A literal too large for a float parses as inf, which prints as a
        literal that overflows back to it, not as the name `inf`."""
        digits = "1" * 400 + ".5"
        for text in (f"x = {digits}", f"x in {{{digits}}}"):
            e = parse_predicate(text)
            assert "inf" not in format_expr(e)
            assert parse_predicate(format_expr(e)) == e
        e = Const(ValueSet([float("inf"), -float("inf"), 1]))
        assert parse_predicate(format_expr(e)) == e


_HUGE = "1" * 400 + ".5"  # a literal too large for a float, which parses as inf


@pytest.mark.parametrize("arith", [
    f"{_HUGE} - {_HUGE}",
    f"{_HUGE} + (0 - {_HUGE})",
    f"{_HUGE} * 0",
    f"0 * {_HUGE}",
    f"{_HUGE} / {_HUGE}",
    f"(0 - {_HUGE}) / {_HUGE}",
], ids=["inf - inf", "inf + -inf", "inf * 0", "0 * inf", "inf / inf", "-inf / inf"])
class TestArithmeticWithoutValue:
    """Infinity minus itself, times zero, or over itself gives a NaN, which
    no literal names: printed, it would read back as the attribute `nan`.
    Arithmetic refuses it with a PredicateTypeError, as it refuses a
    division by zero, wherever the infinities come from."""

    def test_folding_refuses_it(self, arith):
        with pytest.raises(PredicateTypeError, match="^arithmetic on infinity has no value: ") as info:
            fold_constants(parse_predicate(f"x = {arith}"))
        assert "nan" not in str(info.value)

    def test_the_compiled_form_raises_the_interpreters_error(self, arith):
        e = parse_predicate(f"x = {arith} || $V = x")
        with pytest.raises(PredicateTypeError) as interpreted:
            evaluate(e, {"x": 1}, {"V": 1})
        with pytest.raises(PredicateTypeError) as compiled:
            compile_ground(e)({"x": 1}, {"V": 1})
        assert str(compiled.value) == str(interpreted.value)
        assert interpreted.value.reason == "arithmetic on infinity has no value"

    def test_infinities_from_a_trace_are_refused_too(self, arith):
        """Substituted for attributes, the same operands raise the same
        error; a NaN operand, which a trace may carry, still gives NaN."""
        names = {}

        def to_attr(node):
            if isinstance(node, Const):
                name = f"a{len(names)}"
                names[name] = node.value
                return Attr(name)
            if isinstance(node, BinOp):
                return BinOp(node.op, to_attr(node.left), to_attr(node.right))
            return node

        read = BinOp("=", Attr("x"), to_attr(parse_predicate(arith)))
        with pytest.raises(PredicateTypeError, match="^arithmetic on infinity has no value: "):
            evaluate(read, {"x": 1, **names}, {})
        assert evaluate(BinOp("=", Attr("x"), BinOp("+", Attr("y"), Const(0))), {"x": 1, "y": float("nan")}, {}) == FALSE


class TestInfinityInMessages:
    """An error names an infinity `inf`, not by the 311-character literal
    that print_policy and format_expr give it so that it parses back."""

    def test_inf_minus_inf(self):
        with pytest.raises(PredicateTypeError) as folded:
            fold_constants(parse_predicate(f"x = {_HUGE} - {_HUGE}"))
        assert str(folded.value) == "arithmetic on infinity has no value: inf - inf"
        # a trace's JSON Infinity reaches the same message
        with pytest.raises(PredicateTypeError) as read:
            evaluate(parse_predicate("a - b > 0"), json.loads('{"a": Infinity, "b": Infinity}'), {})
        assert str(read.value) == "arithmetic on infinity has no value: inf - inf"

    def test_an_ordered_comparison_with_minus_inf(self):
        e = parse_predicate('a < "z"')
        with pytest.raises(PredicateTypeError) as interpreted:
            evaluate(e, {"a": -float("inf")}, {})
        with pytest.raises(PredicateTypeError) as compiled:
            compile_ground(e)({"a": -float("inf")}, {})
        assert str(interpreted.value) == str(compiled.value) == 'ordered comparison needs numbers: (0 - inf) < "z"'

    def test_a_printed_policy_keeps_the_overflowing_literal(self):
        p = parse_policy(f"policy big {{\n node a domain: level < {_HUGE}\n node b\n edge e: a -> b req: v > (0 - {_HUGE})\n}}")
        text = print_policy(p)
        assert "inf" not in text and "1" + "0" * 309 + ".0" in text
        assert parse_policy(text) == p and print_policy(parse_policy(text)) == text


class TestWideExpressions:
    """The tree walks are iterative: a 10 000-way chain needs no deeper
    recursion than one term."""

    def test_walks_over_a_wide_disjunction(self):
        n = 10_000
        e = parse_predicate(" || ".join(f"a{i % 10} + {i % 50} = $V{i % 5}" for i in range(n)))
        assert variables_of(e) == {f"V{i}" for i in range(5)}
        assert attributes_of(e) == {f"a{i}" for i in range(10)}
        assert constants_of(e) == list(range(50))

    def test_constants_keep_tree_order_and_flatten_sets(self):
        e = parse_predicate("$x in {3, {1, 4}} || 2 = y && !(1 = z)")
        assert constants_of(e) == [ValueSet([3, ValueSet([1, 4])]), 3, ValueSet([1, 4]), 1, 4, 2]

    def test_constants_dedupe_like_a_linear_scan(self):
        """constants_of keeps what a scan comparing each value with every
        one found before keeps, in the same order: 1 and 1.0 meet, true
        and "1" do not, and a NaN is never equal to anything found."""

        def scanned(e):
            found = []

            def add(v):
                if not any(values_equal(v, f) for f in found):
                    found.append(v)
                if isinstance(v, ValueSet):
                    for m in v:
                        add(m)

            def walk(x):
                if isinstance(x, Const):
                    add(x.value)
                elif isinstance(x, BinOp):
                    walk(x.left)
                    walk(x.right)
                elif isinstance(x, Not):
                    walk(x.operand)

            walk(e)
            return found

        nan = float("nan")
        pool = [1, 1.0, True, False, "1", "true", 0, -0.0, 2**60, 2**60 + 1, float(2**60), nan, float("nan"),
                ValueSet([1]), ValueSet([1.0]), ValueSet([True, "1"]), ValueSet([ValueSet([1]), 2]),
                ValueSet([nan]), ValueSet()]
        rng = random.Random(1311)
        for _ in range(300):
            values = [rng.choice(pool) for _ in range(rng.randrange(1, 12))]
            e = Const(values[0])
            for v in values[1:]:
                e = BinOp("||", e, BinOp("=", Var("x"), Const(v)))
            assert constants_of(e) == scanned(e)

    def test_constants_of_a_wide_disjunction_in_linear_time(self):
        n = 10_000
        e = parse_predicate(" || ".join(f"a = {i}" for i in range(n)))
        start = time.perf_counter()
        assert constants_of(e) == list(range(n))
        assert time.perf_counter() - start < 5  # a scan against every value found took about half a minute


def nested(kind: str, n: int) -> str:
    """A predicate nested n levels deep, each parenthesis, `!` and set
    brace counting one level."""
    if kind == "parens":
        return "(" * n + "a = 1" + ")" * n
    if kind == "right-nested ||":
        return "a = 0" + "".join(f" || (a = {i}" for i in range(n)) + ")" * n
    if kind == "!":
        return "!" * n + "flag"
    if kind == "!(":
        return "!(" * (n // 2) + "flag" + ")" * (n // 2)
    if kind == "sets":
        return "a in " + "{" * n + "1" + "}" * n
    if kind == "arithmetic":
        return "a = " + "(1 + " * n + "1" + ")" * n
    raise ValueError(kind)


NESTINGS = ["parens", "right-nested ||", "!", "!(", "sets", "arithmetic"]


class TestNestingLimit:
    """Parentheses, `!` and set braces nest at most MAX_NESTING deep, so no
    input reaches the recursion limit: deeper input is a ParseError."""

    @pytest.mark.parametrize("kind", NESTINGS)
    def test_the_deepest_nesting_works_everywhere(self, kind):
        """At the limit a predicate parses, validates, prints, compiles,
        evaluates and matches at the default recursion limit."""
        from policygraph.matching import find_matches
        from policygraph.policy import parse_policy, print_policy, validate_policy
        from policygraph.system import ingest_trace

        text = nested(kind, MAX_NESTING)
        e = parse_predicate(text)
        assert parse_predicate(format_expr(e)) == e
        ctx = {"a": 1, "flag": True}
        assert compile_ground(e)(ctx, {}) == evaluate(e, ctx, {}).value
        BindingPlan(e)(ctx)
        p = parse_policy(f"policy p {{\n node u\n node f\n edge r: u -> f domain: {text}\n}}")
        assert validate_policy(p) == []
        graph = ingest_trace([
            {"t": 1, "object": {"id": "u"}},
            {"t": 1, "object": {"id": "f"}},
            {"t": 1, "event": {"src": "u", "dest": "f", "params": {"a": 1, "flag": True}}},
        ])
        assert len(find_matches(p, graph)) == int(evaluate(e, ctx, {}).value is True)

    @pytest.mark.parametrize("kind", NESTINGS)
    def test_one_level_deeper_is_a_parse_error(self, kind):
        text = nested(kind, MAX_NESTING + 2 if kind == "!(" else MAX_NESTING + 1)
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels") as raised:
            parse_predicate(text)
        assert raised.value.line == 1
        assert text[raised.value.col - 1] in "(!{"

    @pytest.mark.parametrize("kind", ["parens", "right-nested ||", "!"])
    def test_ten_thousand_levels_are_a_parse_error(self, kind):
        """10 000 levels stop at the first level past the limit, in a
        standalone predicate and on its line of a policy file."""
        text = nested(kind, 10_000)
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_predicate(text)
        with pytest.raises(ParseError, match="line 3, col"):
            parse_policy(f"policy p {{\n node u\n node f domain: {text}\n}}")


class TestEvaluateAgainstOracle:
    def test_mixed_type_expressions(self):
        rng = random.Random(2002)
        errors = 0
        for _ in range(1500):
            e = random_expr(rng, depth=4)
            ctx = {
                k: v
                for k, v in typed_context(rng, present=0.7).items()
            }
            bindings = {name: v for name, v in zip("XYZ", (rng.randrange(4), "red", True))}
            bindings = dict(bindings, **typed_bindings(rng))
            try:
                want = oracle_eval(e, ctx, bindings)
                failed = False
            except OracleTypeError:
                failed = True
            if failed:
                errors += 1
                with pytest.raises(PredicateTypeError):
                    evaluate(e, ctx, bindings)
            else:
                got = evaluate(e, ctx, bindings)
                assert isinstance(got, Const), f"unsettled: {format_expr(got)}"
                assert same_value(got.value, want) and values_equal(got.value, want)
        assert errors > 50  # the generator must actually exercise the error path

    def test_typed_expressions_never_error(self):
        rng = random.Random(3003)
        for _ in range(1500):
            e = typed_expr(rng, "flag", depth=4)
            ctx = typed_context(rng)
            bindings = typed_bindings(rng)
            got = evaluate(e, ctx, bindings)
            assert isinstance(got, Const) and isinstance(got.value, bool)
            assert got.value == oracle_eval(e, ctx, bindings)

    def test_complete_conditions_settle(self):
        rng = random.Random(4004)
        for _ in range(500):
            e = typed_expr(rng, "flag", depth=3)
            cond = satisfy(e, typed_context(rng), typed_bindings(rng))
            assert cond.residual in (TRUE, FALSE)


class TestFoldSubstituteCommute:
    def test_fold_commutes_with_substitution(self):
        rng = random.Random(5005)
        for _ in range(800):
            e = typed_expr(rng, rng.choice(["flag", "num", "set"]), depth=4)
            ctx = typed_context(rng)
            bindings = typed_bindings(rng)
            direct = fold_constants(substitute_vars(substitute_attrs(e, ctx), bindings))
            prefolded = fold_constants(
                substitute_vars(substitute_attrs(fold_constants(e), ctx), bindings)
            )
            assert direct == prefolded


class TestReduceProperties:
    def test_reduce_is_idempotent(self):
        rng = random.Random(6006)
        for _ in range(600):
            e = typed_expr(rng, "flag", depth=4)
            names = [n for n in variables_of(e) if rng.random() < 0.5]
            cond = satisfy(e, typed_context(rng, present=0.6), typed_bindings(rng, names))
            once = reduce_conditions(cond)
            assert reduce_conditions(once) == once


def _num_condition(rng):
    """Attr-free numeric condition over $X, $Y, $Z plus partial bindings."""
    variables = ["X", "Y", "Z"]

    def leaf():
        return Var(rng.choice(variables)) if rng.random() < 0.5 else Const(rng.randrange(3))

    def expr(depth):
        if depth <= 0:
            op = rng.choice(["=", "!=", "<", ">", "<=", ">="])
            return BinOp(op, leaf(), leaf())
        op = rng.choice(["&&", "&&", "||"])
        return BinOp(op, expr(depth - 1), expr(depth - 1))

    bindings = {v: rng.randrange(3) for v in variables if rng.random() < 0.4}
    return Conditions(bindings, expr(rng.randrange(3)))


def _satisfied_by(cond, assignment):
    for name, value in cond.bindings.items():
        if not values_equal(assignment[name], value):
            return False
    return oracle_eval(cond.residual, {}, assignment) is True


class TestMergeProperties:
    def test_merge_is_order_insensitive_under_completions(self):
        rng = random.Random(7007)
        variables = ["X", "Y", "Z"]
        for _ in range(200):
            conds = [_num_condition(rng) for _ in range(rng.choice([2, 3, 4]))]
            merged = [
                merge_conditions(list(perm))
                for perm in itertools.permutations(conds)
            ]
            for assignment_values in itertools.product(range(3), repeat=3):
                assignment = dict(zip(variables, assignment_values))
                outcomes = {_satisfied_by(m, assignment) for m in merged}
                assert len(outcomes) == 1, (conds, assignment)
