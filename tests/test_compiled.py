"""Compiled predicates, the evaluator the engine runs, against the tree
interpreter.

Under bindings for every variable, a compiled ground form gives the value
the interpreter folds to, or raises the PredicateTypeError it raises,
message included; it never gives up.  Under partial bindings it may raise
KeyError where it reaches an unbound variable, and wherever it answers it
still agrees.  A binding plan splits a domain predicate into tests, captures and filters,
and the matcher runs each filter once its variables are bound; against
the interpreter's merged conditions it must agree wherever the predicate
has no filter, and elsewhere may only settle later, never differently.
The random sections draw expressions from the same generators as
test_predicates.py, with contexts that miss some attributes and bindings
that miss some variables or are not equal to themselves.
"""

import pickle
import random

import pytest

from policygraph.matching import (
    _bind,
    _iso_candidates,
    _settle,
    check_requirement,
    edge_candidate,
    find_matches,
    verdict,
)
from policygraph.policy import make_policy, parse_policy
from policygraph.predicates import (
    TRUE,
    Attr,
    BinOp,
    BindingPlan,
    Conditions,
    Const,
    PredicateTypeError,
    Var,
    compile_ground,
    evaluate,
    merge_conditions,
    parse_predicate,
    reduce_conditions,
    satisfy,
    substitute_vars,
    variables_of,
)
from policygraph.system import ingest_trace
from policygraph.values import ValueSet, to_json, values_equal

from oracle import (
    ATTR_NAMES,
    VAR_NAMES,
    _forced_names,
    random_bool_expr,
    random_context,
    random_expr,
    random_value,
    typed_bindings,
    typed_context,
    typed_expr,
)

ERROR = "error"


def same(a, b) -> bool:
    """Equal values of the same Python type (1 and 1.0 differ in reports)."""
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and values_equal(a, b)


def outcome(thunk):
    """thunk's value, or (ERROR, message) where it raises PredicateTypeError."""
    try:
        return thunk()
    except PredicateTypeError as error:
        return (ERROR, str(error))


def random_bindings(rng, complete: bool, nan: float = 0.0) -> dict:
    return {
        v: float("nan") if rng.random() < nan else random_value(rng)
        for v in VAR_NAMES
        if complete or rng.random() < 0.5
    }


def a_context(rng) -> dict:
    return random_context(rng) if rng.random() < 0.5 else typed_context(rng, present=0.7)


# --- ground evaluator ----------------------------------------------------------


def ground_outcome(e, ctx, bindings):
    try:
        return outcome(lambda: ("value", compile_ground(e)(ctx, bindings)))
    except KeyError:
        return ("unbound", None)


def reference_outcome(e, ctx, bindings):
    result = outcome(lambda: evaluate(e, ctx, bindings))
    if isinstance(result, tuple):
        return result
    if isinstance(result, Const):
        return ("value", result.value)
    return ("open", None)


def check_ground(got, want, complete: bool) -> None:
    """A ground outcome against the interpreter's: the same value, or the
    same error message; unbound only under partial bindings."""
    if got[0] == "value":
        assert want[0] == "value" and same(got[1], want[1]), (got, want)
    elif got[0] == "unbound":
        assert not complete, want
    else:
        assert got == want


class TestGroundAgainstInterpreter:
    @pytest.mark.parametrize("complete", [True, False])
    def test_random_expressions(self, complete):
        rng = random.Random(8101 if complete else 8102)
        answered = errors = 0
        for _ in range(3000):
            roll = rng.random()
            if roll < 0.4:
                e = random_expr(rng, depth=4)
            elif roll < 0.7:
                e = random_bool_expr(rng)
            else:
                e = typed_expr(rng, rng.choice(["flag", "num", "set"]), depth=4)
            ctx, bindings = a_context(rng), random_bindings(rng, complete)
            got, want = ground_outcome(e, ctx, bindings), reference_outcome(e, ctx, bindings)
            check_ground(got, want, complete)
            answered += got[0] == "value"
            errors += want[0] == ERROR
        assert answered > 800 and errors > 500

    def test_typed_expressions_never_give_up(self):
        rng = random.Random(8103)
        for _ in range(1500):
            e = typed_expr(rng, "flag", depth=4)
            ctx, bindings = typed_context(rng), typed_bindings(rng)
            assert ground_outcome(e, ctx, bindings) == ("value", evaluate(e, ctx, bindings).value)


class TestChainsAgainstInterpreter:
    """A chain of one connective compiles into one loop over its operands.
    An operand that is no boolean raises at the smallest link that holds
    it, and a link whose guard name is absent is false, as in the
    interpreter."""

    @pytest.mark.parametrize("op", ["&&", "||"])
    @pytest.mark.parametrize("position", [0, 1, 299])
    @pytest.mark.parametrize("odd", ["level", "level + 1", '"x"', "!kind"])
    def test_an_operand_of_the_wrong_kind(self, op, position, odd):
        term = "kind != {}" if op == "&&" else "kind = {}"
        operands = [term.format(i) for i in range(300)]
        operands[position] = odd
        e = parse_predicate(f" {op} ".join(operands))
        for ctx in ({"kind": 500, "level": 3}, {"kind": 500}, {"kind": 5, "level": 3}, {"level": True}):
            assert ground_outcome(e, ctx, {}) == reference_outcome(e, ctx, {}), ctx


# --- binding plans -------------------------------------------------------------


def var_free(rng, depth):
    return substitute_vars(random_expr(rng, depth), {v: random_value(rng) for v in VAR_NAMES})


def random_domain(rng, depth=3, wild=0.5):
    """Domain-shaped predicates: && trees of captures in both orientations
    and tests that never raise or, with probability `wild`, of the risky
    kinds: tests that mix kinds freely, computed captures, bare attributes
    and constants, and conjuncts that keep a variable under || or !."""

    def conjunct():
        if rng.random() >= wild:
            if rng.random() < 0.5:
                attr, var = Attr(rng.choice(ATTR_NAMES)), Var(rng.choice(VAR_NAMES))
                return BinOp("=", attr, var) if rng.random() < 0.5 else BinOp("=", var, attr)
            return substitute_vars(typed_expr(rng, "flag", 2), typed_bindings(rng))
        roll = rng.random()
        if roll < 0.2:
            return BinOp("=", Var(rng.choice(VAR_NAMES)), var_free(rng, 2))
        if roll < 0.5:
            return var_free(rng, 3)
        if roll < 0.65:
            return Attr(rng.choice(ATTR_NAMES))
        if roll < 0.75:
            return Const(rng.choice([True, False, 1]))
        return random_bool_expr(rng, depth=2)

    def tree(d):
        if d == 0 or rng.random() < 0.3:
            return conjunct()
        return BinOp("&&", tree(d - 1), tree(d - 1))

    return tree(depth)


def placed(pairs, bindings):
    """What the matcher makes of (plan, context) pairs placed under some
    bindings: their captures bound in order, then every filter whose
    variables are all bound run.  ERROR on an error, None where false, and
    otherwise the bindings with the filters still waiting."""
    try:
        found = [plan(ctx) for plan, ctx in pairs]
        if None in found:
            return None
        bound = dict(bindings)
        if _bind(found, bound) is None:
            return None
        waiting = _settle(tuple((f, ctx) for plan, ctx in pairs for f in plan.filters), bound)
    except PredicateTypeError as e:
        return (ERROR, str(e))
    return None if waiting is None else (bound, waiting)


def merged(conds):
    """The interpreter's merge of the conditions conds() gives: ERROR on an
    error."""
    try:
        return reduce_conditions(merge_conditions(conds()))
    except PredicateTypeError as e:
        return (ERROR, str(e))


def check_against_merge(got, want, has_filters: bool) -> str:
    """How the matcher's outcome `got` (see placed) relates to the
    interpreter's merged conditions `want`.  Without filters they agree
    exactly, error messages included, except that a predicate whose value
    is no boolean is false to the matcher, where the interpreter leaves the
    value standing or raises once it conjoins it with another.  With
    filters the matcher may find a variable-free part of a waiting filter
    later than the interpreter, which folds it at once; so where only the
    interpreter raises, or settles what is still waiting, the outcome is
    'later'."""
    if isinstance(got, tuple) and got[0] == ERROR:
        assert isinstance(want, tuple) and want[0] == ERROR, (got, want)
        if not has_filters:
            assert got == want
        return "error"
    if isinstance(want, tuple):
        if has_filters:
            return "later"
        assert got is None and want[1].startswith("expected a boolean"), (got, want)
        return "no boolean"
    no_boolean = isinstance(want.residual, Const) and not isinstance(want.residual.value, bool)
    if got is None:
        assert want.is_false or no_boolean, want
        return "no boolean" if no_boolean else "false"
    bound, waiting = got
    if waiting:
        assert want.is_false or all(same_value(want.bindings[v], x) for v, x in bound.items()), (got, want)
        return "later"
    assert want.is_true, (got, want)
    assert bound.keys() == want.bindings.keys(), (got, want)
    assert all(same_value(want.bindings[v], x) for v, x in bound.items()), (got, want)
    return "true"


def same_value(a, b) -> bool:
    """Equal by values_equal, or one and the same object (a NaN binding)."""
    return a is b or values_equal(a, b)


class TestBindingPlanAgainstInterpreter:
    def test_single_predicate(self):
        """One domain predicate at a context, with no bindings yet."""
        rng = random.Random(8201)
        seen = {"error": 0, "false": 0, "true": 0, "later": 0, "no boolean": 0}
        captured = 0
        for _ in range(4000):
            e = random_domain(rng)
            plan, ctx = BindingPlan(e), a_context(rng)
            got = placed([(plan, ctx)], {})
            want = merged(lambda: [satisfy(e, ctx, {})])
            if not plan.may_raise and not plan.filters:
                assert not (isinstance(got, tuple) and got[0] == ERROR), (e, ctx)
            seen[check_against_merge(got, want, bool(plan.filters))] += 1
            captured += isinstance(got, tuple) and got[0] != ERROR and bool(got[0])
        assert min(seen.values()) > 50 and seen["true"] > 300 and captured > 200, seen

    def test_filters_under_complete_bindings(self):
        """Once every variable is bound, a predicate with filters settles as
        the interpreter's merge does, whichever of them raises first."""
        rng = random.Random(8204)
        seen = {"error": 0, "false": 0, "true": 0, "later": 0, "no boolean": 0}
        for _ in range(3000):
            e = random_domain(rng, wild=0.7)
            plan, ctx = BindingPlan(e), a_context(rng)
            bindings = random_bindings(rng, complete=True, nan=0.05)
            got = placed([(plan, ctx)], bindings)
            want = merged(lambda: [Conditions(bindings, TRUE), satisfy(e, ctx, {})])
            assert not (isinstance(got, tuple) and got[0] != ERROR and got[1]), (e, ctx, bindings)
            seen[check_against_merge(got, want, bool(plan.filters))] += 1
        assert min(seen.values()) > 20, seen

    def test_edges_and_monitor_extension(self):
        """Three domains at one event: the batch candidate, and placing it
        under partial bindings already made, against merge_conditions of
        satisfy()."""
        rng = random.Random(8202)
        seen = {"error": 0, "false": 0, "true": 0, "later": 0, "no boolean": 0}
        for _ in range(2500):
            preds = [random_domain(rng, depth=2, wild=0.15) for _ in range(3)]
            pattern = make_policy("p", {"s": (preds[1], None), "d": (preds[2], None)}, {"e": ("s", "d", preds[0], None)}).domain
            graph = ingest_trace(
                [
                    {"t": 1, "object": {"id": "s", "attrs": {k: to_json(v) for k, v in a_context(rng).items()}}},
                    {"t": 1, "object": {"id": "d", "attrs": {k: to_json(v) for k, v in a_context(rng).items()}}},
                    {"t": 1, "event": {"src": "s", "dest": "d",
                                       "params": {k: to_json(v) for k, v in a_context(rng).items()}}},
                ]
            )
            event = graph.events[0]
            contexts = (event.params, graph.attrs_at(event.src, event.time), graph.attrs_at(event.dest, event.time))
            partial = random_bindings(rng, complete=False, nan=0.1)
            has_filters = any(pattern.plans[elt].filters for elt in ("e", "s", "d"))

            def satisfied():
                return [satisfy(e, ctx, {}) for e, ctx in zip(preds, contexts)]

            try:
                cand = edge_candidate(pattern, "e", 0, event, graph)
            except PredicateTypeError as error:
                got = extended = (ERROR, str(error))
            else:
                got = extended = None
                if cand is not None:
                    got = (dict(cand.captures), cand.filters)
                    bound = dict(partial)  # the join's step: bind, then run the filters now due
                    try:
                        if _bind((cand.captures.items(),), bound) is not None:
                            waiting = _settle(cand.filters, bound)
                            extended = None if waiting is None else (bound, waiting)
                    except PredicateTypeError as error:
                        extended = (ERROR, str(error))
            seen[check_against_merge(got, merged(satisfied), has_filters)] += 1
            check_against_merge(extended, merged(lambda: [Conditions(partial, TRUE), *satisfied()]), has_filters)
        assert seen["error"] > 500 and seen["false"] > 500 and seen["later"] > 50 and seen["true"] > 5, seen

    def test_isolated_node_extension(self):
        rng = random.Random(8203)
        seen = {"error": 0, "false": 0, "true": 0, "later": 0, "no boolean": 0}
        for _ in range(3000):
            e = random_domain(rng)
            ctx = a_context(rng)
            pattern = make_policy("p", {"n": (e, None)}, {}).domain
            graph = ingest_trace([{"t": 1, "object": {"id": "o", "attrs": {k: to_json(v) for k, v in ctx.items()}}}])
            ctx = graph.attrs_at("o", 1)
            partial = random_bindings(rng, complete=False, nan=0.1)
            has_filters = bool(pattern.plans["n"].filters)
            try:
                (cands,) = _iso_candidates(pattern, graph).values()
            except PredicateTypeError as error:
                got = (ERROR, str(error))
            else:
                got = None
                if cands:
                    (_, _, _, captures, attrs), = cands
                    bound = dict(partial)
                    try:
                        if _bind((captures.items(),), bound) is not None:
                            waiting = _settle(tuple((f, attrs) for f in pattern.plans["n"].filters), bound)
                            got = None if waiting is None else (bound, waiting)
                    except PredicateTypeError as error:
                        got = (ERROR, str(error))
            seen[check_against_merge(got, merged(lambda: [Conditions(partial, TRUE), satisfy(e, ctx, {})]), has_filters)] += 1
        assert min(seen.values()) > 50, seen


# --- the rules, case by case ----------------------------------------------------


def agree(text, ctx, bindings=None):
    """The ground evaluator, and the plan placed under the bindings, agree
    with the interpreter on one case; returns the interpreter's outcome."""
    e = parse_predicate(text)
    want = reference_outcome(e, ctx, bindings or {})
    check_ground(ground_outcome(e, ctx, bindings or {}), want, not variables_of(e) - (bindings or {}).keys())
    plan = BindingPlan(e)
    got = placed([(plan, ctx)], bindings or {})
    check_against_merge(got, merged(lambda: [Conditions(bindings or {}, TRUE), satisfy(e, ctx, {})]), bool(plan.filters))
    return want


class TestRules:
    def test_missing_attribute_falsifies_before_folding(self):
        assert agree('(1 < "a") && gone', {}) == ("value", False)
        assert agree('(1 < "a") && gone + 1 = 2', {}) == (ERROR, 'ordered comparison needs numbers: 1 < "a"')
        assert agree("gone + 1 > 2", {}) == ("value", False)

    def test_missing_attribute_reaches_the_innermost_boolean_ancestor(self):
        assert agree("!gone", {}) == ("value", False)
        assert agree("gone || true", {}) == ("value", False)
        assert agree("gone = 1 || true", {}) == ("value", True)
        assert agree('x = 1 && (1 < "a" || gone)', {"x": 1}) == ("value", False)

    def test_plan_stops_at_a_missing_capture_in_order(self):
        e = parse_predicate('gone = $X && (1 < "a")')
        assert BindingPlan(e)({}) is None
        assert satisfy(e, {}, {}).is_false
        e = parse_predicate('(1 < "a") && gone = $X')
        with pytest.raises(PredicateTypeError) as got:
            BindingPlan(e)({})
        with pytest.raises(PredicateTypeError) as want:
            satisfy(e, {}, {})
        assert str(got.value) == str(want.value)

    def test_short_circuit_left_to_right_with_flag_checks(self):
        assert agree('false && (1 < "a")', {}) == ("value", False)
        assert agree('true || (1 < "a")', {}) == ("value", True)
        assert agree("true && 5", {}) == (ERROR, "expected a boolean: true && 5")
        assert agree("5 && false", {}) == (ERROR, "expected a boolean: 5 && false")
        assert agree("false || 5", {}) == (ERROR, "expected a boolean: false || 5")
        assert agree("!5", {}) == (ERROR, "expected a boolean: !5")

    def test_type_errors(self):
        assert agree('"a" < 1', {}) == (ERROR, 'ordered comparison needs numbers: "a" < 1')
        assert agree("flag < 1", {"flag": True}) == (ERROR, "ordered comparison needs numbers: true < 1")
        assert agree("1 / x = 1", {"x": 0}) == (ERROR, "division by zero: 1 / 0")
        assert agree("1 in x", {"x": 1}) == (ERROR, "right side of 'in' must be a set: 1 in 1")
        assert agree("$X + 1 > 0", {}, {"X": "a"}) == (ERROR, 'arithmetic needs numbers: "a" + 1')

    def test_two_captures_of_one_variable(self):
        e = parse_predicate("a = $X && b = $X")
        plan = BindingPlan(e)
        assert placed([(plan, {"a": 1, "b": 2})], {}) is None
        assert reduce_conditions(satisfy(e, {"a": 1, "b": 2}, {})).is_false
        agree("a = $X && b = $X", {"a": 1, "b": 2})
        # equal values of two kinds of number: the first capture is kept
        # (the interpreter's extract_bindings keeps the last)
        bound, waiting = placed([(plan, {"a": 1, "b": 1.0})], {})
        assert same(bound["X"], 1) and not waiting
        agree("a = $X && b = $X", {"a": 1, "b": 1.0})
        # a NaN capture differs from every value, itself included
        assert placed([(plan, {"a": float("nan"), "b": 1})], {}) is None
        assert placed([(BindingPlan(parse_predicate("a = $X")), {"a": 1})], {"X": float("nan")}) is None

    def test_which_capture_a_variable_keeps(self):
        """Equal numbers of two kinds bound to one variable on an edge, its
        source and its destination: a match reports the capture of the
        first element in elements() order, node a here, whatever the
        interpreter's merge would keep."""
        p = parse_policy("policy p {\n node a domain: m = $X\n node b domain: k = $X\n edge e: a -> b domain: n = $X\n}")
        preds = [p.domain_preds[elt] for elt in ("e", "a", "b")]
        for n, m, k in [(2, 2.0, 2), (2.0, 2, 2), (2, 2, 2.0), (2.0, 2.0, 2)]:
            graph = ingest_trace(
                [
                    {"t": 1, "object": {"id": "s", "attrs": {"m": m}}},
                    {"t": 1, "object": {"id": "d", "attrs": {"k": k}}},
                    {"t": 1, "event": {"src": "s", "dest": "d", "params": {"n": n}}},
                ]
            )
            event = graph.events[0]
            contexts = (event.params, graph.attrs_at(event.src, event.time), graph.attrs_at(event.dest, event.time))
            satisfied = [satisfy(e, ctx, {}) for e, ctx in zip(preds, contexts)]
            (match,) = find_matches(p, graph)
            assert same(match.bindings["X"], m), (n, m, k)
            assert values_equal(merge_conditions(satisfied).bindings["X"], m)
            assert same(edge_candidate(p.domain, "e", 0, event, graph).captures["X"], m)

    def test_computed_captures_are_compiled(self):
        e = parse_predicate('kind = "a" && $X = level + 1 && (level > 0) = $Y')
        plan = BindingPlan(e)
        assert not plan.filters and plan.may_raise
        assert plan({"kind": "a", "level": 2}) == [("X", 3), ("Y", True)]
        assert plan({"kind": "a"}) is None  # a missing operand falsifies the equality
        with pytest.raises(PredicateTypeError) as got:
            plan({"kind": "a", "level": "high"})
        with pytest.raises(PredicateTypeError) as want:
            satisfy(e, {"kind": "a", "level": "high"}, {})
        assert str(got.value) == str(want.value)
        agree('kind = "a" && $X = level + 1', {"kind": "a", "level": 2.5})

    def test_isolated_node_errors_surface_before_the_join(self):
        """The interpreter raises while listing an isolated node's
        candidates, even where no edge matches and the join never runs."""
        p = parse_policy('policy p {\n node a domain: kind = "x"\n node b\n node n domain: level < 3\n edge e: a -> b\n}')
        graph = ingest_trace(
            [
                {"t": 1, "object": {"id": "o1", "attrs": {"kind": "y"}}},
                {"t": 1, "object": {"id": "o2", "attrs": {}}},
                {"t": 1, "object": {"id": "o3", "attrs": {"level": "high"}}},
                {"t": 2, "event": {"src": "o1", "dest": "o2", "params": {}}},
            ]
        )
        with pytest.raises(PredicateTypeError):
            find_matches(p, graph)

    def test_comparisons_use_values_equal(self):
        assert agree("flag = 1", {"flag": True}) == ("value", False)
        assert agree("flag != 1", {"flag": True}) == ("value", True)
        assert agree("n = 1", {"n": 1.0}) == ("value", True)
        assert agree("s = {1, 2}", {"s": ValueSet([2.0, 1])}) == ("value", True)
        assert agree("$X = true", {}, {"X": 1}) == ("value", False)

    def test_unbound_variable_gives_up_where_the_interpreter_is_open(self):
        assert agree("$X > 1", {}) == ("open", None)
        assert agree("$X > 1 && false", {}) == ("value", False)

    def test_constant_captures_are_compiled(self):
        e = parse_predicate('kind = "a" && 1 = $X && $Y = {1, 2} && $X = 1.0')
        plan = BindingPlan(e)
        assert not plan.may_raise and not plan.filters
        assert plan({"kind": "b"}) is None
        for ctx in ({"kind": "a"}, {}):
            check_against_merge(placed([(plan, ctx)], {}), merged(lambda: [satisfy(e, ctx, {})]), False)
        bound, _ = placed([(plan, {"kind": "a"})], {})
        assert same(bound["X"], 1)  # the first capture

    def test_open_conjunct_is_left_to_the_interpreter(self):
        """A conjunct that keeps a variable under || is a filter: the plan
        never runs it, and the matcher runs it once $X is bound."""
        e = parse_predicate('kind = "a" && ($X = 1 || $X = 2)')
        plan = BindingPlan(e)
        assert not plan.may_raise and [f[0] for f in plan.filters] == [parse_predicate("$X = 1 || $X = 2")]
        assert plan({"kind": "b"}) is None
        assert plan({"kind": "a"}) == []
        assert placed([(plan, {"kind": "a"})], {})[1]  # still waiting
        assert placed([(plan, {"kind": "a"})], {"X": 2}) == ({"X": 2}, ())
        assert placed([(plan, {"kind": "a"})], {"X": 3}) is None
        e = parse_predicate('kind = "a" && (1 < "a" || $X = 1)')
        assert placed([(BindingPlan(e), {"kind": "a"})], {"X": 1}) == (ERROR, 'ordered comparison needs numbers: 1 < "a"')

    def test_captured_variables_are_the_forced_ones(self):
        """A plan's captured variables, which rule R1 reads, are the ones
        the oracle's independent reading of R1 finds forced."""
        rng = random.Random(4410)
        draws = (random_domain, lambda rng: random_bool_expr(rng, depth=3), lambda rng: random_expr(rng, depth=4))
        differences, captured, uncaptured = [], 0, 0
        for i in range(6000):
            e = draws[i % 3](rng)
            got, want = BindingPlan(e).captured, _forced_names(e)
            if got != want:
                differences.append((e, got, want))
            captured += bool(got)
            uncaptured += bool(variables_of(e) - got)
        assert differences == []
        assert captured > 1000 and uncaptured > 1000, (captured, uncaptured)


class TestCompiledFormsOnThePolicy:
    POLICY = """
    policy p {
      node u domain: type = "user" && level = $L
      node f domain: type = "file"
      edge r: u -> f domain: method = "read" req: $L / size > 1
    }
    """

    def test_compiled_once_and_kept(self):
        p = parse_policy(self.POLICY)
        assert p.domain is p.domain
        assert p.domain.plans is p.domain.plans
        assert p.requirement.ground is p.requirement.ground

    def test_a_used_policy_still_pickles(self):
        p = parse_policy(self.POLICY)
        graph = ingest_trace(
            [
                {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "level": 4}}},
                {"t": 1, "object": {"id": "a", "attrs": {"type": "file"}}},
                {"t": 2, "event": {"src": "john", "dest": "a", "params": {"method": "read", "size": 2}}},
            ]
        )
        want = verdict(p, graph)
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and verdict(copy, graph) == want

    def test_requirement_errors_are_the_interpreters(self):
        p = parse_policy(self.POLICY)
        graph = ingest_trace(
            [
                {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "level": 2}}},
                {"t": 1, "object": {"id": "a", "attrs": {"type": "file"}}},
                {"t": 2, "event": {"src": "john", "dest": "a", "params": {"method": "read", "size": 0}}},
            ]
        )
        (m,) = find_matches(p, graph)
        with pytest.raises(PredicateTypeError) as got:
            check_requirement(p, m, graph)
        with pytest.raises(PredicateTypeError) as want:
            evaluate(p.requirement_preds["r"], graph.events[0].params, m.bindings)
        assert str(got.value) == str(want.value)
