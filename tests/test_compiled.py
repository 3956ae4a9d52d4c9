"""Compiled predicates against the tree interpreter they stand in for.

A compiled form may always give up (raise Fallback) and leave the case to
the interpreter; what it must never do is answer differently.  The random
sections draw expressions from the same generators as test_predicates.py,
with contexts that miss some attributes and bindings that miss some
variables.
"""

import pickle
import random

import pytest

from policygraph.matching import (
    FALLBACK,
    SETTLED,
    check_requirement,
    edge_captures,
    find_matches,
    match_graph,
    merge_captures,
    node_captures,
    verdict,
)
from policygraph.policy import make_policy, parse_policy
from policygraph.predicates import (
    Attr,
    BinOp,
    BindingPlan,
    Conditions,
    Const,
    Fallback,
    PredicateTypeError,
    Var,
    bind_captures,
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
    GEN_VALUES,
    VAR_NAMES,
    random_bool_expr,
    random_context,
    random_expr,
    random_policy,
    random_trace_records,
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


def same_conditions(a: Conditions, b: Conditions) -> bool:
    """Both false (whatever bindings they carry), or equal with bindings of
    the same types."""
    if a.is_false or b.is_false:
        return a.is_false and b.is_false
    return (
        a.residual == b.residual
        and a.bindings.keys() == b.bindings.keys()
        and all(same(a.bindings[k], b.bindings[k]) for k in a.bindings)
    )


def reference(thunk):
    try:
        return thunk()
    except PredicateTypeError:
        return ERROR


def random_bindings(rng, complete: bool) -> dict:
    return {v: random_value(rng) for v in VAR_NAMES if complete or rng.random() < 0.5}


def a_context(rng) -> dict:
    return random_context(rng) if rng.random() < 0.5 else typed_context(rng, present=0.7)


# --- ground evaluator ----------------------------------------------------------


def ground_outcome(e, ctx, bindings):
    try:
        return ("value", compile_ground(e)(ctx, bindings))
    except Fallback:
        return ("fallback", None)


def reference_outcome(e, ctx, bindings):
    result = reference(lambda: evaluate(e, ctx, bindings))
    if result == ERROR:
        return (ERROR, None)
    if isinstance(result, Const):
        return ("value", result.value)
    return ("open", None)


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
            if got[0] == "value":
                answered += 1
                assert want[0] == "value" and same(got[1], want[1]), (e, ctx, bindings)
            elif complete:
                # with every variable bound, giving up means the interpreter raises
                assert want[0] == ERROR, (e, ctx, bindings)
            errors += want[0] == ERROR
        assert answered > 800 and errors > 500

    def test_typed_expressions_never_give_up(self):
        rng = random.Random(8103)
        for _ in range(1500):
            e = typed_expr(rng, "flag", depth=4)
            ctx, bindings = typed_context(rng), typed_bindings(rng)
            assert ground_outcome(e, ctx, bindings) == ("value", evaluate(e, ctx, bindings).value)


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


def plan_outcome(plan, ctx):
    try:
        return plan(ctx)
    except Fallback:
        return FALLBACK


class TestBindingPlanAgainstInterpreter:
    def test_single_predicate(self):
        rng = random.Random(8201)
        answered = captured = 0
        for _ in range(4000):
            e = random_domain(rng)
            plan, ctx = BindingPlan(e), a_context(rng)
            want = reference(lambda: reduce_conditions(satisfy(e, ctx, {})))
            got = plan_outcome(plan, ctx)
            if not plan.may_raise:
                assert got is not FALLBACK and want != ERROR, (e, ctx)
            if got is FALLBACK:
                continue
            answered += 1
            assert want != ERROR, (e, ctx)
            if got is None:
                assert want.is_false, (e, ctx)
            else:
                captured += bool(got)
                assert same_conditions(bind_captures(SETTLED, [got]), want), (e, ctx, got, want)
        assert answered > 1500 and captured > 200

    def test_edges_and_monitor_extension(self):
        """Three domains at one event: the batch candidate, and merging into
        settled conditions already made, against merge_conditions of
        satisfy()."""
        rng = random.Random(8202)
        answered = 0
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
            contexts = (event.params, graph.src_attr(event), graph.dest_attr(event))
            partial = Conditions(random_bindings(rng, complete=False), parse_predicate("true"))

            def satisfied():
                return [satisfy(e, ctx, {}) for e, ctx in zip(preds, contexts)]

            batch = reference(lambda: merge_conditions(satisfied()))
            extended = reference(lambda: merge_conditions([partial, *satisfied()]))
            found = edge_captures(pattern, "e", event, graph)
            if found is FALLBACK:
                continue
            answered += 1
            assert batch != ERROR and extended != ERROR, preds
            if found is None:
                assert batch.is_false and extended.is_false, preds
                continue
            got = bind_captures(SETTLED, (found[0] + found[1], found[2]))
            assert same_conditions(got, batch), (preds, contexts, found)
            assert same_conditions(merge_captures(partial, found), extended), (preds, contexts, found)
        assert answered > 900

    def test_isolated_node_extension(self):
        rng = random.Random(8203)
        for _ in range(3000):
            e = random_domain(rng)
            ctx = a_context(rng)
            conds = Conditions(random_bindings(rng, complete=False), parse_predicate("true"))
            found = node_captures(BindingPlan(e), ctx)
            if found is FALLBACK:
                continue
            alone = satisfy(e, ctx, {})
            assert (found is None) == alone.is_false, (e, ctx)
            if found is not None:
                want = merge_conditions([conds, alone])
                assert same_conditions(merge_captures(conds, found), want), (e, ctx)


# --- fully bound checks (match_graph) -------------------------------------------


def tree_match_graph(pattern, edge_events, isolated_objects, graph, bindings):
    """match_graph as the interpreter alone computes it."""
    for edge_id, spec in pattern.graph.edges.items():
        event = graph.events[edge_events[edge_id]]
        merged = merge_conditions(
            [
                satisfy(pattern.preds[edge_id], event.params, bindings),
                satisfy(pattern.preds[spec.src], graph.src_attr(event), bindings),
                satisfy(pattern.preds[spec.dest], graph.dest_attr(event), bindings),
            ]
        )
        if not merged.is_true:
            return False
    for node_id in pattern.graph.isolated_nodes():
        obj_id, instant = isolated_objects[node_id]
        if not satisfy(pattern.preds[node_id], graph.attrs_at(obj_id, instant), bindings).is_true:
            return False
    return True


class TestMatchGraph:
    def test_random_assignments_and_bindings(self):
        """Domain and requirement patterns at random assignments, under
        complete, partial and not-a-number bindings."""
        rng = random.Random(8301)
        holds = 0
        for i in range(400):
            p = random_policy(rng, f"g{i}")
            graph = ingest_trace(random_trace_records(rng))
            edges = sorted(p.graph.edges)
            if len(graph.events) < len(edges):
                continue
            for pattern in (p.domain, p.requirement):
                for _ in range(4):
                    edge_events = dict(zip(edges, rng.sample(range(len(graph.events)), len(edges))))
                    isolated = {}
                    for node_id in p.graph.isolated_nodes():
                        obj_id = rng.choice(graph.object_ids())
                        isolated[node_id] = (obj_id, rng.choice(graph.instants(obj_id)))
                    pool = GEN_VALUES + [1.0, float("nan")]
                    bindings = {v: rng.choice(pool) for v in p.variables if rng.random() < 0.8}
                    args = (pattern, edge_events, isolated, graph, bindings)
                    got = reference(lambda: match_graph(*args))
                    assert got == reference(lambda: tree_match_graph(*args)), (p, args)
                    holds += got is True
        assert holds > 100


# --- the rules, case by case ----------------------------------------------------


def agree(text, ctx, bindings=None):
    """The ground evaluator and the plan agree with the interpreter on one
    case; returns the interpreter's outcome."""
    e = parse_predicate(text)
    want = reference_outcome(e, ctx, bindings or {})
    got = ground_outcome(e, ctx, bindings or {})
    if got[0] == "value":
        assert want[0] == "value" and same(got[1], want[1]), (got, want)
    elif not variables_of(e) - (bindings or {}).keys():
        assert want[0] == ERROR, (got, want)
    if not bindings:
        plan_got = plan_outcome(BindingPlan(e), ctx)
        plan_want = reference(lambda: reduce_conditions(satisfy(e, ctx, {})))
        if plan_got is None:
            assert plan_want != ERROR and plan_want.is_false
        elif plan_got is not FALLBACK:
            assert same_conditions(bind_captures(SETTLED, [plan_got]), plan_want)
    return want


class TestRules:
    def test_missing_attribute_falsifies_before_folding(self):
        assert agree('(1 < "a") && gone', {}) == ("value", False)
        assert agree('(1 < "a") && gone + 1 = 2', {}) == (ERROR, None)
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
        with pytest.raises(Fallback):
            BindingPlan(e)({})
        with pytest.raises(PredicateTypeError):
            satisfy(e, {}, {})

    def test_short_circuit_left_to_right_with_flag_checks(self):
        assert agree('false && (1 < "a")', {}) == ("value", False)
        assert agree('true || (1 < "a")', {}) == ("value", True)
        assert agree("true && 5", {}) == (ERROR, None)
        assert agree("5 && false", {}) == (ERROR, None)
        assert agree("false || 5", {}) == (ERROR, None)
        assert agree("!5", {}) == (ERROR, None)

    def test_type_errors(self):
        assert agree('"a" < 1', {}) == (ERROR, None)
        assert agree("flag < 1", {"flag": True}) == (ERROR, None)
        assert agree("1 / x = 1", {"x": 0}) == (ERROR, None)
        assert agree("1 in x", {"x": 1}) == (ERROR, None)
        assert agree("$X + 1 > 0", {}, {"X": "a"}) == (ERROR, None)

    def test_two_captures_of_one_variable(self):
        e = parse_predicate("a = $X && b = $X")
        found = BindingPlan(e)({"a": 1, "b": 2})
        assert bind_captures(SETTLED, [found]).is_false
        assert reduce_conditions(satisfy(e, {"a": 1, "b": 2}, {})).is_false
        agree("a = $X && b = $X", {"a": 1, "b": 2})
        # equal values of two kinds of number: the last capture wins, as in extract_bindings
        found = BindingPlan(e)({"a": 1, "b": 1.0})
        assert same(bind_captures(SETTLED, [found]).bindings["X"], 1.0)
        agree("a = $X && b = $X", {"a": 1, "b": 1.0})

    def test_which_capture_a_variable_keeps(self):
        """Equal numbers of two kinds bound to one variable on an edge, its
        source and its destination: the batch candidate and merge_captures()
        keep the value the interpreter keeps."""
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
            contexts = (event.params, graph.src_attr(event), graph.dest_attr(event))
            satisfied = [satisfy(e, ctx, {}) for e, ctx in zip(preds, contexts)]
            (match,) = find_matches(p, graph)
            assert same(match.bindings["X"], merge_conditions(satisfied).bindings["X"]), (n, m, k)
            found = edge_captures(p.domain, "e", event, graph)
            assert same_conditions(merge_captures(SETTLED, found), merge_conditions([SETTLED, *satisfied])), (n, m, k)

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

    def test_open_conjunct_is_left_to_the_interpreter(self):
        e = parse_predicate('kind = "a" && ($X = 1 || $X = 2)')
        plan = BindingPlan(e)
        assert plan.may_raise
        assert plan({"kind": "b"}) is None
        with pytest.raises(Fallback):
            plan({"kind": "a"})


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
