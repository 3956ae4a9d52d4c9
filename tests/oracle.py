"""Independent reference implementations used to cross-check the engine.

Everything here is coded directly from the documented semantics in a
deliberately different style from the library: one recursive evaluator with
explicit short-circuiting and poison checks, and brute-force enumeration of
candidate matches over a finite value pool.  Tests treat disagreement
between the engine and these functions as an engine bug.

Also home to the seeded random generators (expressions, contexts, policies,
traces) shared by the differential test files, to a naive reference
renderer of the text report, to a naive evaluator of policy expressions,
and to naive references for bounded coverage and containment.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from typing import Any, Iterator, Mapping

from policygraph.algebra import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESSER,
    Always,
    Atom,
    Conjunction,
    ContainmentResult,
    CoverageResult,
    Disjunction,
    PolicyExpr,
    Reversal,
    UniverseBounds,
)
from policygraph.matching import match_pattern
from policygraph.policy import BasicGraph, PatternGraph, PolicyGraph, domain_of, make_policy, requirement_of
from policygraph.predicates import Attr, BinOp, Const, Expr, Not, Var
from policygraph.system import SystemGraph, ingest_trace
from policygraph.values import ValueSet, canonical, to_json


class OracleTypeError(Exception):
    """Mirror of the engine's PredicateTypeError."""


BOOLEAN_OPS = {"&&", "||", "=", "!=", "<", ">", "<=", ">=", "in", "subset", "subseteq"}


# --- independent value equality -------------------------------------------


def same_value(a: Any, b: Any) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        return _set_le(a, b) and _set_le(b, a)
    return False


def _set_member(v: Any, s: ValueSet) -> bool:
    return any(same_value(v, m) for m in s)


def _set_le(a: ValueSet, b: ValueSet) -> bool:
    return all(_set_member(m, b) for m in a)


def _is_num(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# --- independent evaluator -------------------------------------------------


def _mentions_missing(e: Expr, ctx: Mapping[str, Any]) -> bool:
    """Does e reference an absent attribute outside any nested boolean node?

    A nested boolean node absorbs its own missing names (it will evaluate to
    false itself), so only the non-boolean region directly under the caller
    counts.
    """
    if isinstance(e, Attr):
        return e.name not in ctx
    if isinstance(e, (Const, Var)):
        return False
    if isinstance(e, Not):
        return False
    if isinstance(e, BinOp) and e.op in BOOLEAN_OPS:
        return False
    return _mentions_missing(e.left, ctx) or _mentions_missing(e.right, ctx)


def _flag(v: Any) -> bool:
    if not isinstance(v, bool):
        raise OracleTypeError(f"expected a boolean, got {v!r}")
    return v


def _eval(e: Expr, ctx: Mapping[str, Any], bindings: Mapping[str, Any]) -> Any:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Attr):
        return ctx[e.name]
    if isinstance(e, Var):
        if e.name not in bindings:
            raise AssertionError(f"oracle evaluated with unbound ${e.name}")
        return bindings[e.name]
    if isinstance(e, Not):
        if _mentions_missing(e.operand, ctx):
            return False
        return not _flag(_eval(e.operand, ctx, bindings))
    if not isinstance(e, BinOp):
        raise AssertionError(f"not an expression: {e!r}")
    if e.op in BOOLEAN_OPS:
        if _mentions_missing(e.left, ctx) or _mentions_missing(e.right, ctx):
            return False
    if e.op == "&&":
        if not _flag(_eval(e.left, ctx, bindings)):
            return False
        return _flag(_eval(e.right, ctx, bindings))
    if e.op == "||":
        if _flag(_eval(e.left, ctx, bindings)):
            return True
        return _flag(_eval(e.right, ctx, bindings))
    a = _eval(e.left, ctx, bindings)
    b = _eval(e.right, ctx, bindings)
    if e.op == "=":
        return same_value(a, b)
    if e.op == "!=":
        return not same_value(a, b)
    if e.op in ("<", ">", "<=", ">="):
        if not (_is_num(a) and _is_num(b)):
            raise OracleTypeError("ordered comparison needs numbers")
        return {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}[e.op]
    if e.op == "in":
        if not isinstance(b, ValueSet):
            raise OracleTypeError("'in' needs a set on the right")
        return _set_member(a, b)
    if e.op in ("subset", "subseteq"):
        if not (isinstance(a, ValueSet) and isinstance(b, ValueSet)):
            raise OracleTypeError(f"'{e.op}' needs sets")
        if e.op == "subseteq":
            return _set_le(a, b)
        return _set_le(a, b) and not _set_le(b, a)
    if e.op in ("intersect", "union"):
        if not (isinstance(a, ValueSet) and isinstance(b, ValueSet)):
            raise OracleTypeError(f"'{e.op}' needs sets")
        if e.op == "intersect":
            return ValueSet(m for m in a if _set_member(m, b))
        return ValueSet(list(a) + list(b))
    if e.op in ("+", "-", "*", "/"):
        if not (_is_num(a) and _is_num(b)):
            raise OracleTypeError("arithmetic needs numbers")
        if e.op == "+":
            value = a + b
        elif e.op == "-":
            value = a - b
        elif e.op == "*":
            value = a * b
        elif b == 0:
            raise OracleTypeError("division by zero")
        else:
            value = a / b
        if math.isnan(value) and not (math.isnan(a) or math.isnan(b)):
            raise OracleTypeError("arithmetic on infinity has no value")
        return value
    raise AssertionError(f"unknown operator {e.op!r}")


def oracle_eval(e: Expr, ctx: Mapping[str, Any], bindings: Mapping[str, Any]) -> Any:
    """Evaluate a fully-bindable expression to a Python value.

    Missing attributes falsify their innermost boolean ancestor; if the
    poison reaches the root (bare attribute, arithmetic root) the whole
    predicate is false.
    """
    if _mentions_missing(e, ctx):
        return False
    return _eval(e, ctx, bindings)


# --- brute-force matching ---------------------------------------------------


def _oracle_attrs_at(graph: SystemGraph, obj_id: str, t: int) -> Mapping[str, Any]:
    best_t, best = None, None
    for snap in graph.objects():
        if snap.id == obj_id and snap.time <= t and (best_t is None or snap.time >= best_t):
            best_t, best = snap.time, snap.attrs
    if best is None:
        raise AssertionError(f"{obj_id} has no snapshot at or before {t}")
    return best


def _object_births(graph: SystemGraph) -> dict[str, int]:
    births: dict[str, int] = {}
    for snap in graph.objects():
        if snap.id not in births or snap.time < births[snap.id]:
            births[snap.id] = snap.time
    return births


def value_pool(policy: PolicyGraph, graph: SystemGraph) -> list[Any]:
    """Every value a forced binding could take: trace values + policy constants."""
    pool: list[Any] = []

    def add(v: Any) -> None:
        if not any(same_value(v, p) for p in pool):
            pool.append(v)

    def consts(e: Expr) -> None:
        if isinstance(e, Const):
            add(e.value)
            if isinstance(e.value, ValueSet):
                for m in e.value:
                    add(m)
        elif isinstance(e, Not):
            consts(e.operand)
        elif isinstance(e, BinOp):
            consts(e.left)
            consts(e.right)

    for snap in graph.objects():
        for v in snap.attrs.values():
            add(v)
    for event in graph.events:
        for v in event.params.values():
            add(v)
    for pred in list(policy.domain_preds.values()) + list(policy.requirement_preds.values()):
        consts(pred)
    return pool


def oracle_matches(policy: PolicyGraph, graph: SystemGraph, including: int | None = None) -> set[tuple]:
    """Brute-force the match set; returns keys comparable with Match.key().

    Enumerates every injective edge-to-event map, every consistent
    node-object assignment, every isolated-node placement, and every
    complete binding over the finite value pool, then tests all domain
    predicates with the independent evaluator.  With `including`, only
    the maps that assign the event at that index to some edge.
    """
    pool = value_pool(policy, graph)
    return brute_matches(policy.graph, policy.domain_preds, policy.variables, pool, graph, including)


def brute_matches(
    g: BasicGraph,
    preds: Mapping[str, Expr],
    variables: frozenset[str],
    pool: list[Any],
    graph: SystemGraph,
    including: int | None = None,
) -> set[tuple]:
    """The keys of every assignment of the basic graph `g` at which every
    predicate of `preds` holds, under every binding of `variables` over
    `pool`: oracle_matches for any predicates, a policy's requirements
    included."""
    edge_ids = sorted(g.edges)
    iso_ids = sorted(g.isolated_nodes())
    variables = sorted(variables)
    births = _object_births(graph)
    event_indexes = range(len(graph.events))
    found: set[tuple] = set()

    for picked in itertools.permutations(event_indexes, len(edge_ids)):
        if including is not None and including not in picked:
            continue
        assignment = dict(zip(edge_ids, picked))
        node_objects: dict[str, str] = {}
        consistent = True
        for edge_id, idx in assignment.items():
            event = graph.events[idx]
            spec = g.edges[edge_id]
            for node, obj in ((spec.src, event.src), (spec.dest, event.dest)):
                if node_objects.setdefault(node, obj) != obj:
                    consistent = False
        if not consistent or len(set(node_objects.values())) != len(node_objects):
            continue
        used = set(node_objects.values())
        iso_choices: list[list[tuple[str, int]]] = []
        for _ in iso_ids:
            iso_choices.append(
                [
                    (obj, t)
                    for obj, birth in sorted(births.items())
                    for t in range(birth, graph.horizon + 1)
                ]
            )
        for iso_pick in itertools.product(*iso_choices):
            iso_objs = [obj for obj, _ in iso_pick]
            if len(set(iso_objs)) != len(iso_objs) or used & set(iso_objs):
                continue
            iso = dict(zip(iso_ids, iso_pick))
            for values in itertools.product(pool, repeat=len(variables)):
                bindings = dict(zip(variables, values))
                if _holds_everywhere(g, preds, graph, assignment, iso, node_objects, bindings):
                    found.add(
                        (
                            tuple(sorted(assignment.items())),
                            tuple(sorted(iso.items())),
                            tuple(sorted((v, canonical(b)) for v, b in bindings.items())),
                        )
                    )
    return found


def _holds_everywhere(g, preds, graph, assignment, iso, node_objects, bindings) -> bool:
    for edge_id, idx in assignment.items():
        event = graph.events[idx]
        spec = g.edges[edge_id]
        try:
            if oracle_eval(preds[edge_id], event.params, bindings) is not True:
                return False
            src_attrs = _oracle_attrs_at(graph, node_objects[spec.src], event.time)
            dest_attrs = _oracle_attrs_at(graph, node_objects[spec.dest], event.time)
            if oracle_eval(preds[spec.src], src_attrs, bindings) is not True:
                return False
            if oracle_eval(preds[spec.dest], dest_attrs, bindings) is not True:
                return False
        except OracleTypeError:
            return False
    for node_id, (obj, t) in iso.items():
        try:
            if oracle_eval(preds[node_id], _oracle_attrs_at(graph, obj, t), bindings) is not True:
                return False
        except OracleTypeError:
            return False
    return True


def oracle_failing(policy: PolicyGraph, graph: SystemGraph) -> set[tuple]:
    """The brute-forced matches (as keys) that fail some requirement."""
    g = policy.graph
    failing = set()
    for key in oracle_matches(policy, graph):
        edges, iso, bound = dict(key[0]), dict(key[1]), dict(key[2])
        bindings = {v: _uncanonical(c) for v, c in bound.items()}
        if any(oracle_eval(policy.requirement_preds[node_id], {}, bindings) is not True for node_id in g.nodes) or any(
            oracle_eval(policy.requirement_preds[edge_id], graph.events[idx].params, bindings) is not True
            for edge_id, idx in edges.items()
        ):
            failing.add(key)
    return failing


def oracle_outcomes(policy: PolicyGraph, graph: SystemGraph, including: int | None = None) -> dict[tuple, bool | None]:
    """Per brute-forced match (as key; see oracle_matches for `including`):
    whether every requirement holds, or None where one raises or gives no
    boolean, since the engine then raises whatever the others give."""
    g = policy.graph
    outcomes: dict[tuple, bool | None] = {}
    for key in oracle_matches(policy, graph, including):
        edges, bindings = dict(key[0]), {v: _uncanonical(c) for v, c in key[2]}
        contexts = [(node_id, {}) for node_id in g.nodes] + [(e, graph.events[i].params) for e, i in edges.items()]
        try:
            values = [oracle_eval(policy.requirement_preds[elt], ctx, bindings) for elt, ctx in contexts]
        except OracleTypeError:
            values = [None]
        outcomes[key] = None if any(not isinstance(v, bool) for v in values) else all(values)
    return outcomes


def oracle_verdict(policy: PolicyGraph, graph: SystemGraph) -> bool:
    """Upheld iff every brute-forced match satisfies every requirement."""
    return not oracle_failing(policy, graph)


def reference_eval_policy_expr(e: PolicyGraph | PolicyExpr, graph: SystemGraph) -> bool:
    """Whether a composite policy is upheld, by the per-match semantics of
    policygraph.algebra, with nothing remembered between atoms: every atom
    is brute-forced again each time it occurs."""

    def outcomes(e) -> dict[tuple, bool]:
        if isinstance(e, PolicyGraph):
            e = Atom(e)
        if isinstance(e, Atom):
            p = e.policy
            shape = (p.graph.signature(), tuple(sorted(p.variables)))
            failing = oracle_failing(p, graph)
            return {(shape, key): key not in failing for key in oracle_matches(p, graph)}
        if isinstance(e, Always):
            return {}
        if isinstance(e, Reversal):
            return {key: not value for key, value in outcomes(e.operand).items()}
        if isinstance(e, (Conjunction, Disjunction)):
            children = [outcomes(c) for c in e.operands]
            combine = all if isinstance(e, Conjunction) else any
            keys = set().union(*children)
            return {key: combine(child[key] for child in children if key in child) for key in keys}
        raise TypeError(f"not a policy expression: {e!r}")

    return all(outcomes(e).values())


def _uncanonical(c: tuple) -> Any:
    kind, payload = c
    if kind == "num":
        return int(payload) if float(payload).is_integer() else payload
    if kind == "set":
        return ValueSet(_uncanonical(m) for m in payload)
    return payload


# --- seeded random generators ------------------------------------------------

ATTR_NAMES = ["kind", "level", "size", "tags", "owner"]
VAR_NAMES = ["X", "Y", "Z"]


def random_scalar(rng: random.Random) -> Any:
    choice = rng.randrange(4)
    if choice == 0:
        return rng.choice(["red", "green", "blue"])
    if choice == 1:
        return rng.choice([True, False])
    if choice == 2:
        return rng.randrange(-3, 7)
    return rng.choice([0.5, 1.5, 2.0])


def random_value(rng: random.Random, allow_set: bool = True) -> Any:
    if allow_set and rng.random() < 0.25:
        return ValueSet(random_scalar(rng) for _ in range(rng.randrange(3)))
    return random_scalar(rng)


def random_context(rng: random.Random, names=ATTR_NAMES) -> dict[str, Any]:
    return {n: random_value(rng) for n in names if rng.random() < 0.7}


def random_expr(rng: random.Random, depth: int = 4, attrs=ATTR_NAMES, variables=VAR_NAMES) -> Expr:
    """Random predicate tree; leaves are constants, attributes, variables."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.5:
            return Const(random_value(rng))
        if roll < 0.8:
            return Attr(rng.choice(attrs))
        return Var(rng.choice(variables))
    if rng.random() < 0.15:
        return Not(random_expr(rng, depth - 1, attrs, variables))
    op = rng.choice(
        ["&&", "||", "=", "!=", "<", ">", "<=", ">=", "in",
         "subset", "subseteq", "+", "-", "*", "/", "intersect", "union"]
    )
    return BinOp(
        op,
        random_expr(rng, depth - 1, attrs, variables),
        random_expr(rng, depth - 1, attrs, variables),
    )


def random_bool_expr(rng: random.Random, depth: int = 3, attrs=ATTR_NAMES, variables=VAR_NAMES) -> Expr:
    """Random boolean-rooted predicate (comparison or connective at the root)."""
    if depth <= 0 or rng.random() < 0.3:
        op = rng.choice(["=", "!=", "<", ">", "<=", ">=", "in"])
        return BinOp(
            op,
            random_expr(rng, 1, attrs, variables),
            random_expr(rng, 1, attrs, variables),
        )
    roll = rng.random()
    if roll < 0.2:
        return Not(random_bool_expr(rng, depth - 1, attrs, variables))
    op = "&&" if roll < 0.6 else "||"
    return BinOp(
        op,
        random_bool_expr(rng, depth - 1, attrs, variables),
        random_bool_expr(rng, depth - 1, attrs, variables),
    )


# --- type-disciplined generator ---------------------------------------------
#
# Expressions from random_expr freely mix kinds, so folding them can raise
# type errors (itself worth testing).  The typed generator below never
# produces a type error on any evaluation path, which lets properties like
# fold/substitution commutation be asserted as strict equalities.

ATTR_TYPES = {
    "kind": "text",
    "owner": "text",
    "level": "num",
    "size": "num",
    "tags": "set",
    "active": "flag",
}
VAR_TYPES = {"X": "num", "Y": "text", "Z": "set"}


def _typed_const(rng: random.Random, want: str) -> Any:
    if want == "num":
        return rng.choice([0, 1, 2, 5, 0.5, 7])
    if want == "text":
        return rng.choice(["red", "green", "blue"])
    if want == "flag":
        return rng.choice([True, False])
    return ValueSet(rng.choice([["red"], [1, 2], [], [True], ["blue", 5]]))


def typed_expr(rng: random.Random, want: str, depth: int) -> Expr:
    """Random expression guaranteed to evaluate without type errors."""
    attrs = [a for a, k in ATTR_TYPES.items() if k == want]
    variables = [v for v, k in VAR_TYPES.items() if k == want]
    if depth <= 0 or want == "text" or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.3 and attrs:
            return Attr(rng.choice(attrs))
        if roll < 0.5 and variables:
            return Var(rng.choice(variables))
        return Const(_typed_const(rng, want))
    if want == "num":
        op = rng.choice(["+", "-", "*"])  # '/' can divide by zero; tested by hand
        return BinOp(op, typed_expr(rng, "num", depth - 1), typed_expr(rng, "num", depth - 1))
    if want == "set":
        op = rng.choice(["intersect", "union"])
        return BinOp(op, typed_expr(rng, "set", depth - 1), typed_expr(rng, "set", depth - 1))
    # want == "flag"
    roll = rng.random()
    if roll < 0.25:
        op = rng.choice(["&&", "||"])
        return BinOp(op, typed_expr(rng, "flag", depth - 1), typed_expr(rng, "flag", depth - 1))
    if roll < 0.35:
        return Not(typed_expr(rng, "flag", depth - 1))
    if roll < 0.55:
        op = rng.choice(["<", ">", "<=", ">="])
        return BinOp(op, typed_expr(rng, "num", depth - 1), typed_expr(rng, "num", depth - 1))
    if roll < 0.75:
        kind = rng.choice(["num", "text", "set", "flag"])
        op = rng.choice(["=", "!="])
        return BinOp(op, typed_expr(rng, kind, depth - 1), typed_expr(rng, kind, depth - 1))
    if roll < 0.85:
        member = rng.choice(["num", "text"])
        return BinOp("in", typed_expr(rng, member, depth - 1), typed_expr(rng, "set", depth - 1))
    op = rng.choice(["subset", "subseteq"])
    return BinOp(op, typed_expr(rng, "set", depth - 1), typed_expr(rng, "set", depth - 1))


def typed_context(rng: random.Random, present: float = 0.8) -> dict[str, Any]:
    """Context whose present attributes always carry their scheduled kind."""
    return {
        name: _typed_const(rng, kind)
        for name, kind in ATTR_TYPES.items()
        if rng.random() < present
    }


def typed_bindings(rng: random.Random, names=None) -> dict[str, Any]:
    chosen = VAR_TYPES if names is None else {n: VAR_TYPES[n] for n in names}
    return {name: _typed_const(rng, kind) for name, kind in chosen.items()}


# --- random policies and traces (for differential matching tests) -----------

GEN_ATTRS = ["kind", "level"]
GEN_PARAMS = ["act", "grade"]
GEN_VALUES = ["alpha", "beta", 1, 2]


def _binding_conjunct(rng: random.Random, var: str, names) -> Expr:
    name = rng.choice(names)
    return BinOp("=", Attr(name), Var(var)) if rng.random() < 0.5 else BinOp("=", Var(var), Attr(name))


def _domain_clause(rng: random.Random, names, values=GEN_VALUES) -> Expr:
    name = rng.choice(names)
    value = Const(rng.choice(values))
    op = rng.choice(["=", "!="])
    return BinOp(op, Attr(name), value)


def _filter_conjunct(rng: random.Random, var: str, variables, names, values) -> Expr:
    """A conjunct that reads $var but is no capture of it: `attr != $V`,
    `!(attr = $V)`, `attr = $V || attr = c`, or, with a second variable,
    `$V = $W` or `$V != $W`."""
    attr, v = Attr(rng.choice(names)), Var(var)
    others = [w for w in variables if w != var]
    roll = rng.randrange(5 if others else 3)
    if roll == 0:
        return BinOp("!=", attr, v)
    if roll == 1:
        return Not(BinOp("=", attr, v))
    if roll == 2:
        return BinOp("||", BinOp("=", attr, v), BinOp("=", attr, Const(rng.choice(values))))
    return BinOp("=" if roll == 3 else "!=", v, Var(rng.choice(others)))


def random_policy(
    rng: random.Random,
    name: str,
    values=GEN_VALUES,
    parallel: bool = False,
    attrs=GEN_ATTRS,
    params=GEN_PARAMS,
    lone_node: bool = False,
    filters: bool = False,
    keyed: bool = False,
) -> PolicyGraph:
    """Small random policy: 1-2 edges or an edge plus an isolated node,
    0-2 variables.  With `parallel`, the two edges of the two-edge shape
    both run n1 -> n2, and n3 is isolated.  With `lone_node`, a fourth
    shape is drawn too: one isolated node.  Node predicates name `attrs`,
    edge predicates `params`.  With `filters`, one element's domain gets
    one more conjunct that reads a variable without binding it (see
    _filter_conjunct), on an element other than the variable's host where
    there is one.

    With `keyed`, the shape is instead one of _keyed_policy's.

    Every variable is bound by an `attr = $v` conjunct on some domain
    predicate's top spine, so the result always passes validation and the
    oracle's finite pool covers all bindings.
    """
    if keyed:
        return _keyed_policy(rng, name, values, attrs, params)
    n_vars = rng.randrange(3)
    variables = [f"V{i}" for i in range(n_vars)]
    # 0: one edge, 1: two edges, 2: edge + isolated, 3: one isolated node
    shape = rng.randrange(4 if lone_node else 3)
    node_ids = ["n1", "n2"]
    edge_ends = {"e1": ("n1", "n2")}
    if shape == 3:
        node_ids, edge_ends = ["n1"], {}
    elif shape == 1:
        node_ids.append("n3")
        edge_ends["e2"] = ("n1", "n2") if parallel else (rng.choice(["n1", "n2"]), "n3")
    elif shape == 2:
        node_ids.append("n3")

    elements = node_ids + sorted(edge_ends)
    domains: dict[str, Expr] = {}
    for elt in elements:
        is_edge = elt.startswith("e")
        names = params if is_edge else attrs
        clause: Expr | None = None
        if rng.random() < 0.45:
            clause = _domain_clause(rng, names, values)
        if rng.random() < 0.2 and clause is not None:
            clause = BinOp("&&", clause, _domain_clause(rng, names, values))
        domains[elt] = clause if clause is not None else Const(True)
    for i, var in enumerate(variables):
        host = elements[i % len(elements)]
        host_names = params if host.startswith("e") else attrs
        domains[host] = BinOp("&&", domains[host], _binding_conjunct(rng, var, host_names))
    if filters and variables:
        var = rng.choice(variables)
        host = elements[variables.index(var) % len(elements)]
        elt = rng.choice([e for e in elements if e != host] or elements)
        names = params if elt.startswith("e") else attrs
        domains[elt] = BinOp("&&", domains[elt], _filter_conjunct(rng, var, variables, names, values))

    requirements: dict[str, Expr] = {}
    for elt in elements:
        roll = rng.random()
        if roll < 0.4:
            requirements[elt] = Const(True)
        elif roll < 0.7 and elt.startswith("e"):
            requirements[elt] = _domain_clause(rng, params, values)
        elif variables:
            var = rng.choice(variables)
            requirements[elt] = BinOp("=", Var(var), Const(rng.choice(values)))
        else:
            requirements[elt] = Const(rng.random() < 0.8)

    return make_policy(
        name,
        nodes={n: (domains[n], requirements[n]) for n in node_ids},
        edges={
            e: (src, dest, domains[e], requirements[e])
            for e, (src, dest) in edge_ends.items()
        },
    )


# Trace values whose kinds mix: 1 and 1.0 are one value, -0.0 and 0 are
# one, and true and "1" differ from both.
MIXED_VALUES = [1, 1.0, True, "1", -0.0, 0]


def _keyed_policy(rng: random.Random, name: str, values, attrs, params) -> PolicyGraph:
    """Two or three edges that share nodes.  The first two edges capture
    $V0 and $V1, each on itself or an endpoint, and the last edge may
    capture $V0 again.  The requirement, on one edge, is `$A != $B` or
    `$A = $B` across edges, or an || of it with a test of a parameter,
    `$A < $B` (which raises on values that are no numbers) or both;
    sometimes a second edge has a requirement too.  Some policies get a domain filter, `$A != $B` or the
    raising `$A < $B`.  These are the shapes whose keys a Monitor's
    lookup is built from, and the ones where it must not be used."""
    n_edges = rng.choice([2, 3])
    ends = {"e1": ("n1", "n2")}
    ends["e2"] = rng.choice([("n1", "n3"), ("n3", "n2"), ("n1", "n2"), ("n2", "n1")])
    if n_edges == 3:
        ends["e3"] = rng.choice([("n1", "n3"), ("n3", "n1"), ("n2", "n3"), ("n1", "n2")])
    node_ids = sorted({n for pair in ends.values() for n in pair})
    edge_ids = sorted(ends)
    elements = node_ids + edge_ids
    domains: dict[str, Expr] = {}
    for elt in elements:
        names = params if elt.startswith("e") else attrs
        domains[elt] = _domain_clause(rng, names, values) if rng.random() < 0.3 else Const(True)

    def capture(var: str, edge_id: str) -> None:
        elt = rng.choice([edge_id, *ends[edge_id]])
        domains[elt] = BinOp("&&", domains[elt], _binding_conjunct(rng, var, params if elt.startswith("e") else attrs))

    variables = ["V0", "V1"]
    capture("V0", "e1")
    capture("V1", "e2")
    if rng.random() < 0.5:
        capture("V0", edge_ids[-1])

    def pair() -> tuple[Var, Var]:
        a, b = rng.sample(variables, 2)
        return Var(a), Var(b)

    operands: list[Expr] = [BinOp("!=" if rng.random() < 0.75 else "=", *pair())]
    if rng.random() < 0.4:
        operands.append(_domain_clause(rng, params, values))
    if rng.random() < 0.2:
        operands.append(BinOp("<", *pair()))
    rng.shuffle(operands)
    requirement = operands[0]
    for operand in operands[1:]:
        requirement = BinOp("||", requirement, operand)
    requirements: dict[str, Expr] = {elt: Const(True) for elt in elements}
    requirements[rng.choice(edge_ids)] = requirement
    if rng.random() < 0.15:
        other = rng.choice([e for e in edge_ids if requirements[e] == Const(True)])
        requirements[other] = BinOp("!=", Var(rng.choice(variables)), Const(rng.choice(values)))
    if rng.random() < 0.3:
        elt = rng.choice(elements)
        domains[elt] = BinOp("&&", domains[elt], BinOp(rng.choice(["!=", "<"]), *pair()))
    return make_policy(
        name,
        nodes={n: (domains[n], requirements[n]) for n in node_ids},
        edges={e: (*ends[e], domains[e], requirements[e]) for e in edge_ids},
    )


def random_trace_records(
    rng: random.Random, n_objects: int = 3, n_events: int = 4, values=GEN_VALUES
) -> list[dict]:
    """Trace records over the same small vocabulary the policies draw from."""
    ids = [f"o{i}" for i in range(1, n_objects + 1)]
    records = [
        {
            "t": 1,
            "object": {
                "id": obj,
                "attrs": {name: rng.choice(values) for name in GEN_ATTRS if rng.random() < 0.85},
            },
        }
        for obj in ids
    ]
    t = 1
    for _ in range(rng.randrange(1, n_events + 1)):
        t += rng.randrange(2)
        src, dest = rng.choice(ids), rng.choice(ids)
        params = {name: rng.choice(values) for name in GEN_PARAMS if rng.random() < 0.85}
        records.append({"t": t, "event": {"src": src, "dest": dest, "params": params}})
        if rng.random() < 0.25:
            t += 1
            obj = rng.choice(ids)
            records.append(
                {
                    "t": t,
                    "object": {
                        "id": obj,
                        "attrs": {name: rng.choice(values) for name in GEN_ATTRS},
                    },
                }
            )
    return records


# --- reference text report ----------------------------------------------------


def reference_render_text(report) -> str:
    """The text report, rendered the slow way: a full JSON record for every
    witness, and a collapse key with the JSON text of every binding of
    every witness, whatever the number of policy edges."""

    def record(w) -> dict:
        m = w.match
        return {
            "edges": dict(sorted(m.edge_events.items())),
            "isolated": {n: list(pair) for n, pair in sorted(m.isolated_objects.items())},
            "bindings": {v: to_json(b) for v, b in sorted(m.bindings.items())},
        }

    def collapse_key(w) -> tuple:
        m = w.match
        return (
            tuple(sorted(m.edge_events.values())),
            tuple(sorted(m.isolated_objects.items())),
            tuple(sorted((v, json.dumps(to_json(b), sort_keys=True)) for v, b in m.bindings.items())),
            w.satisfied,
            tuple(sorted(w.failing)),
        )

    lines = []
    collapsed_any = False
    for v in report.verdicts:
        status = "upheld" if v.upheld else "VIOLATED"
        lines.append(f"policy {v.policy}: {status} ({len(v.witnesses)} match(es))")
        groups: dict[tuple, list] = {}
        order: list[tuple] = []
        for w in v.witnesses:
            key = collapse_key(w)
            if key not in groups:
                order.append(key)
            groups.setdefault(key, []).append(w)
        for key in order:
            group = groups[key]
            w = group[0]
            sample = record(w)
            mapping = ", ".join(f"{e}→ev{idx}" for e, idx in sample["edges"].items())
            for node, pair in sample["isolated"].items():
                mapping += (", " if mapping else "") + f"{node}→{pair[0]}@t{pair[1]}"
            binds = ", ".join(f"${k}={json.dumps(val)}" for k, val in sample["bindings"].items())
            mark = "ok" if w.satisfied else "FAIL on " + ",".join(w.failing)
            note = ""
            if len(group) > 1:
                collapsed_any = True
                note = f"  [x{len(group)} edge orderings]"
            lines.append(f"  match: {mapping or '(empty)'}" + (f" with {binds}" if binds else "") + f" -> {mark}{note}")
    lines.append(
        "composed: %s  (%d policies, %d matches, %d violations, %.3fs)"
        % (
            "upheld" if report.upheld else "VIOLATED",
            len(report.verdicts),
            report.match_count,
            report.violation_count,
            report.elapsed,
        )
    )
    if collapsed_any:
        lines.append("note: matches differing only in parallel-edge ordering are collapsed above")
    return "\n".join(lines) + "\n"


# --- reference coverage and containment ----------------------------------------


def _var_names(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Not):
        return _var_names(e.operand)
    if isinstance(e, BinOp):
        return _var_names(e.left) | _var_names(e.right)
    return set()


def _forced_names(e: Expr) -> set[str]:
    """Variables that an `=` against a variable-free side pins down, read
    along the chain of && from the top of the predicate."""
    if isinstance(e, BinOp) and e.op == "&&":
        return _forced_names(e.left) | _forced_names(e.right)
    if isinstance(e, BinOp) and e.op == "=":
        return {
            side.name
            for side, other in ((e.left, e.right), (e.right, e.left))
            if isinstance(side, Var) and not _var_names(other)
        }
    return set()


def _forces_every_variable(g: PatternGraph) -> bool:
    """Whether the pattern's own predicates pin down every variable of its
    policy, those only the other pattern mentions included."""
    return g.variables <= set().union(*(_forced_names(pred) for pred in g.preds.values()))


def _pair_pool(g1: PatternGraph, g2: PatternGraph, u: UniverseBounds) -> list[Any]:
    """The universe's values, then every constant of either pattern; a
    predicate that is the constant true contributes nothing."""
    pool: list[Any] = []

    def add(v: Any) -> None:
        if not any(same_value(v, p) for p in pool):
            pool.append(v)

    def walk(e: Expr) -> None:
        if isinstance(e, Const):
            add(e.value)
            if isinstance(e.value, ValueSet):
                for m in e.value:
                    add(m)
        elif isinstance(e, Not):
            walk(e.operand)
        elif isinstance(e, BinOp):
            walk(e.left)
            walk(e.right)

    for v in u.values:
        add(v)
    for g in (g1, g2):
        for pred in g.preds.values():
            if pred != Const(True):
                walk(pred)
    return pool


def reference_systems(u: UniverseBounds) -> Iterator[SystemGraph]:
    """Every system within the bounds, each ingested from its own freshly
    built records, in the engine's enumeration order: object count; the
    attribute values, read object by object, instant by instant, attribute
    by attribute; the number of events; then the chosen event slots, each
    an (instant, source, destination, parameter values) in that order."""
    instants = range(1, u.max_instances + 1)
    for k in range(u.max_objects + 1):
        ids = [f"o{i + 1}" for i in range(k)]
        cells = [(obj, t, name) for obj in ids for t in instants for name in u.attributes]
        params = list(itertools.product(u.values, repeat=len(u.parameters)))
        slots = [(t, src, dest, p) for t in instants for src in ids for dest in ids for p in params]
        for values in itertools.product(u.values, repeat=len(cells)):
            for count in range(min(u.max_events, len(slots)) + 1):
                for chosen in itertools.combinations(slots, count):
                    records = []
                    for t in instants:
                        for obj in ids:
                            attrs = {name: v for (o, at, name), v in zip(cells, values) if (o, at) == (obj, t)}
                            records.append({"t": t, "object": {"id": obj, "attrs": attrs}})
                        for at, src, dest, p in chosen:
                            if at == t:
                                params_at = dict(zip(u.parameters, p))
                                records.append({"t": t, "event": {"src": src, "dest": dest, "params": params_at}})
                    yield ingest_trace(records)


def reference_coverage(g1: PatternGraph, g2: PatternGraph, u: UniverseBounds) -> CoverageResult:
    """coverage_compare the plain way: every system of reference_systems()
    in turn, each counted once; stops at the first system after which the
    relation is incomparable.

    Both patterns are matched exactly when both force every variable they
    use, and both over the pair's value pool otherwise, decided here
    without asking the engine which way it matches.  Pool matching is
    brute_matches, not the engine's.
    """
    if _forces_every_variable(g1) and _forces_every_variable(g2):
        def matches(g, system):
            return {m.key() for m in match_pattern(g, system)}
    else:
        pool = _pair_pool(g1, g2, u)

        def matches(g, system):
            return brute_matches(g.graph, g.preds, g.variables, pool, system)

    ge = le = True
    checked = 0
    for system in reference_systems(u):
        checked += 1
        m1, m2 = matches(g1, system), matches(g2, system)
        ge = ge and m2 <= m1
        le = le and m1 <= m2
        if not ge and not le:
            break
    if ge and le:
        relation = EQUAL
    elif ge:
        relation = GREATER
    elif le:
        relation = LESSER
    else:
        relation = INCOMPARABLE
    return CoverageResult(relation, u, checked)


def reference_contains(
    p1: PolicyGraph, p2: PolicyGraph, u: UniverseBounds
) -> tuple[ContainmentResult, CoverageResult, CoverageResult]:
    """contains as two separate reference_coverage walks, the domains and
    the requirements; returns the result and the two comparisons."""
    dom = reference_coverage(domain_of(p1), domain_of(p2), u)
    req = reference_coverage(requirement_of(p1), requirement_of(p2), u)
    holds = dom.relation in (GREATER, EQUAL) and req.relation in (LESSER, EQUAL)
    return ContainmentResult(holds, u, max(dom.systems_checked, req.systems_checked)), dom, req
