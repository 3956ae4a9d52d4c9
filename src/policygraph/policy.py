"""Policy graphs: a directed graph whose nodes and edges carry two predicates.

The domain predicates describe where a policy applies (objects for nodes,
events for edges); the requirement predicates state what must then hold.
Omitted predicates default to the constant true, which is how wildcards are
written.  Variables ($name) are shared across the whole policy and get their
values from the domain match.

Text form, one element per line:

    policy NoReadUp {
      node u domain: type = "user" && sec_level = $UL
      node f domain: type = "file" && sec_level = $FL
      edge r: u -> f domain: method = "read" req: $UL >= $FL
    }

Inside policy files the words "domain" and "req" are reserved (they delimit
the inline predicates); attribute names may not collide with them there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

from .predicates import (
    TRUE,
    BindingPlan,
    Expr,
    ParseError,
    TokenCursor,
    always_flag,
    attributes_of,
    compile_ground,
    format_expr,
    parse_expression,
    tokenize,
    variables_of,
)

RULE_VARIABLE_BINDING = "R1"
RULE_NODE_REQUIREMENT_ATTRS = "R2"

_POLICY_RESERVED = frozenset({"domain", "req"})


class PolicyError(ValueError):
    """Structural problem in a policy definition (duplicate ids, bad endpoints)."""


@dataclass(frozen=True)
class EdgeSpec:
    src: str
    dest: str


@dataclass(frozen=True)
class BasicGraph:
    """The unlabeled shape shared by a policy's domain and requirement."""

    nodes: frozenset[str]
    edges: Mapping[str, EdgeSpec]

    def isolated_nodes(self) -> list[str]:
        touched = {e.src for e in self.edges.values()} | {e.dest for e in self.edges.values()}
        return sorted(self.nodes - touched)

    def connected_nodes(self) -> list[str]:
        return sorted(self.nodes - set(self.isolated_nodes()))

    def elements(self) -> list[str]:
        return sorted(self.nodes) + sorted(self.edges)

    def signature(self) -> tuple:
        """Canonical fingerprint; equal iff the graphs are equal."""
        return (
            tuple(sorted(self.nodes)),
            tuple((eid, e.src, e.dest) for eid, e in sorted(self.edges.items())),
        )


def _fields_only(self) -> dict[str, Any]:
    """Pickled state: the fields alone, since compiled closures cannot be
    pickled; whatever was cached is rebuilt on first use."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


class EdgeScreen:
    """A pattern's edges indexed by the constant of an equality step on one
    event attribute, so that an event is taken only to the edges it can be
    a candidate for (the alpha network of Rete: Forgy, AI 1982).

    `attr` is the attribute that most edges' plans have a screening
    equality on (BindingPlan.screening_equalities; ties go to the first
    name), and such an edge is screened by its first one: where an event's
    value there is not that constant, the edge's plan gives None and raises
    nothing.  route(params) lists, by sorted edge id, the edges an event with
    these parameters must still be judged for, by matching.event_candidates,
    each with whether its plan is known to give None there.  That is every
    edge it does not screen out, and every screened-out edge with an endpoint
    plan that may raise, whose endpoints are still judged so that the error
    is raised where it was before; but not a screened-out edge whose raising
    endpoint plans, on the same ends, an earlier one on the route already
    judges.  A plan's outcome on a snapshot never changes, so if the earlier
    judgement did not raise, this one would not either.

    The routes are keyed by the constants themselves and probed with the
    raw value.  values_equal values are equal, and hash alike, under
    Python's own ==, so a probe finds the route of every constant that
    values_equal its value.  It may find more (1 meets true, which share a
    key), and the edge's plan then rejects the event.
    """

    __slots__ = ("attr", "routes", "default")

    def __init__(self, pattern: "PatternGraph"):
        plans, edges = pattern.plans, pattern.graph.edges
        firsts: dict[str, dict[str, Any]] = {}  # per edge, its first screening constant per attribute
        for e in sorted(edges):
            firsts[e] = {}
            for attr, c in plans[e].screening_equalities:
                firsts[e].setdefault(attr, c)
        counts = Counter(attr for found in firsts.values() for attr in found)
        self.attr = min(counts, key=lambda attr: (-counts[attr], attr)) if counts else None
        screened = {e: found[self.attr] for e, found in firsts.items() if self.attr in found}
        admits: dict[Any, set[str]] = {}
        for e, c in screened.items():
            admits.setdefault(c, set()).add(e)
        # per edge, the endpoint plans that may raise, with the end they judge
        raising = {
            e: {(end, plans[node]) for end, node in (("src", spec.src), ("dest", spec.dest)) if plans[node].may_raise}
            for e, spec in edges.items()
        }

        def route(admitted: set[str]) -> dict[str, bool]:
            out, judged = {}, set()
            for e in firsts:
                if e in admitted or e not in screened:
                    out[e] = False
                elif not raising[e] <= judged:
                    out[e] = True
                    judged |= raising[e]
            return out

        self.routes = {c: route(admitted) for c, admitted in admits.items()}
        self.default = route(set())

    def route(self, params: Mapping[str, Any]) -> dict[str, bool]:
        return self.routes.get(params.get(self.attr), self.default)


@dataclass(frozen=True)
class PatternGraph:
    """A basic graph with one predicate per element; what matching consumes.

    Its predicates are compiled on first use and kept: `plans` for finding
    candidates and binding variables, `screen` for routing events to the
    edges they can take, `ground` for checks under complete bindings.
    """

    graph: BasicGraph
    preds: Mapping[str, Expr]
    variables: frozenset[str]

    __getstate__ = _fields_only

    @cached_property
    def key_ids(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The sorted edge ids and isolated node ids, in which order Match.key() reads a match."""
        return tuple(sorted(self.graph.edges)), tuple(self.graph.isolated_nodes())

    @cached_property
    def blank_assignment(self) -> tuple[dict[str, int], dict[str, None], dict[str, None]]:
        """Edge, isolated-node and node assignments with every id, by sorted
        id, and no value (-1 for an edge): match_pattern fills copies, so a
        Match lists its entries in this order.  Never mutated."""
        edge_ids, iso_ids = self.key_ids
        return dict.fromkeys(edge_ids, -1), dict.fromkeys(iso_ids), dict.fromkeys(sorted(self.graph.nodes))

    @cached_property
    def plans(self) -> dict[str, BindingPlan]:
        return {elt: BindingPlan(e) for elt, e in self.preds.items()}

    @cached_property
    def screen(self) -> EdgeScreen:
        return EdgeScreen(self)

    @cached_property
    def quiet(self) -> bool:
        """Whether no plan's filter can raise (predicates.always_flag)."""
        return all(always_flag(expr) for plan in self.plans.values() for expr, _, _ in plan.filters)

    @cached_property
    def ground(self) -> dict[str, Callable[[Mapping[str, Any], Mapping[str, Any]], Any]]:
        return {elt: compile_ground(e) for elt, e in self.preds.items()}

    @cached_property
    def join_plans(self) -> dict[tuple, Any]:
        return {}  # matching.each_match's JoinPlans, per (edge order, isolated-node order, `equal`)

    @cached_property
    def owners(self) -> dict[str, str]:
        """Per variable some plan captures (rule R1), the element whose
        capture a match reports: the first in elements() order that
        captures it, where the first edge incident to a connected node
        reads the node's capture."""
        owners: dict[str, str] = {}
        for elt in self.graph.elements():
            readers = [e for e, spec in sorted(self.graph.edges.items()) if elt in (e, spec.src, spec.dest)]
            for var in self.plans[elt].captured:
                owners.setdefault(var, readers[0] if readers else elt)
        return owners

    @cached_property
    def free(self) -> tuple[str, ...]:
        """The variables no plan captures, by sorted name.  Exact matching
        needs none (rule R1); the algebra's pool matching tries values for them."""
        return tuple(sorted(self.variables - self.owners.keys()))


@dataclass(frozen=True)
class PolicyGraph:
    """A policy.  Its domain and requirement patterns, with their compiled
    predicates, and its validation issues are computed once and kept."""

    name: str
    graph: BasicGraph
    domain_preds: Mapping[str, Expr]
    requirement_preds: Mapping[str, Expr]
    variables: frozenset[str] = field(init=False)  # every variable of its predicates

    __getstate__ = _fields_only

    def __post_init__(self):
        seen: set[str] = set()
        for pred_map in (self.domain_preds, self.requirement_preds):
            for expr in pred_map.values():
                seen |= variables_of(expr)
        object.__setattr__(self, "variables", frozenset(seen))

    @cached_property
    def domain(self) -> PatternGraph:
        return PatternGraph(self.graph, self.domain_preds, self.variables)

    @cached_property
    def requirement(self) -> PatternGraph:
        return PatternGraph(self.graph, self.requirement_preds, self.variables)

    @cached_property
    def issues(self) -> tuple[ValidationIssue, ...]:
        return tuple(_check_rules(self))

    @cached_property
    def checked_requirements(self) -> tuple[str, ...]:
        """The elements, in elements() order, whose requirement may fail."""
        return tuple(elt for elt in self.graph.elements() if self.requirement_preds[elt] != TRUE)

    @cached_property
    def fingerprint(self) -> tuple:
        """The graph's signature and the sorted variables: matches of two
        policies can be the same match only when these are equal."""
        return self.graph.signature(), tuple(sorted(self.variables))


def make_policy(
    name: str,
    nodes: Mapping[str, tuple[Optional[Expr], Optional[Expr]]],
    edges: Mapping[str, tuple[str, str, Optional[Expr], Optional[Expr]]],
) -> PolicyGraph:
    """Programmatic construction; None predicates default to true."""
    node_ids = frozenset(nodes)
    edge_specs: dict[str, EdgeSpec] = {}
    domain: dict[str, Expr] = {}
    requirement: dict[str, Expr] = {}
    for node_id, (dom, req) in nodes.items():
        domain[node_id] = dom if dom is not None else TRUE
        requirement[node_id] = req if req is not None else TRUE
    for edge_id, (src, dest, dom, req) in edges.items():
        if edge_id in node_ids:
            raise PolicyError(f"element id {edge_id!r} used for both a node and an edge")
        if src not in node_ids or dest not in node_ids:
            raise PolicyError(f"edge {edge_id!r} endpoint not declared as a node")
        edge_specs[edge_id] = EdgeSpec(src, dest)
        domain[edge_id] = dom if dom is not None else TRUE
        requirement[edge_id] = req if req is not None else TRUE
    return PolicyGraph(name, BasicGraph(node_ids, edge_specs), domain, requirement)


def domain_of(p: PolicyGraph) -> PatternGraph:
    return p.domain


def requirement_of(p: PolicyGraph) -> PatternGraph:
    return p.requirement


# --- text form -------------------------------------------------------------


def parse_policy_set(text: str) -> list[PolicyGraph]:
    """Parse a policy file, which holds one or more policy blocks."""
    lines = text.split("\n")
    policies: list[PolicyGraph] = []
    name: Optional[str] = None  # of the open block, whose tokenized lines gather in body
    body: list[tuple[int, list]] = []
    for line_no, line in enumerate(lines, start=1):
        tokens = tokenize(line, line_no)
        cur = TokenCursor(tokens)
        kind, word, _, col = cur.advance()
        if kind == "eof":
            continue
        if name is None:
            if kind != "ident" or word != "policy":
                raise ParseError(f"expected 'policy', found {word!r}", line_no, col)
            name = cur.expect("ident")[1]
            cur.expect("op", "{")
            cur.expect("eof")
        elif (kind, word) == ("op", "}"):
            cur.expect("eof")
            policies.append(_parse_block(name, body))
            name, body = None, []
        else:
            body.append((line_no, tokens))
    if name is not None:
        raise ParseError("policy block never closed with '}'", len(lines))
    if not policies:
        raise ParseError("no policy blocks found")
    return policies


def parse_policy(text: str) -> PolicyGraph:
    """Parse text holding exactly one policy block."""
    policies = parse_policy_set(text)
    if len(policies) != 1:
        raise ParseError(f"expected exactly one policy block, found {len(policies)}")
    return policies[0]


def _parse_block(name: str, body: list[tuple[int, list]]) -> PolicyGraph:
    nodes: dict[str, tuple[Optional[Expr], Optional[Expr]]] = {}
    edges: dict[str, tuple[str, str, Optional[Expr], Optional[Expr]]] = {}
    for line_no, tokens in body:
        cur = TokenCursor(tokens, reserved=_POLICY_RESERVED)
        kind, word, _, col = cur.peek()
        if kind != "ident" or word not in ("node", "edge"):
            raise ParseError("expected a 'node' or 'edge' declaration", line_no, col)
        cur.advance()
        elt_id = cur.expect("ident")[1]
        if elt_id in nodes or elt_id in edges:
            raise PolicyError(f"policy {name!r}: duplicate element id {elt_id!r}")
        if word == "node":
            nodes[elt_id] = _parse_predicate_tail(cur, line_no)
        else:
            cur.expect("op", ":")
            src = cur.expect("ident")[1]
            cur.expect("op", "->")
            dest = cur.expect("ident")[1]
            if src not in nodes or dest not in nodes:
                raise PolicyError(f"policy {name!r}: edge {elt_id!r} endpoint not declared as a node")
            edges[elt_id] = (src, dest, *_parse_predicate_tail(cur, line_no))
    return make_policy(name, nodes, edges)


def _parse_predicate_tail(cur: TokenCursor, line_no: int) -> tuple[Optional[Expr], Optional[Expr]]:
    """The 'domain:' and 'req:' sections that end a declaration, each at most once."""
    sections: dict[str, Expr] = {}
    while cur.peek()[0] != "eof":
        kind, word, _, col = cur.advance()
        if kind != "ident" or word not in _POLICY_RESERVED:
            raise ParseError(f"expected 'domain:' or 'req:', found {word!r}", line_no, col)
        cur.expect("op", ":")
        expr = parse_expression(cur)
        if word in sections:
            raise ParseError(f"duplicate '{word}:' section", line_no, col)
        sections[word] = expr
    return sections.get("domain"), sections.get("req")


def print_policy(p: PolicyGraph) -> str:
    """Render the text form; parse_policy(print_policy(p)) == p."""
    out = [f"policy {p.name} {{"]
    for node_id in sorted(p.graph.nodes):
        out.append("  node %s%s" % (node_id, _format_tail(p, node_id)))
    for edge_id, edge in sorted(p.graph.edges.items()):
        out.append("  edge %s: %s -> %s%s" % (edge_id, edge.src, edge.dest, _format_tail(p, edge_id)))
    out.append("}")
    return "\n".join(out) + "\n"


def _format_tail(p: PolicyGraph, elt: str) -> str:
    parts = []
    if p.domain_preds[elt] != TRUE:
        parts.append(" domain: " + format_expr(p.domain_preds[elt]))
    if p.requirement_preds[elt] != TRUE:
        parts.append(" req: " + format_expr(p.requirement_preds[elt]))
    return "".join(parts)


def load_policies(path: str) -> list[PolicyGraph]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_policy_set(handle.read())


# --- well-formedness -------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    policy: str
    element: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.policy}/{self.element}: [{self.rule}] {self.message}"


def validate_policy(p: PolicyGraph) -> list[ValidationIssue]:
    """Check the two well-formedness rules.  The policy keeps the result.

    R1: every variable must be forced to a single value by the domain: some
    domain predicate must have a top-level conjunct equating the variable
    with a variable-free expression, a capture of its BindingPlan.
    Matching derives bindings only from captures, so without one the
    variable's value would be a guess.

    R2: node requirement predicates may not name attributes.  A node's
    attribute values are per-instance and a requirement spans all events
    incident to the node; needed values must be captured into variables by
    the domain instead.
    """
    return list(p.issues)


def _check_rules(p: PolicyGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    for var in p.domain.free:
        issues.append(
            ValidationIssue(
                p.name,
                _first_mention(p, var),
                RULE_VARIABLE_BINDING,
                f"variable ${var} is never bound by a domain equality outside || or !",
            )
        )
    for node_id in sorted(p.graph.nodes):
        req = p.requirement_preds[node_id]
        attrs = attributes_of(req)
        if attrs:
            issues.append(
                ValidationIssue(
                    p.name,
                    node_id,
                    RULE_NODE_REQUIREMENT_ATTRS,
                    "node requirement references attribute(s) %s; bind them to variables in the domain"
                    % ", ".join(sorted(attrs)),
                )
            )
    return issues


def _first_mention(p: PolicyGraph, var: str) -> str:
    for elt in p.graph.elements():
        if var in variables_of(p.domain_preds[elt]) or var in variables_of(p.requirement_preds[elt]):
            return elt
    return "?"
