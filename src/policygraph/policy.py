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

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

from .predicates import (
    TRUE,
    BinOp,
    BindingPlan,
    Expr,
    ParseError,
    TokenCursor,
    Var,
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


@dataclass(frozen=True)
class PatternGraph:
    """A basic graph with one predicate per element; what matching consumes.

    Its predicates are compiled on first use and kept: `plans` for finding
    candidates, `ground` for checks under complete bindings.
    """

    graph: BasicGraph
    preds: Mapping[str, Expr]
    variables: frozenset[str]

    __getstate__ = _fields_only

    @cached_property
    def plans(self) -> dict[str, BindingPlan]:
        return {elt: BindingPlan(e) for elt, e in self.preds.items()}

    @cached_property
    def ground(self) -> dict[str, Callable[[Mapping[str, Any], Mapping[str, Any]], Any]]:
        return {elt: compile_ground(e) for elt, e in self.preds.items()}


@dataclass(frozen=True)
class PolicyGraph:
    """A policy.  Its domain and requirement patterns, with their compiled
    predicates, and its validation issues are computed once and kept."""

    name: str
    graph: BasicGraph
    domain_preds: Mapping[str, Expr]
    requirement_preds: Mapping[str, Expr]
    variables: frozenset[str] = field(default=frozenset())

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
    i = 0
    while i < len(lines):
        tokens = tokenize(lines[i])
        if tokens[0][0] == "eof":
            i += 1
            continue
        header = TokenCursor(tokens)
        kind, word, line, col = header.peek()
        if kind != "ident" or word != "policy":
            raise ParseError(f"expected 'policy', found {word!r}", i + 1, col)
        header.advance()
        name_tok = header.expect("ident")
        header.expect("op", "{")
        header.expect("eof")
        body, i = _collect_block(lines, i + 1)
        policies.append(_parse_block(name_tok[1], body))
    if not policies:
        raise ParseError("no policy blocks found")
    return policies


def parse_policy(text: str) -> PolicyGraph:
    """Parse text holding exactly one policy block."""
    policies = parse_policy_set(text)
    if len(policies) != 1:
        raise ParseError(f"expected exactly one policy block, found {len(policies)}")
    return policies[0]


def _collect_block(lines: list[str], start: int) -> tuple[list[tuple[int, list]], int]:
    """Gather tokenized body lines until the closing brace line."""
    body: list[tuple[int, list]] = []
    i = start
    while i < len(lines):
        tokens = tokenize(lines[i])
        if tokens[0][0] == "eof":
            i += 1
            continue
        if tokens[0][:2] == ("op", "}"):
            cur = TokenCursor(tokens)
            cur.advance()
            cur.expect("eof")
            return body, i + 1
        body.append((i + 1, tokens))
        i += 1
    raise ParseError("policy block never closed with '}'", len(lines))


def _parse_block(name: str, body: list[tuple[int, list]]) -> PolicyGraph:
    nodes: dict[str, tuple[Optional[Expr], Optional[Expr]]] = {}
    edges: dict[str, tuple[str, str, Optional[Expr], Optional[Expr]]] = {}
    declared: set[str] = set()
    for line_no, tokens in body:
        cur = TokenCursor(tokens, reserved=_POLICY_RESERVED)
        kind, word, _, col = cur.peek()
        if kind != "ident" or word not in ("node", "edge"):
            raise ParseError("expected a 'node' or 'edge' declaration", line_no, col)
        cur.advance()
        elt_id = cur.expect("ident")[1]
        if elt_id in declared:
            raise PolicyError(f"policy {name!r}: duplicate element id {elt_id!r}")
        declared.add(elt_id)
        if word == "node":
            dom, req = _parse_predicate_tail(cur, line_no)
            nodes[elt_id] = (dom, req)
        else:
            cur.expect("op", ":")
            src = cur.expect("ident")[1]
            cur.expect("op", "->")
            dest = cur.expect("ident")[1]
            if src not in nodes or dest not in nodes:
                raise PolicyError(f"policy {name!r}: edge {elt_id!r} endpoint not declared as a node")
            dom, req = _parse_predicate_tail(cur, line_no)
            edges[elt_id] = (src, dest, dom, req)
    try:
        return make_policy(name, nodes, edges)
    except PolicyError as exc:
        raise PolicyError(f"policy {name!r}: {exc}") from exc


def _parse_predicate_tail(cur: TokenCursor, line_no: int) -> tuple[Optional[Expr], Optional[Expr]]:
    dom: Optional[Expr] = None
    req: Optional[Expr] = None
    while cur.peek()[0] != "eof":
        kind, word, _, col = cur.peek()
        if kind == "ident" and word in ("domain", "req"):
            cur.advance()
            cur.expect("op", ":")
            expr = parse_expression(cur)
            if word == "domain":
                if dom is not None:
                    raise ParseError("duplicate 'domain:' section", line_no, col)
                dom = expr
            else:
                if req is not None:
                    raise ParseError("duplicate 'req:' section", line_no, col)
                req = expr
        else:
            raise ParseError(f"expected 'domain:' or 'req:', found {word!r}", line_no, col)
    return dom, req


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
    domain predicate must contain an equality between the variable and a
    variable-free expression, not beneath any || or !.  Matching derives
    bindings only from such equalities, so without one the variable's value
    would be a guess.

    R2: node requirement predicates may not name attributes.  A node's
    attribute values are per-instance and a requirement spans all events
    incident to the node; needed values must be captured into variables by
    the domain instead.
    """
    return list(p.issues)


def _check_rules(p: PolicyGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    bindable: set[str] = set()
    for elt in p.graph.elements():
        bindable |= _bindable_variables(p.domain_preds[elt])
    for var in sorted(p.variables - bindable):
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


def _bindable_variables(e: Expr) -> set[str]:
    """Variables with a qualifying equality not beneath || or !."""
    found: set[str] = set()

    def walk(x: Expr) -> None:
        if isinstance(x, BinOp):
            if x.op == "=":
                if isinstance(x.left, Var) and not variables_of(x.right):
                    found.add(x.left.name)
                if isinstance(x.right, Var) and not variables_of(x.left):
                    found.add(x.right.name)
            if x.op == "&&":
                walk(x.left)
                walk(x.right)
            # beneath ||, or any non-boolean operator, nothing qualifies

    walk(e)
    return found


def _first_mention(p: PolicyGraph, var: str) -> str:
    for elt in p.graph.elements():
        if var in variables_of(p.domain_preds[elt]) or var in variables_of(p.requirement_preds[elt]):
            return elt
    return "?"
