"""Combining policies: conjunction, disjunction, reversal, coverage.

Composite policies are expression trees over atomic policy graphs.  They are
evaluated with a per-match semantics: each subexpression denotes a set of
structurally-keyed matches, each carrying a requirement outcome.

    atom          matches of its domain; outcome = requirement satisfied
    conjunction   union of children's matches; outcomes AND together
    disjunction   union of children's matches; outcomes OR together
    reversal      child's matches with outcomes negated

A composite is upheld when every match's outcome is true.  Two consequences
worth spelling out: conjunction of policies is exactly "every operand
upheld"; disjunction is weaker than that but stronger than a boolean "or",
because a shared match is excused when either operand's requirement holds,
while a match seen by only one operand must satisfy that operand.  Matches
of policies with different graph shapes or variable sets never compare
equal, so combining unrelated policies degenerates to independent
enforcement.

Coverage comparison and containment have no finite decision procedure over
all systems, so they are answered relative to explicit universe bounds and
labeled as such.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

from .matching import DEFAULT_MATCH_CAP, check_requirement, find_matches, match_graph
from .policy import PatternGraph, PolicyGraph, domain_of, requirement_of
from .predicates import FALSE, TRUE, BinOp, Expr, Not, constants_of, fold_constants
from .system import SystemGraph, ingest_trace
from .values import canonical, values_equal

log = logging.getLogger(__name__)


class DomainMismatchError(ValueError):
    """Same-domain graph operations need identical graphs, domains, variables."""


class UniverseCeilingError(RuntimeError):
    def __init__(self, count: int, ceiling: int):
        super().__init__(f"universe holds {count} systems, over the ceiling of {ceiling}")
        self.count = count
        self.ceiling = ceiling


# --- expression tree ---------------------------------------------------------


class PolicyExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(PolicyExpr):
    policy: PolicyGraph


@dataclass(frozen=True)
class Always(PolicyExpr):
    """The unit policy: no obligations, upheld on every system."""


@dataclass(frozen=True)
class Conjunction(PolicyExpr):
    operands: tuple[PolicyExpr, ...]


@dataclass(frozen=True)
class Disjunction(PolicyExpr):
    operands: tuple[PolicyExpr, ...]


@dataclass(frozen=True)
class Reversal(PolicyExpr):
    operand: PolicyExpr


def _lift(p: Union[PolicyGraph, PolicyExpr]) -> PolicyExpr:
    return Atom(p) if isinstance(p, PolicyGraph) else p


def nullify(p: Union[PolicyGraph, PolicyExpr]) -> Always:
    """Forget a policy's obligations entirely."""
    return Always()


def nullify_graph(p: PolicyGraph) -> PolicyGraph:
    """Graph form of nullification: same domain, all requirements true."""
    return PolicyGraph(
        f"{p.name}_null",
        p.graph,
        dict(p.domain_preds),
        {elt: TRUE for elt in p.graph.elements()},
    )


def conjoin(a: Union[PolicyGraph, PolicyExpr], b: Union[PolicyGraph, PolicyExpr]) -> Conjunction:
    return Conjunction((_lift(a), _lift(b)))


def disjoin(a: Union[PolicyGraph, PolicyExpr], b: Union[PolicyGraph, PolicyExpr]) -> Disjunction:
    return Disjunction((_lift(a), _lift(b)))


def reverse_expr(p: Union[PolicyGraph, PolicyExpr]) -> Reversal:
    return Reversal(_lift(p))


def _same_domain(a: PolicyGraph, b: PolicyGraph) -> bool:
    return (
        a.graph == b.graph
        and a.variables == b.variables
        and all(a.domain_preds[e] == b.domain_preds[e] for e in a.graph.elements())
    )


def conjoin_same_domain(a: PolicyGraph, b: PolicyGraph) -> PolicyGraph:
    """Graph form of conjunction for policies sharing one domain: the
    requirements simply AND together element by element."""
    if not _same_domain(a, b):
        raise DomainMismatchError(
            f"policies {a.name!r} and {b.name!r} do not share a graph and domain"
        )
    merged = {}
    for elt in a.graph.elements():
        ra, rb = a.requirement_preds[elt], b.requirement_preds[elt]
        if ra == TRUE:
            merged[elt] = rb
        elif rb == TRUE:
            merged[elt] = ra
        else:
            merged[elt] = fold_constants(BinOp("&&", ra, rb))
    return PolicyGraph(f"{a.name}_and_{b.name}", a.graph, dict(a.domain_preds), merged)


def reverse(p: PolicyGraph) -> Disjunction:
    """Graph form of reversal: a disjunction of single-element negations.

    Each disjunct keeps the whole domain and negates the requirement on one
    element, leaving the others true; some disjunct must hold at every
    domain match.  Elements whose requirement is the constant true are
    skipped (their negation could never hold), except that when every
    requirement is constant-true one disjunct with a false requirement is
    kept so the domain, and with it the "fails on every match" semantics,
    survives.
    """
    elements = p.graph.elements()
    active = [e for e in elements if p.requirement_preds[e] != TRUE]
    disjuncts = []
    if not active:
        first = elements[0] if elements else None
        reqs = {elt: TRUE for elt in elements}
        if first is not None:
            reqs[first] = FALSE
        disjuncts.append(
            Atom(PolicyGraph(f"{p.name}_rev", p.graph, dict(p.domain_preds), reqs))
        )
    for elt in active:
        reqs = {e: TRUE for e in elements}
        reqs[elt] = fold_constants(Not(p.requirement_preds[elt]))
        disjuncts.append(
            Atom(PolicyGraph(f"{p.name}_rev_{elt}", p.graph, dict(p.domain_preds), reqs))
        )
    return Disjunction(tuple(disjuncts))


# --- evaluation ---------------------------------------------------------------


def _match_outcomes(
    e: PolicyExpr, graph: SystemGraph, cap: int
) -> dict[tuple, bool]:
    """Map from structural match keys to requirement outcomes."""
    if isinstance(e, Atom):
        p = e.policy
        fingerprint = (p.graph.signature(), tuple(sorted(p.variables)))
        out = {}
        for m in find_matches(p, graph, cap):
            satisfied, _ = check_requirement(p, m, graph)
            out[(fingerprint, m.key())] = satisfied
        return out
    if isinstance(e, Always):
        return {}
    if isinstance(e, (Conjunction, Disjunction)):
        combine = all if isinstance(e, Conjunction) else any
        per_child = [_match_outcomes(c, graph, cap) for c in e.operands]
        merged: dict[tuple, list[bool]] = {}
        for outcomes in per_child:
            for key, value in outcomes.items():
                merged.setdefault(key, []).append(value)
        return {key: combine(values) for key, values in merged.items()}
    if isinstance(e, Reversal):
        if isinstance(e.operand, Disjunction):
            graphs = {
                c.policy.graph.signature()
                for c in e.operand.operands
                if isinstance(c, Atom)
            }
            if len(graphs) > 1:
                log.warning(
                    "reversal over a disjunction of differently-shaped policies; "
                    "evaluating per-match, which treats their matches as disjoint"
                )
        return {key: not value for key, value in _match_outcomes(e.operand, graph, cap).items()}
    raise TypeError(f"not a policy expression: {e!r}")


def eval_policy_expr(e: Union[PolicyGraph, PolicyExpr], graph: SystemGraph, cap: int = DEFAULT_MATCH_CAP) -> bool:
    """Whether the composite policy is upheld on the system."""
    return all(_match_outcomes(_lift(e), graph, cap).values())


# --- bounded universes --------------------------------------------------------


@dataclass(frozen=True)
class UniverseBounds:
    """A finite family of systems to quantify over.

    Objects o1..oN all carry every attribute in `attributes`, with values
    drawn from `values` independently per instant; events range over every
    (instant, source, destination) with every parameter assignment, up to
    `max_events` per system.  `ceiling` guards against blow-up.
    """

    max_objects: int
    max_instances: int
    attributes: tuple[str, ...]
    parameters: tuple[str, ...]
    values: tuple[Any, ...]
    max_events: int = 2
    ceiling: int = 500_000

    @staticmethod
    def from_json(text: str) -> "UniverseBounds":
        raw = json.loads(text)
        return UniverseBounds(
            max_objects=raw["max_objects"],
            max_instances=raw["max_instances"],
            attributes=tuple(raw["attributes"]),
            parameters=tuple(raw["parameters"]),
            values=tuple(raw["values"]),
            max_events=raw.get("max_events", 2),
            ceiling=raw.get("ceiling", 500_000),
        )


def _system_count(u: UniverseBounds) -> int:
    total = 0
    v = len(u.values)
    for k in range(u.max_objects + 1):
        attr_configs = v ** (k * u.max_instances * len(u.attributes))
        slots = u.max_instances * k * k * (v ** len(u.parameters))
        event_configs = sum(_choose(slots, j) for j in range(min(u.max_events, slots) + 1))
        total += attr_configs * event_configs
    return total


def _choose(n: int, k: int) -> int:
    result = 1
    for i in range(k):
        result = result * (n - i) // (i + 1)
    return result


def enumerate_systems(u: UniverseBounds) -> Iterator[SystemGraph]:
    """Every system within the bounds, created through normal ingestion."""
    count = _system_count(u)
    if count > u.ceiling:
        raise UniverseCeilingError(count, u.ceiling)
    instants = range(1, u.max_instances + 1)
    for k in range(u.max_objects + 1):
        ids = [f"o{i + 1}" for i in range(k)]
        cells = [(obj, t) for obj in ids for t in instants]
        param_assignments = [
            dict(zip(u.parameters, combo))
            for combo in itertools.product(u.values, repeat=len(u.parameters))
        ]
        slots = [
            (t, src, dest, params)
            for t in instants
            for src in ids
            for dest in ids
            for params in param_assignments
        ]
        for attr_combo in itertools.product(u.values, repeat=len(cells) * len(u.attributes)):
            attr_at: dict[tuple[str, int], dict[str, Any]] = {}
            it = iter(attr_combo)
            for obj, t in cells:
                attr_at[(obj, t)] = {a: next(it) for a in u.attributes}
            for event_count in range(min(u.max_events, len(slots)) + 1):
                for chosen in itertools.combinations(slots, event_count):
                    records = []
                    for t in instants:
                        for obj in ids:
                            records.append({"t": t, "object": {"id": obj, "attrs": attr_at[(obj, t)]}})
                        for (et, src, dest, params) in chosen:
                            if et == t:
                                records.append(
                                    {"t": t, "event": {"src": src, "dest": dest, "params": dict(params)}}
                                )
                    yield ingest_trace(records)


def _binding_pool(pattern: PatternGraph, u: UniverseBounds) -> list[Any]:
    pool = list(u.values)
    for pred in pattern.preds.values():
        if pred == TRUE:  # an element without a predicate adds no value to try
            continue
        for const in constants_of(pred):
            if not any(values_equal(const, existing) for existing in pool):
                pool.append(const)
    return pool


def pattern_matches_bounded(pattern: PatternGraph, graph: SystemGraph, pool: Sequence[Any]) -> set[tuple]:
    """All matches of a pattern with bindings enumerated over a value pool.

    Unlike find_matches this needs no binding-equality rule: requirement
    patterns rarely force their variables, so completeness comes from brute
    enumeration instead.
    """
    g = pattern.graph
    edge_ids = sorted(g.edges)
    iso_ids = g.isolated_nodes()
    events = graph.events
    keys: set[tuple] = set()
    variables = sorted(pattern.variables)
    for edge_assignment in _injective_maps(edge_ids, range(len(events))):
        node_objects: dict[str, str] = {}
        ok = True
        for edge_id, idx in edge_assignment.items():
            spec = g.edges[edge_id]
            for node_id, obj in ((spec.src, events[idx].src), (spec.dest, events[idx].dest)):
                if node_objects.setdefault(node_id, obj) != obj:
                    ok = False
        if not ok or not _injective(node_objects):
            continue
        iso_choices = [
            [(obj, t) for obj in graph.object_ids() for t in graph.instants(obj)]
            for _ in iso_ids
        ]
        for iso_combo in itertools.product(*iso_choices):
            iso_assignment = dict(zip(iso_ids, iso_combo))
            all_nodes = dict(node_objects)
            for node_id, (obj, _t) in iso_assignment.items():
                all_nodes[node_id] = obj
            if not _injective(all_nodes):
                continue
            for combo in itertools.product(pool, repeat=len(variables)):
                bindings = dict(zip(variables, combo))
                if match_graph(pattern, edge_assignment, iso_assignment, graph, bindings):
                    keys.add(
                        (
                            tuple(sorted(edge_assignment.items())),
                            tuple(sorted(iso_assignment.items())),
                            tuple(sorted((v, canonical(b)) for v, b in bindings.items())),
                        )
                    )
    return keys


def _injective_maps(keys: Sequence[str], values: Iterable[int]) -> Iterator[dict[str, int]]:
    values = list(values)
    if len(values) < len(keys):
        return
    for perm in itertools.permutations(values, len(keys)):
        yield dict(zip(keys, perm))


def _injective(mapping: Mapping[str, str]) -> bool:
    return len(set(mapping.values())) == len(mapping)


GREATER = "greater"
LESSER = "lesser"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class CoverageResult:
    """Relation between two patterns' match sets, relative to a universe.

    Bounded evidence only: `relation` says how the match sets compared on
    every system inside `universe`, nothing beyond it.
    """

    relation: str
    universe: UniverseBounds
    systems_checked: int

    def __str__(self) -> str:
        return f"{self.relation} (bounded: {self.systems_checked} systems checked)"


def coverage_compare(g1: PatternGraph, g2: PatternGraph, u: UniverseBounds) -> CoverageResult:
    """Compare where two patterns match across a bounded universe."""
    pool = _binding_pool(g1, u)
    for extra in _binding_pool(g2, u):
        if not any(values_equal(extra, existing) for existing in pool):
            pool.append(extra)
    always_ge = True  # g1's matches include g2's
    always_le = True
    checked = 0
    for system in enumerate_systems(u):
        checked += 1
        m1 = pattern_matches_bounded(g1, system, pool)
        m2 = pattern_matches_bounded(g2, system, pool)
        if not m2 <= m1:
            always_ge = False
        if not m1 <= m2:
            always_le = False
        if not always_ge and not always_le:
            break
    if always_ge and always_le:
        relation = EQUAL
    elif always_ge:
        relation = GREATER
    elif always_le:
        relation = LESSER
    else:
        relation = INCOMPARABLE
    return CoverageResult(relation, u, checked)


@dataclass(frozen=True)
class ContainmentResult:
    holds: bool
    universe: UniverseBounds
    systems_checked: int

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        outcome = "contains" if self.holds else "does not contain"
        return f"{outcome} (bounded: {self.systems_checked} systems checked)"


def contains(p1: PolicyGraph, p2: PolicyGraph, u: UniverseBounds) -> ContainmentResult:
    """Whether enforcing p1 implies enforcing p2, relative to the universe.

    Needs p1's domain to cover at least p2's (p1 applies wherever p2 does)
    and p1's requirement to demand at least as much (its permitted match set
    is no larger than p2's).
    """
    dom = coverage_compare(domain_of(p1), domain_of(p2), u)
    req = coverage_compare(requirement_of(p1), requirement_of(p2), u)
    holds = dom.relation in (GREATER, EQUAL) and req.relation in (LESSER, EQUAL)
    return ContainmentResult(holds, u, max(dom.systems_checked, req.systems_checked))
