"""Enumerating the places where a policy's domain holds in a system graph.

A match assigns policy edges to distinct events and isolated policy nodes to
(object, instant) pairs, together with the variable bindings the domain
forces.  Connected policy nodes are not assigned directly: each incident
event fixes them, and all events incident to one policy node must agree on
the object.  Distinct policy nodes must map to distinct objects.

Bindings are never guessed from the value universe.  They are derived solely
from forced equalities in the residual conditions (see predicates.reduce
machinery); rule R1 guarantees every variable is forced before a match can
complete, which is why find_matches demands a policy that validates cleanly.

Predicates are checked in their compiled forms (predicates.BindingPlan and
compile_ground, kept on the pattern), which give what satisfy(),
merge_conditions() and evaluate() would; a case a compiled form cannot
settle goes to those functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Mapping, Optional, Sequence

from .policy import PatternGraph, PolicyGraph, domain_of, validate_policy
from .predicates import (
    BOTTOM,
    TRUE,
    BindingPlan,
    Conditions,
    Const,
    Fallback,
    PredicateTypeError,
    bind_captures,
    evaluate,
    merge_conditions,
    satisfy,
)
from .system import SystemEvent, SystemGraph
from .values import canonical

DEFAULT_MATCH_CAP = 100_000
SETTLED = Conditions({}, TRUE)  # no bindings yet, nothing left to settle


class MatchCapExceeded(RuntimeError):
    def __init__(self, policy: str, cap: int):
        super().__init__(f"policy {policy!r} exceeded the match cap of {cap}")
        self.policy = policy
        self.cap = cap


class InvalidPolicyError(ValueError):
    def __init__(self, issues):
        super().__init__("; ".join(str(i) for i in issues))
        self.issues = list(issues)


class MatchingError(RuntimeError):
    """Internal consistency failure; indicates a bug, not a bad input."""


@dataclass(frozen=True)
class Match:
    """One place a pattern holds: edge and isolated-node assignments plus
    the variable bindings the domain forced there."""

    policy: str
    edge_events: Mapping[str, int]  # policy edge id -> index into graph.events
    isolated_objects: Mapping[str, tuple[str, int]]  # node id -> (object, instant)
    node_objects: Mapping[str, str]  # every policy node -> object id
    bindings: Mapping[str, Any]

    def key(self) -> tuple:
        """Structural identity, independent of enumeration order."""
        return (
            tuple(sorted(self.edge_events.items())),
            tuple(sorted(self.isolated_objects.items())),
            tuple(sorted((v, canonical(b)) for v, b in self.bindings.items())),
        )


def match_graph(
    pattern: PatternGraph,
    edge_events: Mapping[str, int],
    isolated_objects: Mapping[str, tuple[str, int]],
    graph: SystemGraph,
    bindings: Mapping[str, Any],
) -> bool:
    """Whether the pattern holds at the given assignment under complete
    bindings.  Purely predicate-level; injectivity and node-object agreement
    are the enumerator's business.  An empty pattern holds trivially.
    """
    g = pattern.graph
    # merging conditions rejects a binding that is not equal to itself (NaN)
    self_equal = all(v == v for v in bindings.values())
    for edge_id, spec in g.edges.items():
        event = graph.events[edge_events[edge_id]]
        contexts = (
            (edge_id, event.params),
            (spec.src, graph.src_attr(event)),
            (spec.dest, graph.dest_attr(event)),
        )
        if not _holds(pattern, contexts, bindings, self_equal):
            return False
    for node_id in pattern.key_ids[1]:
        obj_id, instant = isolated_objects[node_id]
        if not _holds(pattern, ((node_id, graph.attrs_at(obj_id, instant)),), bindings, True):
            return False
    return True


def _holds(pattern: PatternGraph, contexts, bindings: Mapping[str, Any], self_equal: bool) -> bool:
    """Whether merging satisfy() of each (element, context) leaves true."""
    try:
        if not self_equal:
            raise Fallback
        holds = True
        for elt, ctx in contexts:
            value = pattern.ground[elt](ctx, bindings)
            if value is not True:
                if value is not False:
                    raise Fallback
                holds = False
        return holds
    except Fallback:
        merged = merge_conditions([satisfy(pattern.preds[elt], ctx, bindings) for elt, ctx in contexts])
        return merged.residual == TRUE


FALLBACK = object()  # a compiled domain predicate left the case to the interpreter


def edge_captures(pattern: PatternGraph, edge_id: str, event: SystemEvent, graph: SystemGraph) -> Any:
    """The capture groups of a policy edge's own, source and destination
    domains at an event: None where one of them is false, FALLBACK where
    only the interpreter settles them.  Once the outcome is false, a plan
    that cannot raise is skipped; one that can is still run, since the
    interpreter would report its error."""
    spec, plans = pattern.graph.edges[edge_id], pattern.plans
    edge, src, dest = plans[edge_id], plans[spec.src], plans[spec.dest]
    try:
        on_edge = edge(event.params)
        if on_edge is None and not (src.may_raise or dest.may_raise):
            return None
        on_src = src(graph.src_attr(event))
        if on_src is None and not dest.may_raise:
            return None
        on_dest = dest(graph.dest_attr(event))
    except Fallback:
        return FALLBACK
    if on_edge is None or on_src is None or on_dest is None:
        return None
    return on_edge, on_src, on_dest


def node_captures(plan: BindingPlan, attrs: Mapping[str, Any]) -> Any:
    """The capture group of a node's domain at a snapshot, in the same
    form as edge_captures()."""
    try:
        found = plan(attrs)
    except Fallback:
        return FALLBACK
    return None if found is None else (found,)


def merge_captures(conds: Conditions, found: Any) -> Any:
    """What merge_conditions would make of conds and the satisfy() results
    of some domain predicates, given `found`: their capture groups, or None
    where one of them is false.  FALLBACK where only the interpreter can
    tell: a plan gave up, or conds has a residual left to settle."""
    if found is FALLBACK or not conds.is_true:
        return FALLBACK
    return BOTTOM if found is None else bind_captures(conds, found)


@dataclass
class _EdgeCandidate:
    event_index: int
    src_obj: str
    dest_obj: str
    conds: Conditions


def edge_candidate(
    pattern: PatternGraph, edge_id: str, index: int, event: SystemEvent, graph: SystemGraph
) -> Optional[_EdgeCandidate]:
    """The event at `index` as a candidate for a policy edge, or None where
    it fails the edge's local predicate check: the merge of satisfy() of
    its three domain predicates is false."""
    found = edge_captures(pattern, edge_id, event, graph)
    if found is None:
        return None
    if found is not FALLBACK:
        # merging the edge's and the source's satisfy() results leaves
        # their captures in one residual: harvested together, the last
        # one wins
        conds = bind_captures(SETTLED, (found[0] + found[1], found[2]))
    else:
        spec = pattern.graph.edges[edge_id]
        conds = merge_conditions(
            [
                satisfy(pattern.preds[edge_id], event.params, {}),
                satisfy(pattern.preds[spec.src], graph.src_attr(event), {}),
                satisfy(pattern.preds[spec.dest], graph.dest_attr(event), {}),
            ]
        )
    if conds.is_false:
        return None
    return _EdgeCandidate(index, event.src, event.dest, conds)


def _edge_candidates(pattern: PatternGraph, graph: SystemGraph) -> dict[str, list[_EdgeCandidate]]:
    """Per policy edge, every event's edge_candidate() that is not None."""
    out: dict[str, list[_EdgeCandidate]] = {}
    for edge_id in sorted(pattern.graph.edges):
        candidates = []
        for index, event in enumerate(graph.events):
            cand = edge_candidate(pattern, edge_id, index, event, graph)
            if cand is not None:
                candidates.append(cand)
        out[edge_id] = candidates
    return out


def _iso_candidates(pattern: PatternGraph, graph: SystemGraph) -> dict[str, list[tuple[str, int, Any]]]:
    """Per isolated policy node, the (object, instant) pairs whose snapshot
    its domain does not falsify, with node_captures() there."""
    out: dict[str, list[tuple[str, int, Any]]] = {}
    for node_id in pattern.key_ids[1]:
        pred, plan = pattern.preds[node_id], pattern.plans[node_id]
        candidates = []
        for obj_id in graph.object_ids():
            seen = None
            for instant in graph.instants(obj_id):
                attrs = graph.attrs_at(obj_id, instant)
                if attrs is not seen:  # one snapshot holds over many instants
                    seen, found = attrs, node_captures(plan, attrs)
                    # the interpreter judges (and reports any error) here,
                    # not only once the join reaches the candidate
                    if found is FALLBACK and satisfy(pred, attrs, {}).is_false:
                        found = None
                if found is not None:
                    candidates.append((obj_id, instant, found))
        out[node_id] = candidates
    return out


def match_pattern(
    pattern: PatternGraph,
    graph: SystemGraph,
    cap: int = DEFAULT_MATCH_CAP,
    policy_name: str = "?",
    edge_cands: Optional[Mapping[str, Sequence[_EdgeCandidate]]] = None,
) -> list[Match]:
    """Backtracking enumeration of every match of a pattern.

    Edges are assigned first, in ascending candidate-count order, merging
    variable conditions and pruning as soon as a residual folds to false;
    isolated nodes follow.  The enumeration visits each assignment once, so
    the result is duplicate-free; it is returned in Match.key() order.
    `edge_cands`, when given, replaces _edge_candidates(): the matches are
    then those whose events come from these lists.
    """
    if edge_cands is None:
        edge_cands = _edge_candidates(pattern, graph)
    edge_order = sorted(edge_cands, key=lambda e: (len(edge_cands[e]), e))
    iso_cands = _iso_candidates(pattern, graph)
    iso_order = sorted(iso_cands, key=lambda n: (len(iso_cands[n]), n))
    edge_specs = pattern.graph.edges

    matches: list[Match] = []
    edge_events: dict[str, int] = {}
    node_objects: dict[str, str] = {}
    object_nodes: dict[str, str] = {}  # inverse view, for the injectivity check
    iso_objects: dict[str, tuple[str, int]] = {}

    def claim(node_id: str, obj_id: str) -> Optional[list[str]]:
        """Try to map node_id to obj_id; returns the rollback list or None."""
        if node_id in node_objects:
            return [] if node_objects[node_id] == obj_id else None
        if obj_id in object_nodes:
            return None
        node_objects[node_id] = obj_id
        object_nodes[obj_id] = node_id
        return [node_id]

    def release(claimed: list[str]) -> None:
        for node_id in claimed:
            obj_id = node_objects.pop(node_id)
            object_nodes.pop(obj_id)

    def finish(conds: Conditions) -> None:
        if not conds.is_true:
            if conds.is_false:
                return
            raise MatchingError(
                f"policy {policy_name!r}: residual condition did not settle; "
                "was the policy validated?"
            )
        missing = pattern.variables - conds.bindings.keys()
        if missing:
            raise MatchingError(
                f"policy {policy_name!r}: variables {sorted(missing)} unbound at completion"
            )
        bindings = {v: conds.bindings[v] for v in pattern.variables}
        matches.append(
            Match(policy_name, dict(edge_events), dict(iso_objects), dict(node_objects), bindings)
        )
        if len(matches) > cap:
            raise MatchCapExceeded(policy_name, cap)

    def assign_iso(position: int, conds: Conditions) -> None:
        if position == len(iso_order):
            finish(conds)
            return
        node_id = iso_order[position]
        pred = pattern.preds[node_id]
        for obj_id, instant, found in iso_cands[node_id]:
            claimed = claim(node_id, obj_id)
            if claimed is None:
                continue
            merged = merge_captures(conds, found)
            if merged is FALLBACK:
                merged = merge_conditions([conds, satisfy(pred, graph.attrs_at(obj_id, instant), {})])
            if not merged.is_false:
                iso_objects[node_id] = (obj_id, instant)
                assign_iso(position + 1, merged)
                del iso_objects[node_id]
            release(claimed)

    def assign_edges(position: int, conds: Conditions) -> None:
        if position == len(edge_order):
            assign_iso(0, conds)
            return
        edge_id = edge_order[position]
        spec = edge_specs[edge_id]
        for cand in edge_cands[edge_id]:
            if cand.event_index in edge_events.values():
                continue
            if spec.src == spec.dest and cand.src_obj != cand.dest_obj:
                continue
            claimed_src = claim(spec.src, cand.src_obj)
            if claimed_src is None:
                continue
            claimed_dest = claim(spec.dest, cand.dest_obj) if spec.dest != spec.src else []
            if claimed_dest is None:
                release(claimed_src)
                continue
            merged = merge_conditions([conds, cand.conds])
            if not merged.is_false:
                edge_events[edge_id] = cand.event_index
                assign_edges(position + 1, merged)
                del edge_events[edge_id]
            release(claimed_dest)
            release(claimed_src)

    assign_edges(0, SETTLED)
    # The two recursive closures refer to themselves; dropping them frees the
    # candidate lists now rather than at the collector's next pass.
    del assign_edges, assign_iso
    if len(matches) > 1:
        # Match.key() order: an assignment fixes its bindings, so its events by
        # sorted edge id, then its pairs by sorted node id, decide the order
        edges, pairs = (itemgetter(*ids) if ids else lambda _: () for ids in pattern.key_ids)
        matches.sort(key=lambda m: (edges(m.edge_events), pairs(m.isolated_objects)))
    return matches


def find_matches(p: PolicyGraph, graph: SystemGraph, cap: int = DEFAULT_MATCH_CAP) -> list[Match]:
    """Every match of the policy's domain.  The policy must validate cleanly."""
    issues = validate_policy(p)
    if issues:
        raise InvalidPolicyError(issues)
    return match_pattern(domain_of(p), graph, cap, p.name)


# --- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    match: Match
    satisfied: bool
    failing: tuple[str, ...]  # element ids whose requirement came out false


@dataclass(frozen=True)
class Verdict:
    policy: str
    upheld: bool
    witnesses: tuple[Witness, ...]

    @property
    def violations(self) -> tuple[Witness, ...]:
        return tuple(w for w in self.witnesses if not w.satisfied)


@dataclass(frozen=True)
class CompositeVerdict:
    """A set of policies enforced together: upheld only if every one is."""

    upheld: bool
    verdicts: tuple[Verdict, ...]


def check_requirement(p: PolicyGraph, m: Match, graph: SystemGraph) -> tuple[bool, tuple[str, ...]]:
    """Evaluate the requirement predicates at a domain match.

    Edge requirements see the matched event's parameters; node requirements
    see no attributes (rule R2 bans them) and run on bindings alone.  The
    bindings are complete, so every predicate folds to a constant.
    """
    failing: list[str] = []
    for elt in p.checked_requirements:
        ctx = graph.events[m.edge_events[elt]].params if elt in p.graph.edges else {}
        if not _requirement_holds(p, elt, ctx, m.bindings):
            failing.append(elt)
    return (not failing, tuple(failing))


def _requirement_holds(p: PolicyGraph, elt: str, ctx: Mapping[str, Any], bindings: Mapping[str, Any]) -> bool:
    try:
        value = p.requirement.ground[elt](ctx, bindings)
        if value is True or value is False:
            return value
    except Fallback:
        pass
    # the interpreter settles it, or raises the error it reports
    result = evaluate(p.requirement_preds[elt], ctx, bindings)
    if not isinstance(result, Const) or not isinstance(result.value, bool):
        raise PredicateTypeError(
            f"requirement on {p.name}/{elt} did not settle to a boolean", result
        )
    return result.value


def verdict(p: PolicyGraph, graph: SystemGraph, cap: int = DEFAULT_MATCH_CAP) -> Verdict:
    """Upheld exactly when every domain match satisfies the requirement."""
    witnesses = [Witness(m, *check_requirement(p, m, graph)) for m in find_matches(p, graph, cap)]
    return Verdict(p.name, all(w.satisfied for w in witnesses), tuple(witnesses))


def verdict_all(
    policies: Sequence[PolicyGraph], graph: SystemGraph, cap: int = DEFAULT_MATCH_CAP
) -> CompositeVerdict:
    """Judge each policy against the system; the whole set holds iff all do."""
    verdicts = tuple(verdict(p, graph, cap) for p in policies)
    return CompositeVerdict(all(v.upheld for v in verdicts), verdicts)
