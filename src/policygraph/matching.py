"""Enumerating the places where a policy's domain holds in a system graph.

A match assigns policy edges to distinct events and isolated policy nodes to
(object, instant) pairs, together with the variable bindings the domain
forces.  Connected policy nodes are not assigned directly: each incident
event fixes them, and all events incident to one policy node must agree on
the object.  Distinct policy nodes must map to distinct objects.

Bindings are never guessed from the value universe.  Each domain predicate
is compiled once (predicates.BindingPlan, kept on the pattern) into tests,
captures and filters.  A candidate for an element passes its tests and
binds its captures, the `$X = e` equalities with e variable-free; the join
carries the bindings as a plain dict and prunes where two captures of one
variable differ.  Each filter, any other conjunct with a variable, runs
once its element is placed and every variable in it is bound.  This is
sideways information passing (Beeri & Ramakrishnan, "On the Power of
Magic", PODS 1987).  Rule R1 guarantees that every variable has a capture,
so every filter runs before a match completes; that is why find_matches
demands a policy that validates cleanly.

The compiled forms are the evaluator: under complete bindings each gives
the value the interpreter (predicates.evaluate) folds to, or raises its
error.  A value that is no boolean does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Mapping, Optional, Sequence

from .policy import PatternGraph, PolicyGraph, domain_of, validate_policy
from .predicates import BindingPlan, Const, PredicateTypeError
from .predicates import evaluate, merge_conditions, satisfy  # noqa: F401  perfbench/tracing.py wraps them here
from .system import SystemEvent, SystemGraph
from .values import canonical, values_equal

DEFAULT_MATCH_CAP = 100_000
_ABSENT = object()
_NO_CAPTURES: Mapping[str, Any] = {}


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
    the variable bindings the domain forced there.  Each dict lists its
    entries by sorted id, whatever order the join placed them in."""

    policy: str
    edge_events: Mapping[str, int]  # policy edge id -> index into graph.events
    isolated_objects: Mapping[str, tuple[str, int]]  # node id -> (object, instant)
    node_objects: Mapping[str, str]  # every policy node -> object id
    bindings: Mapping[str, Any]

    def key(self) -> tuple:
        """Structural identity, independent of enumeration order."""
        return match_key(self.edge_events, self.isolated_objects, self.bindings)


def match_key(
    edge_events: Mapping[str, int], isolated_objects: Mapping[str, tuple[str, int]], bindings: Mapping[str, Any]
) -> tuple:
    """Match.key() of the match with these assignments and bindings."""
    return (
        tuple(sorted(edge_events.items())),
        tuple(sorted(isolated_objects.items())),
        tuple(sorted((v, canonical(b)) for v, b in bindings.items())),
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
    are the enumerator's business.  An empty pattern holds trivially, and a
    pattern with a variable left unbound does not hold.
    """
    if not pattern.variables <= bindings.keys():
        return False
    ground = pattern.ground
    # the interpreter's merge of an edge's three predicates rejects a
    # binding that is not equal to itself (NaN), once they have been judged
    self_equal = all(v == v for v in bindings.values())
    for edge_id, spec in pattern.graph.edges.items():
        event = graph.events[edge_events[edge_id]]
        held = self_equal
        for elt, ctx in ((edge_id, event.params), (spec.src, graph.src_attr(event)), (spec.dest, graph.dest_attr(event))):
            held = ground[elt](ctx, bindings) is True and held
        if not held:
            return False
    for node_id in pattern.key_ids[1]:
        obj_id, instant = isolated_objects[node_id]
        if ground[node_id](graph.attrs_at(obj_id, instant), bindings) is not True:
            return False
    return True


def _bind(groups, bindings: dict[str, Any]) -> Optional[list[str]]:
    """Add groups of captures to bindings, in place and in order: a
    variable keeps its first value.  Returns the variables added, or None,
    with bindings unchanged, where a capture differs from the value its
    variable has (a NaN differs from everything)."""
    added = []
    for captures in groups:
        for var, value in captures:
            bound = bindings.get(var, _ABSENT)
            if bound is _ABSENT:
                bindings[var] = value
                added.append(var)
            elif not values_equal(bound, value):
                for var in added:
                    del bindings[var]
                return None
    return added


def _settle(waiting: tuple, bindings: Mapping[str, Any]) -> Optional[tuple]:
    """Run, in order, each waiting (filter, context) pair whose variables
    are all bound.  None where one fails; otherwise those still waiting."""
    still = []
    for pair in waiting:
        (_, variables, check), ctx = pair
        if variables <= bindings.keys():
            if check(ctx, bindings) is not True:
                return None
        else:
            still.append(pair)
    return tuple(still)


@dataclass(slots=True)
class _EdgeCandidate:
    event_index: int
    src_obj: str
    dest_obj: str
    captures: Mapping[str, Any]  # its three domains' captures, in elements() order
    filters: tuple  # (filter, context) pairs whose variables those leave unbound


def edge_candidate(
    pattern: PatternGraph,
    edge_id: str,
    index: int,
    event: SystemEvent,
    graph: SystemGraph,
    outcomes: dict,
) -> Optional[_EdgeCandidate]:
    """The event at `index` as a candidate for a policy edge, or None where
    the edge's own, source or destination domain is false there: a test
    fails, two captures of one variable differ, or a filter whose
    variables those captures bind fails.  Once the outcome is false, a
    plan that cannot raise is skipped; one that can is still run, since the
    interpreter would report its error.

    A node plan's result depends only on the snapshot it reads, so it is
    judged once per snapshot: `outcomes` memoises it, keyed by the plan and
    the snapshot's id, with the snapshot kept in the entry so that id is
    not reused (a plan that raises stores nothing).  The caller owns the
    memo and must drop it before any snapshot it saw can change in place:
    _edge_candidates keeps one per call, a Monitor one for its life.  A
    node plan without steps is not called, and its snapshot is looked up
    only where a filter reads it."""
    spec, plans = pattern.graph.edges[edge_id], pattern.plans
    edge, src, dest = plans[edge_id], plans[spec.src], plans[spec.dest]
    on_edge = edge(event.params)
    if on_edge is None and not (src.may_raise or dest.may_raise):
        return None
    src_ctx = graph.src_attr(event) if src.steps or src.filters else None
    on_src = _judged(src, src_ctx, outcomes) if src.steps else ()
    if on_src is None and not dest.may_raise:
        return None
    dest_ctx = graph.dest_attr(event) if dest.steps or dest.filters else None
    on_dest = _judged(dest, dest_ctx, outcomes) if dest.steps else ()
    if on_edge is None or on_src is None or on_dest is None:
        return None
    captures: Mapping[str, Any] = _NO_CAPTURES
    if on_edge or on_src or on_dest:
        captures = {}
        nodes = (on_src, on_dest) if spec.src <= spec.dest else (on_dest, on_src)
        if _bind((*nodes, on_edge), captures) is None:
            return None
    filters: Optional[tuple] = ()
    if edge.filters or src.filters or dest.filters:
        contexts = ((edge, event.params), (src, src_ctx), (dest, dest_ctx))
        filters = _settle(tuple((f, ctx) for plan, ctx in contexts for f in plan.filters), captures)
    return None if filters is None else _EdgeCandidate(index, event.src, event.dest, captures, filters)


def _judged(plan: BindingPlan, attrs: Mapping[str, Any], outcomes: dict) -> Optional[list[tuple[str, Any]]]:
    """plan(attrs), looked up in or added to the memo `outcomes`."""
    key = (plan, id(attrs))
    entry = outcomes.get(key)
    if entry is None:
        entry = outcomes[key] = (attrs, plan(attrs))
    return entry[1]


def _edge_candidates(pattern: PatternGraph, graph: SystemGraph) -> dict[str, list[_EdgeCandidate]]:
    """Per policy edge, every event's edge_candidate() that is not None."""
    out: dict[str, list[_EdgeCandidate]] = {}
    outcomes: dict = {}
    for edge_id in sorted(pattern.graph.edges):
        candidates = []
        for index, event in enumerate(graph.events):
            cand = edge_candidate(pattern, edge_id, index, event, graph, outcomes)
            if cand is not None:
                candidates.append(cand)
        out[edge_id] = candidates
    return out


def _iso_candidates(pattern: PatternGraph, graph: SystemGraph) -> dict[str, list[tuple[str, int, int, Mapping, Mapping]]]:
    """Per isolated policy node, the snapshot spans whose attributes its
    tests and captures do not falsify, as (object, first, last, captures,
    attrs): the node may take the object at any instant first..last.  A
    snapshot holds over its whole span, so each is judged once."""
    out: dict[str, list[tuple[str, int, int, Mapping, Mapping]]] = {}
    for node_id in pattern.key_ids[1]:
        plan = pattern.plans[node_id]
        candidates = []
        for obj_id in graph.object_ids():
            for first, last, attrs in graph.snapshot_spans(obj_id):
                found, captures = plan(attrs), {}
                if found is not None and _bind((found,), captures) is not None:
                    candidates.append((obj_id, first, last, captures, attrs))
        out[node_id] = candidates
    return out


def match_pattern(
    pattern: PatternGraph,
    graph: SystemGraph,
    cap: int = DEFAULT_MATCH_CAP,
    policy_name: str = "?",
) -> list[Match]:
    """Every match of a pattern, in Match.key() order (see each_match).  More
    than `cap` matches raise MatchCapExceeded."""
    matches: list[Match] = []

    def finish(edge_events, iso_objects, node_objects, bindings) -> None:
        matches.append(Match(policy_name, dict(edge_events), dict(iso_objects), dict(node_objects), bindings))
        if len(matches) > cap:
            raise MatchCapExceeded(policy_name, cap)

    each_match(pattern, graph, finish, policy_name)
    if len(matches) > 1:
        # Match.key() order: an assignment fixes its bindings, so its events by
        # sorted edge id, then its pairs by sorted node id, decide the order
        edges, pairs = (itemgetter(*ids) if ids else lambda _: () for ids in pattern.key_ids)
        matches.sort(key=lambda m: (edges(m.edge_events), pairs(m.isolated_objects)))
    return matches


def each_match(
    pattern: PatternGraph,
    graph: SystemGraph,
    on_match: Callable[[Mapping[str, int], Mapping, Mapping[str, str], dict[str, Any]], None],
    policy_name: str = "?",
    edge_cands: Optional[Mapping[str, Sequence[_EdgeCandidate]]] = None,
) -> None:
    """Backtracking enumeration of every match of a pattern: calls
    on_match(edge_events, isolated_objects, node_objects, bindings) once
    per match, with the fields of its Match.  The three assignment dicts
    are the join's own, valid only during the call; an exception from
    on_match ends the search.

    Edges are assigned first, in ascending candidate-count order, then
    isolated nodes, in ascending order of the instants their spans cover.
    Each step binds the candidate's captures, pruning where one differs
    from its variable's value, and runs every filter whose variables are
    now all bound, older ones first.  The enumeration visits each
    assignment once, so no match comes twice.  A match reports, for each
    variable by sorted name, the capture of the first element in
    elements() order that captures it (a connected node's capture as its
    first incident edge reads it), whatever order the join met them in.
    `edge_cands`, when given, replaces _edge_candidates(): the matches are
    then those whose events come from these lists.  A variable that no plan captures (rule
    R1) raises MatchingError before any candidate is listed.
    """
    unowned = pattern.variables - pattern.owners.keys()
    if unowned:
        raise MatchingError(
            f"policy {policy_name!r}: variables {sorted(unowned)} have no capture and would be unbound at completion"
        )
    if edge_cands is None:
        edge_cands = _edge_candidates(pattern, graph)
    edge_order = sorted(edge_cands, key=lambda e: (len(edge_cands[e]), e))
    iso_cands = _iso_candidates(pattern, graph)
    iso_order = sorted(iso_cands, key=lambda n: (sum(last - first + 1 for _, first, last, _, _ in iso_cands[n]), n))
    edge_specs, plans, binding_owners = pattern.graph.edges, pattern.plans, pattern.binding_owners

    # The assignment dicts hold every id from the start, by sorted id, so a
    # match lists its assignments in that order whatever order the join
    # placed them in; placing fills an entry, backtracking blanks it again
    # (-1 is no event index, so the used-event test is not disturbed).
    blank_edges, blank_iso, blank_nodes = pattern.blank_assignment
    edge_events: dict[str, int] = blank_edges.copy()
    node_objects: dict[str, Optional[str]] = blank_nodes.copy()
    object_nodes: dict[str, str] = {}  # inverse view, for the injectivity check
    iso_objects: dict[str, Optional[tuple[str, int]]] = blank_iso.copy()
    bindings: dict[str, Any] = {}
    captured: dict[str, Mapping[str, Any]] = {}  # per placed edge or isolated node, its captures

    def claim(node_id: str, obj_id: str) -> Optional[list[str]]:
        """Try to map node_id to obj_id; returns the rollback list or None."""
        bound = node_objects[node_id]
        if bound is not None:
            return [] if bound == obj_id else None
        if obj_id in object_nodes:
            return None
        node_objects[node_id] = obj_id
        object_nodes[obj_id] = node_id
        return [node_id]

    def release(claimed: list[str]) -> None:
        for node_id in claimed:
            object_nodes.pop(node_objects[node_id])
            node_objects[node_id] = None

    def place(elt: str, captures: Mapping[str, Any], waiting: tuple, descend, position: int) -> None:
        """Bind an element's captures, run the filters now due, and go on
        to the next position."""
        added = _bind((captures.items(),), bindings) if captures else []
        if added is None:
            return
        if waiting:
            waiting = _settle(waiting, bindings)
        if waiting is not None:
            captured[elt] = captures
            descend(position + 1, waiting)
        for var in added:
            del bindings[var]

    def assign_iso(position: int, waiting: tuple) -> None:
        if position == len(iso_order):
            on_match(edge_events, iso_objects, node_objects, {v: captured[owner][v] for v, owner in binding_owners})
            return
        node_id = iso_order[position]
        node_filters = plans[node_id].filters
        for obj_id, first, last, captures, attrs in iso_cands[node_id]:
            claimed = claim(node_id, obj_id)
            if claimed is None:
                continue
            due = waiting + tuple((f, attrs) for f in node_filters) if node_filters else waiting
            for instant in range(first, last + 1):
                iso_objects[node_id] = (obj_id, instant)
                place(node_id, captures, due, assign_iso, position)
            iso_objects[node_id] = None
            release(claimed)

    def assign_edges(position: int, waiting: tuple) -> None:
        if position == len(edge_order):
            assign_iso(0, waiting)
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
            edge_events[edge_id] = cand.event_index
            place(edge_id, cand.captures, waiting + cand.filters, assign_edges, position)
            edge_events[edge_id] = -1
            release(claimed_dest)
            release(claimed_src)

    try:
        assign_edges(0, ())
    finally:
        # The recursive closures refer to themselves; dropping them frees
        # the candidate lists now rather than at the collector's next pass.
        del assign_edges, assign_iso, place


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
    """Evaluate the requirement predicates at a domain match (see judge_requirement)."""
    return judge_requirement(p, m.edge_events, m.bindings, graph)


def judge_requirement(
    p: PolicyGraph, edge_events: Mapping[str, int], bindings: Mapping[str, Any], graph: SystemGraph
) -> tuple[bool, tuple[str, ...]]:
    """Evaluate the requirement predicates at the match with these edge
    events and bindings: whether all hold, and the elements that do not.

    Edge requirements see the matched event's parameters; node requirements
    see no attributes (rule R2 bans them) and run on bindings alone.  The
    bindings are complete, so every predicate gives a value; one that is no
    boolean raises PredicateTypeError.
    """
    failing: list[str] = []
    ground = p.requirement.ground
    for elt in p.checked_requirements:
        ctx = graph.events[edge_events[elt]].params if elt in p.graph.edges else {}
        value = ground[elt](ctx, bindings)
        if value is False:
            failing.append(elt)
        elif value is not True:
            raise PredicateTypeError(f"requirement on {p.name}/{elt} did not settle to a boolean", Const(value))
    return (not failing, tuple(failing))


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
