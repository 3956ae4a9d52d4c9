"""Enumerating the places where a policy's domain holds in a system graph.

A match assigns policy edges to distinct events and isolated policy nodes to
(object, instant) pairs, together with the variable bindings the domain forces.
Connected policy nodes are not assigned directly: each incident event fixes
them, and all events incident to one policy node must agree on the object.
Distinct policy nodes must map to distinct objects.

Bindings are never guessed from the value universe.  Each domain predicate is
compiled once (predicates.BindingPlan, kept on the pattern) into tests,
captures and filters.  A candidate for an element passes its tests and binds
its captures, the `$X = e` equalities with e variable-free; the join carries
the bindings as a plain dict and prunes where two captures of one variable
differ.  Each filter, any other conjunct with a variable, runs once its element
is placed and every variable in it is bound.  This is sideways information
passing (Beeri & Ramakrishnan, "On the Power of Magic", PODS 1987).  Rule R1
guarantees that every variable has a capture, so every filter runs before a
match completes; that is why find_matches demands a policy that validates
cleanly.  The compiled forms are the evaluator: under complete bindings each
gives the value the interpreter (predicates.evaluate) folds to, or raises its
error.  A value that is no boolean does not hold.

Events are screened before any edge plan runs, as Rete's alpha network tests
constant conditions once (Forgy, AI 1982): a pattern's screen
(policy.EdgeScreen) gives, with one dict probe on an event attribute, the edges
the event can take, and still has edge_candidate judge the endpoint plans that
may raise of the edges it rejects, so every error is raised where it was.  A
batch pass walks the events in trace order, as the monitor meets them, and
judges each for the edges on its route in sorted order.  Node-plan outcomes are
kept by the graph, in the entry it holds per object for the snapshot they read
(SystemGraph.judged_at), so a node plan is judged once per snapshot.

The join is compiled once per (edge order, isolated-node order, `equal`) into a
JoinPlan kept in the pattern's join_plans (query compilation; Neumann, VLDB
2011): per position, the element, the nodes it claims, its lookup key and an
isolated node's filters, and no per-call state.  Each edge after the first is
looked up in a hash index of its candidates (Candidates.lookup), as Rete's
hashed beta memories do (Doorenbos, CMU 1995).  The index drops only candidates
that placing them would reject before any filter runs, and keeps list and edge
order, so a scan would find the same matches, in the same order, and raise the
same errors.

A match is returned as a Match, and a verdict holds one Witness per match, its
requirement's outcome.  Both are named tuples, as a batch pass builds two per
match: immutable, equal by fields (to a plain tuple of their fields too),
iterable and picklable; dataclasses.replace and fields do not apply to them."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Mapping, NamedTuple, Optional, Sequence

from .policy import PatternGraph, PolicyGraph, domain_of, validate_policy
from .predicates import Const, PredicateTypeError
from .predicates import evaluate, merge_conditions, satisfy  # noqa: F401  perfbench/tracing.py wraps them here
from .system import SystemEvent, SystemGraph
from .values import canonical, values_equal

DEFAULT_MATCH_CAP = 100_000
_ABSENT = object()
_NO_CAPTURES: Mapping[str, Any] = {}
_UNREAD = (None, ())  # an endpoint whose plan has neither steps nor filters


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


class Match(NamedTuple):
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


def _settle(waiting: tuple, bindings: Mapping[str, Any], pruned=()) -> Optional[tuple]:
    """Run, in order, each waiting (filter, context) pair whose variables
    are all bound.  None where one fails or raises one of the exceptions
    `pruned`; otherwise those still waiting."""
    still = []
    try:
        for pair in waiting:
            (_, variables, check), ctx = pair
            if not variables <= bindings.keys():
                still.append(pair)
            elif check(ctx, bindings) is not True:
                return None
    except pruned:
        return None
    return tuple(still)


@dataclass(slots=True)
class _EdgeCandidate:
    event_index: int
    src_obj: str
    dest_obj: str
    captures: Mapping[str, Any]  # its three domains' captures, in elements() order
    filters: tuple  # (filter, context) pairs whose variables those leave unbound


class Candidates(list):
    """One edge's candidates, with a hash index per key it was looked up
    by, built at the first lookup and extended at each later one to the
    members appended since.  Members may only be appended."""

    __slots__ = ("_indexes",)  # set at the first lookup

    def lookup(self, parts: tuple[tuple[str, ...], tuple[str, ...]], probe: tuple) -> Sequence[_EdgeCandidate]:
        """The members, in list order, whose fields parts[0], then captures
        of the variables parts[1], equal `probe` under == and hash, as
        values_equal values always do (see values.Distinct)."""
        indexes = getattr(self, "_indexes", None)
        if indexes is None:
            indexes = self._indexes = {}
        index, done = entry = indexes.get(parts) or indexes.setdefault(parts, [{}, 0])
        if done < len(self):
            fields, names = parts
            for cand in self[done:]:
                key = (*[getattr(cand, f) for f in fields], *[cand.captures[n] for n in names])
                index.setdefault(key, []).append(cand)
            entry[1] = len(self)
        return index.get(probe, ())


def edge_candidate(
    pattern: PatternGraph,
    edge_id: str,
    index: int,
    event: SystemEvent,
    graph: SystemGraph,
    screened_out: bool = False,
) -> Optional[_EdgeCandidate]:
    """The event at `index` as a candidate for a policy edge, or None where
    the edge's own, source or destination domain is false there: a test
    fails, two captures of one variable differ, or a filter whose
    variables those captures bind fails.  Once the outcome is false, a
    plan that cannot raise is skipped; one that can is still run, since the
    interpreter would report its error.  `screened_out` says that the
    pattern's screen has found the edge's own plan false at the event, so
    it is not called.

    An endpoint's snapshot and its node plan's outcome come from
    graph.judged_at, asked only where that plan has steps or filters.  A
    node plan's result depends only on the snapshot it reads, so it is
    judged once per snapshot.  A plan that raises stores nothing, so it
    raises again wherever it is reached."""
    spec, plans = pattern.graph.edges[edge_id], pattern.plans
    edge, src, dest = plans[edge_id], plans[spec.src], plans[spec.dest]
    on_edge = None if screened_out else edge(event.params)
    if on_edge is None and not (src.may_raise or dest.may_raise):
        return None
    src_ctx, on_src = graph.judged_at(event.src, event.time, src) if src.steps or src.filters else _UNREAD
    if on_src is None and not dest.may_raise:
        return None
    dest_ctx, on_dest = graph.judged_at(event.dest, event.time, dest) if dest.steps or dest.filters else _UNREAD
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


def _edge_candidates(pattern: PatternGraph, graph: SystemGraph, pruned=()) -> dict[str, Candidates]:
    """Per policy edge, every event's edge_candidate() that is neither None
    nor raises one of the exceptions `pruned`, in event order.  The events
    are walked in trace order, as the monitor meets them: each is routed by
    the pattern's screen once and judged for the edges on its route in
    sorted order.

    The error raised is that of the first edge, by sorted id, that raises
    at any event, at the first event where it does, as if each edge were
    walked over the whole trace in turn.  So once an edge has raised, later
    events are judged only for the edges before it, and the error is raised
    when the walk ends."""
    out = {edge_id: Candidates() for edge_id in pattern.key_ids[0]}
    route = pattern.screen.route
    error, raised = None, None  # the error to raise, and the edge that raised it
    for index, event in enumerate(graph.events):
        for edge_id, screened_out in route(event.params).items():
            if raised is not None and edge_id >= raised:
                break
            try:
                cand = edge_candidate(pattern, edge_id, index, event, graph, screened_out)
            except pruned:
                continue
            except Exception as exc:
                error, raised = exc, edge_id
                break
            if cand is not None:
                out[edge_id].append(cand)
    if error is not None:
        raise error
    return out


def _iso_candidates(
    pattern: PatternGraph, graph: SystemGraph, pruned=()
) -> dict[str, list[tuple[str, int, int, Mapping, Mapping]]]:
    """Per isolated policy node, the snapshot spans whose attributes its
    tests and captures do not falsify, as (object, first, last, captures,
    attrs): the node may take the object at any instant first..last.  A
    snapshot holds over its whole span, so each is judged once.  A span
    whose plan raises one of the exceptions `pruned` is none."""
    out: dict[str, list[tuple[str, int, int, Mapping, Mapping]]] = {}
    for node_id in pattern.key_ids[1]:
        plan = pattern.plans[node_id]
        candidates = []
        for obj_id in graph.object_ids():
            for first, last, attrs in graph.snapshot_spans(obj_id):
                try:
                    found, captures = plan(attrs), {}
                except pruned:
                    continue
                if found is not None and _bind((found,), captures) is not None:
                    candidates.append((obj_id, first, last, captures, attrs))
        out[node_id] = candidates
    return out


def _require_captures(pattern: PatternGraph, policy_name: str) -> None:
    """Raise MatchingError where a variable has no capture (rule R1)."""
    if pattern.free:
        raise MatchingError(
            f"policy {policy_name!r}: variables {list(pattern.free)} have no capture and would be unbound at completion"
        )


def match_pattern(
    pattern: PatternGraph,
    graph: SystemGraph,
    cap: int = DEFAULT_MATCH_CAP,
    policy_name: str = "?",
) -> list[Match]:
    """Every match of a pattern, in Match.key() order (see each_match).  More
    than `cap` matches raise MatchCapExceeded.  A variable that no plan
    captures (rule R1) raises MatchingError before any candidate is listed."""
    _require_captures(pattern, policy_name)
    matches: list[Match] = []

    def finish(edge_events, iso_objects, node_objects, bindings, _waiting) -> None:
        matches.append(Match(policy_name, dict(edge_events), dict(iso_objects), dict(node_objects), bindings))
        if len(matches) > cap:
            raise MatchCapExceeded(policy_name, cap)

    each_match(pattern, graph, finish)
    if len(matches) > 1:
        # Match.key() order: an assignment fixes its bindings, so its events by
        # sorted edge id, then its pairs by sorted node id, decide the order
        edges, pairs = (itemgetter(*ids) if ids else lambda _: () for ids in pattern.key_ids)
        matches.sort(key=lambda m: (edges(m.edge_events), pairs(m.isolated_objects)))
    return matches


class JoinPlan(NamedTuple):
    """A pattern's join for one (edge order, isolated-node order, `equal`)."""

    positions: tuple[tuple, ...]  # (element, is_edge, src, dest, filters, fixes, fresh, checks): see _compile_join
    keys: tuple  # per position, its lookup's (parts, nodes, variables), or None where its list is scanned
    owners: tuple[tuple[str, str], ...]  # the pattern's owners by sorted variable: the order a match lists its bindings


def each_match(
    pattern: PatternGraph,
    graph: SystemGraph,
    on_match: Callable[[Mapping[str, int], Mapping, Mapping[str, str], dict[str, Any], tuple], None],
    edge_cands: Optional[Mapping[str, Sequence[_EdgeCandidate]]] = None,
    *,
    equal: tuple[tuple[str, str], ...] = (),
    prune_errors: bool = False,
    pinned: Optional[tuple[str, _EdgeCandidate]] = None,
) -> None:
    """Backtracking enumeration of every match of a pattern: calls
    on_match(edge_events, isolated_objects, node_objects, bindings,
    waiting) once per match, with the fields of its Match and the (filter,
    context) pairs still waiting for a variable no plan captured (none
    under rule R1).  The assignment dicts are the join's own, valid only
    during the call; an exception from on_match ends the search.

    The pattern's JoinPlan for the order, compiled when first met, places
    edges by ascending candidate count, ties by id, then isolated nodes by
    ascending instants covered, in one loop with a cursor and an undo record
    per position.  A placement claims the element's nodes, binds its
    captures, pruning where one differs from its variable's value or a pair
    of `equal` differs, and runs every filter whose variables are now all
    bound, older first.  A match reports, per variable by sorted name, the
    capture of the first element in elements() order that captures it.
    `edge_cands` replaces _edge_candidates(); `pinned`, an (edge, candidate)
    pair, gives that edge the one candidate and has the lookups it alone
    keys made first, in edge_cands' Candidates: where one is empty and no
    filter can raise, nothing is placed.

    A PredicateTypeError raised while screening or filtering ends the
    search, unless `prune_errors` is set: then the candidate, span or
    branch it was raised for is dropped, as its top-level conjunct holds
    under no bindings the branch can still take.
    """
    pruned = PredicateTypeError if prune_errors else ()  # () catches nothing
    edge_cands = _edge_candidates(pattern, graph, pruned) if edge_cands is None else edge_cands
    edge_order, iso_order = pattern.key_ids
    pin_id, pin = pinned or (None, None)
    if len(edge_order) > 1:  # the ids are sorted, so ties keep id order
        edge_order = tuple(e for _, e in sorted((1 if e == pin_id else len(edge_cands[e]), e) for e in edge_order))
    sources = [(pin,) if e == pin_id else edge_cands[e] for e in edge_order]
    if iso_order:
        iso_cands = _iso_candidates(pattern, graph, pruned)
        iso_order = tuple(n for _, n in sorted((sum(l - f + 1 for _, f, l, _, _ in iso_cands[n]), n) for n in iso_order))
        sources += map(iso_cands.get, iso_order)
    if edge_order and not sources[0]:
        return  # an edge without candidates: nothing is placed and no filter runs
    positions, keys, owners = pattern.join_plans.get((edge_order, iso_order, equal)) or _compile_join(
        pattern, edge_order, iso_order, equal)
    if pin is not None:  # looked up where its position has a key; the probes go first, and their lists are scanned
        p = edge_order.index(pin_id)
        sources[p] = Candidates(sources[p]) if keys[p] is not None else sources[p]
        for q, fields, variables in positions[p][5]:
            probe = (*[getattr(pin, f) for f in fields], *[pin.captures[v] for v in variables])
            sources[q] = sources[q].lookup(keys[q][0], probe)
            if not sources[q]:
                return

    edge_events, iso_objects, node_objects = map(dict.copy, pattern.blank_assignment)
    object_nodes, bindings, captured = {}, {}, {}  # node_objects inverted; bindings; each placed element's captures
    cursors, undo, waits = [None] * (n := len(positions)), [None] * n, [()] * n  # per position: see the loop
    if not n:
        return on_match(edge_events, iso_objects, node_objects, {}, ())
    i, last = 0, n - 1
    while i >= 0:  # at position i: take back its last placement, place its cursor's next one, go on or go back
        elt, is_edge, src, dest, filters, _, fresh, checks = positions[i]
        if undo[i] is not None:
            (claimed, added), undo[i] = undo[i], None
            for node_id in claimed:
                del object_nodes[node_objects[node_id]]
                node_objects[node_id] = None
            for var in added:
                del bindings[var]
            (edge_events if is_edge else iso_objects)[elt] = -1 if is_edge else None  # -1: no event index
        if (cursor := cursors[i]) is None:
            cands = sources[i]
            if keys[i] is not None and isinstance(cands, Candidates):  # any other list is scanned, to the same end
                parts, nodes, variables = keys[i]
                cands = cands.lookup(parts, (*[node_objects[x] for x in nodes], *[bindings[v] for v in variables]))
            elif not is_edge and i < last:  # a span stands for each of its instants; the last position emits them
                cands = ((obj, t, t, caps, attrs) for obj, first, end, caps, attrs in cands for t in range(first, end + 1))
            cursor = cursors[i] = iter(cands)
        for cand in cursor:
            if is_edge:
                if cand.event_index in edge_events.values():
                    continue
                obj, other, captures, due, slot = cand.src_obj, cand.dest_obj, cand.captures, cand.filters, cand.event_index
            else:
                obj, first, end, captures, attrs = cand
                other, due, slot = obj, tuple((f, attrs) for f in filters) if filters else (), (obj, first)
            claimed, bound = [], node_objects[src]
            if bound is None and obj not in object_nodes:
                node_objects[src], object_nodes[obj] = obj, src
                claimed.append(src)
            elif bound != obj:
                continue
            undo[i] = (claimed, ())  # from here on a failure breaks, and the loop takes the claims back
            bound = node_objects[dest]  # src again for a self-loop or an isolated node
            if bound is None and other not in object_nodes:
                node_objects[dest], object_nodes[other] = other, dest
                claimed.append(dest)
            elif bound != other:
                break
            (edge_events if is_edge else iso_objects)[elt] = slot
            if fresh:  # none of its variables is bound yet
                bindings.update(captures)
                added = captures
            elif (added := _bind((captures.items(),), bindings)) is None:
                break
            undo[i] = (claimed, added)
            if checks and not all(values_equal(bindings[a], bindings[b]) for a, b in checks):
                break
            due = waits[i] + due
            if due and (due := _settle(due, bindings, pruned)) is None:
                break
            captured[elt] = captures
            if i < last:
                waits[i + 1] = due
                i += 1
            elif is_edge:  # a match; the loop takes this placement back and goes on
                on_match(edge_events, iso_objects, node_objects, {v: captured[o][v] for v, o in owners}, due)
            else:  # a match at each instant of the span
                for instant in range(first, end + 1):
                    iso_objects[elt] = (obj, instant)
                    on_match(edge_events, iso_objects, node_objects, {v: captured[o][v] for v, o in owners}, due)
            break
        else:
            cursors[i] = None
            i -= 1


def _compile_join(pattern: PatternGraph, edge_order: tuple, iso_order: tuple, equal: tuple) -> JoinPlan:
    """The plan that places the edges in edge_order, then the isolated nodes
    in iso_order, each its own src and dest.  An edge's lookup key holds its
    claimed endpoints against `nodes`, and its captures against the bound
    `variables` (or partners).  `fixes` are the later lookups the position's
    candidate alone keys, where no filter can raise; `fresh`, that it binds
    no bound variable; `checks`, the `equal` pairs whose last variable it
    binds; `filters`, an isolated node's."""
    edge_specs, plans = pattern.graph.edges, pattern.plans
    claimed, bound, keys, positions = set(), set(), [], []
    for elt in (*edge_order, *iso_order):
        spec = edge_specs.get(elt)
        src, dest = (spec.src, spec.dest) if spec else (elt, elt)
        captured = plans[elt].captured | plans[src].captured | plans[dest].captured
        found = [(f, n) for f, n in (("src_obj", src), ("dest_obj", dest)) if n in claimed]
        pairs = [(v, v) for v in sorted(captured & bound)]  # (captured, bound)
        pairs += [(b, a) for x, y in equal for a, b in ((x, y), (y, x)) if a in bound and b in captured - bound]
        parts = (tuple(f for f, _ in found), tuple(c for c, _ in pairs))
        keys.append((parts, tuple(n for _, n in found), tuple(v for _, v in pairs)) if spec and (found or pairs) else None)
        filters = () if spec else tuple(plans[elt].filters)
        checks = tuple(pair for pair in equal if set(pair) <= bound | captured and not set(pair) <= bound)
        positions.append([elt, bool(spec), src, dest, filters, captured, not captured & bound, checks])
        claimed |= {src, dest}
        bound |= captured
    for p, (_, _, src, dest, _, captured, _, _) in enumerate(positions):  # the captured variables give way to the fixes
        fields, later = {dest: "dest_obj", src: "src_obj"}, enumerate(keys[p + 1:] if pattern.quiet else (), p + 1)
        positions[p][5] = tuple((q, tuple(fields[n] for n in key[1]), key[2]) for q, key in later
                                if key and fields.keys() >= set(key[1]) and captured >= set(key[2]))
    plan = JoinPlan(tuple(map(tuple, positions)), tuple(keys), tuple(sorted(pattern.owners.items())))
    pattern.join_plans[(edge_order, iso_order, equal)] = plan
    return plan


def checked_domain(p: PolicyGraph) -> PatternGraph:
    """The policy's domain, the pattern find_matches joins, once its guards
    pass: a policy that does not validate cleanly raises
    InvalidPolicyError, and a variable without a capture MatchingError."""
    issues = validate_policy(p)
    if issues:
        raise InvalidPolicyError(issues)
    pattern = domain_of(p)
    _require_captures(pattern, p.name)
    return pattern


def find_matches(p: PolicyGraph, graph: SystemGraph, cap: int = DEFAULT_MATCH_CAP) -> list[Match]:
    """Every match of the policy's domain.  The policy must validate cleanly."""
    return match_pattern(checked_domain(p), graph, cap, p.name)


# --- verdicts ----------------------------------------------------------------


class Witness(NamedTuple):
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
