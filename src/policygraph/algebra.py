"""Combining policies: conjunction, disjunction, reversal, coverage.

Composite policies are expression trees over atomic policy graphs.  They are
evaluated with a per-match semantics: each subexpression denotes a set of
structurally-keyed matches, each carrying a requirement outcome.

    atom          matches of its domain; outcome = requirement satisfied
    conjunction   union of children's matches; outcomes AND together
    disjunction   union of children's matches; outcomes OR together
    reversal      child's matches with outcomes negated

Each subexpression is computed as two disjoint frozensets of match keys, T
(outcome true) and F (outcome false), so a connective is a few set
operations and no Python loop runs per key; Ts and Fs are the unions of
the children's sets:

    always        (empty, empty)
    conjunction   (Ts - Fs, Fs)
    disjunction   (Ts, Fs - Ts)
    reversal      (F, T)

A composite is upheld when every match's outcome is true: when F is empty.
An atom is judged in one pass of the shared join (_atom_outcomes).

Two consequences worth spelling out: conjunction of policies is exactly
"every operand upheld"; disjunction is weaker than that but stronger than a
boolean "or", because a shared match is excused when either operand's
requirement holds, while a match seen by only one operand must satisfy that
operand.  Matches
of policies with different graph shapes or variable sets never compare
equal, so combining unrelated policies degenerates to independent
enforcement.

An expression often holds one atom several times (an identity compares two
forms of the same policies), so each atom is matched once per system
state: its pair of key sets is kept in the system graph's memo
(SystemGraph.derived), keyed by the policy and the match cap, and any
record applied to the graph drops them, as does the policy's death.  This
is shared-subexpression elimination from multiple-query optimization
(Sellis, "Multiple-Query Optimization", ACM TODS 1988).

Coverage comparison and containment have no finite decision procedure over
all systems, so they are answered relative to explicit universe bounds and
labeled as such.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import weakref
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from .matching import (DEFAULT_MATCH_CAP, MatchCapExceeded, _require_captures, _settle, checked_domain, each_match,
                       event_candidates, judge_requirement, match_key)
from .matching import check_requirement, find_matches  # noqa: F401  perfbench/tracing.py wraps them here
from .policy import PatternGraph, PolicyGraph, domain_of, requirement_of
from .predicates import FALSE, TRUE, BinOp, Not, PredicateTypeError, attributes_of, constants_of, fold_constants
from .system import SystemEvent, SystemGraph, ingest_trace
from .values import Distinct, values_equal

log = logging.getLogger(__name__)


class DomainMismatchError(ValueError):
    """Same-domain graph operations need identical graphs, domains, variables."""


class UniverseCeilingError(RuntimeError):
    def __init__(self, ceiling: int):
        super().__init__(f"universe holds more than {ceiling} systems")
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
    """The operand's matches with their outcomes negated.  Built over a
    disjunction of atoms of different graph shapes, it logs one warning:
    per-match evaluation treats those atoms' matches as disjoint."""

    operand: PolicyExpr

    def __post_init__(self) -> None:
        operands = self.operand.operands if isinstance(self.operand, Disjunction) else ()
        if len({c.policy.graph.signature() for c in operands if isinstance(c, Atom)}) > 1:
            log.warning("reversal over a disjunction of differently-shaped policies; "
                        "evaluating per-match, which treats their matches as disjoint")


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
    active = p.checked_requirements
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


def _outcomes(e: PolicyExpr, graph: SystemGraph, cap: int) -> tuple[frozenset, frozenset]:
    """The expression's (T, F) key sets (see the module docstring).  An
    atom's pair is found once per state of the graph and shared."""
    if isinstance(e, Atom):
        p = e.policy
        key, memo = (id(p), cap), graph.derived()
        stored, out = memo.get(key, (None, None))
        if stored is None or stored() is not p:
            out = _atom_outcomes(p, graph, cap)
            # held weakly: the entry dies with its policy, before its id can
            # be reused; the graph is held weakly too, so no cycle keeps it
            memo[key] = weakref.ref(p, partial(_forget, weakref.ref(graph), key)), out
        return out
    if isinstance(e, Always):
        return frozenset(), frozenset()
    if isinstance(e, (Conjunction, Disjunction)):
        children = [_outcomes(c, graph, cap) for c in e.operands]
        true = frozenset().union(*[t for t, _ in children])
        false = frozenset().union(*[f for _, f in children])
        # a key is false under a conjunction where any child has it false,
        # and true under a disjunction where any child has it true
        return (true - false, false) if isinstance(e, Conjunction) else (true, false - true)
    if isinstance(e, Reversal):
        true, false = _outcomes(e.operand, graph, cap)
        return false, true
    raise TypeError(f"not a policy expression: {e!r}")


def _atom_outcomes(p: PolicyGraph, graph: SystemGraph, cap: int) -> tuple[frozenset, frozenset]:
    """An atom's (T, F), each match keyed and judged as each_match meets it,
    with no Match built or sorted, under find_matches' guards
    (checked_domain) and cap.  A requirement's PredicateTypeError is held
    until the join ends, so an error of the join wins, and then that of the
    first raising match in Match.key() order, as find_matches followed by
    check_requirement raise."""
    shape, upheld, failed, error = p.fingerprint, [], [], None  # error: (the raising match's key, its exception)
    for count, (edge_events, iso_objects, _, bindings, _) in enumerate(each_match(checked_domain(p), graph), 1):
        if count > cap:
            raise MatchCapExceeded(p.name, cap)
        key = match_key(edge_events, iso_objects, bindings)
        try:
            holds = judge_requirement(p, edge_events, bindings, graph)[0]
        except PredicateTypeError as exc:
            if error is None or key < error[0]:
                error = key, exc
            continue
        (upheld if holds else failed).append((shape, key))
    if error is not None:
        raise error[1]
    return frozenset(upheld), frozenset(failed)


def _forget(owner: weakref.ref, key: tuple, _dead: weakref.ref) -> None:
    """Drop a dead policy's entry from its graph's memo."""
    graph = owner()
    if graph is not None:
        graph.derived().pop(key, None)


def eval_policy_expr(e: Union[PolicyGraph, PolicyExpr], graph: SystemGraph, cap: int = DEFAULT_MATCH_CAP) -> bool:
    """Whether the composite policy is upheld on the system: whether no
    match's outcome is false."""
    return not _outcomes(_lift(e), graph, cap)[1]


# --- bounded universes --------------------------------------------------------


@dataclass(frozen=True)
class UniverseBounds:
    """A finite family of systems to quantify over.

    Objects o1..oN all carry every attribute in `attributes`, with values
    drawn from `values` independently per instant; events range over every
    (instant, source, destination) with every parameter assignment, up to
    `max_events` per system; an object is declared only at an instant, so
    bounds without one hold one system, the one without objects.
    `ceiling` guards against blow-up.  However
    the bounds are built, a field of the wrong type (_BOUNDS_FIELDS), then a
    negative count, then a parameter named "time", which events carry as
    their instant, then a value equal (values_equal) to an earlier one,
    raises a ValueError that names its field.  Lists are kept as tuples.
    """

    max_objects: int
    max_instances: int
    attributes: tuple[str, ...]
    parameters: tuple[str, ...]
    values: tuple[Any, ...]
    max_events: int = 2
    ceiling: int = 500_000

    def __post_init__(self) -> None:
        for name, what, ok in _BOUNDS_FIELDS:
            v = getattr(self, name)
            if not ok(v):
                raise ValueError(f"universe bounds field {name!r} must be {what}, got {v!r}")
            if isinstance(v, list):
                object.__setattr__(self, name, tuple(v))
        for name in ("max_objects", "max_instances", "max_events", "ceiling"):
            n = getattr(self, name)
            if n < 0:
                raise ValueError(f"universe bounds field {name!r} must not be negative, got {n}")
        if "time" in self.parameters:
            raise ValueError("universe bounds field 'parameters' holds 'time', which is injected into every event")
        for i, v in enumerate(self.values):
            if any(values_equal(v, w) for w in self.values[:i]):
                raise ValueError(f"universe bounds field 'values' holds {v!r}, equal to an earlier value")

    @staticmethod
    def from_json(text: str) -> "UniverseBounds":
        """Bounds from a JSON object.  Text that is not JSON raises
        json.JSONDecodeError; a field that is missing or unknown raises a
        ValueError naming it, as does any field the bounds refuse."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"universe bounds must be a JSON object, got {raw!r}")
        known = {f.name: f for f in fields(UniverseBounds)}
        for name, f in known.items():
            if name not in raw and f.default is MISSING:
                raise ValueError(f"universe bounds lack the field {name!r}")
        for name in raw:
            if name not in known:
                raise ValueError(f"universe bounds have no field {name!r}")
        return UniverseBounds(**raw)


def _is_count(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list_of(*kinds: type) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, (list, tuple)) and all(isinstance(m, kinds) for m in v)


_BOUNDS_FIELDS = (  # UniverseBounds' fields in order: what each must be, and its test
    ("max_objects", "an integer", _is_count),
    ("max_instances", "an integer", _is_count),
    ("attributes", "a list of names", _is_list_of(str)),
    ("parameters", "a list of names", _is_list_of(str)),
    ("values", "a list of numbers, strings and booleans", _is_list_of(str, int, float)),
    ("max_events", "an integer", _is_count),
    ("ceiling", "an integer", _is_count),
)


def _system_count(u: UniverseBounds) -> int:
    """The number of systems within the bounds, or the ceiling plus one for
    a universe past it: from one object on, no frame holds fewer systems
    than the one before, so the count stops once the frames left must take
    it past the ceiling."""
    total = 1  # the system without objects
    for k in range(1, _object_counts(u)):
        size = _frame_size(u, k)
        if total + size * (u.max_objects + 1 - k) > u.ceiling:
            return u.ceiling + 1
        total += size
    return total


def _object_counts(u: UniverseBounds) -> int:
    """The number of object counts whose frames hold distinct systems: an
    object is declared only at an instant, so without instants every
    frame holds the system without objects, and only the first is walked."""
    return u.max_objects + 1 if u.max_instances else 1


def _frame_size(u: UniverseBounds, k: int) -> int:
    """The number of systems with k objects, or the ceiling plus one where
    that is no smaller: no power or sum is taken further."""
    over, v = u.ceiling + 1, len(u.values)
    cells = k * u.max_instances * len(u.attributes)
    attr_configs = over if v > 1 and cells >= over.bit_length() else min(v ** cells, over)
    slots = u.max_instances * k * k * (v ** len(u.parameters))
    for event_choices in itertools.accumulate(math.comb(slots, j) for j in range(min(u.max_events, slots) + 1)):
        if event_choices >= over:
            break
    return min(attr_configs * event_choices, over)


class _Frame:
    """The systems of one object count k.

    A configuration is a tuple of value indices, one per (object, instant,
    attribute) cell, plus the ascending indices of the chosen event slots
    (instant, source, destination, parameter values); those that share
    their cells form an attribute block.
    """

    def __init__(self, u: UniverseBounds, k: int):
        self.universe, self.k = u, k
        self.ids = [f"o{i + 1}" for i in range(k)]
        self.cell_count = k * u.max_instances * len(u.attributes)
        params = list(itertools.product(range(len(u.values)), repeat=len(u.parameters)))
        # loops, not a product, which would list range(k) where there is no instant
        self.slots = [(t, src, dest, p)
                      for t in range(u.max_instances) for src in range(k) for dest in range(k) for p in params]
        self.events = [
            SystemEvent(self.ids[src], self.ids[dest], {
                **{name: u.values[i] for name, i in zip(u.parameters, p)}, "time": t + 1}, t + 1)
            for t, src, dest, p in self.slots
        ]

    def renamings(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """For every permutation of the k ids but the identity, the index
        maps that rename a configuration: where each cell of the image takes
        its value from, and what each slot becomes.

        Empty, the identity alone, when the group would cost more than it
        saves: when it has more members than the frame has configurations,
        or when its maps and its scans of the attribute blocks would take
        more steps than the universe's ceiling allows systems.
        """
        u, k, order = self.universe, self.k, 1
        for i in range(2, k + 1):
            order *= i
            if order > u.ceiling + 1:  # more than any frame's size: taken no further
                return []
        blocks = len(u.values) ** self.cell_count
        steps = order * (len(self.slots) + self.cell_count * (blocks + 1))
        if order == 1 or order > _frame_size(u, k) or steps > u.ceiling:
            return []
        instants, width = u.max_instances, len(u.attributes)
        index = {slot: i for i, slot in enumerate(self.slots)}
        return [
            (
                tuple((perm.index(obj) * instants + t) * width + a
                      for obj in range(k) for t in range(instants) for a in range(width)),
                tuple(index[t, perm[src], perm[dest], p] for t, src, dest, p in self.slots),
            )
            for perm in itertools.permutations(range(k))
        ][1:]  # the first permutation is the identity

    def block(self, attrs: tuple[int, ...]) -> SystemGraph:
        """The objects of an attribute block, ingested once for all its systems."""
        u, width = self.universe, len(self.universe.attributes)
        return ingest_trace([
            {"t": t + 1, "object": {"id": obj, "attrs": {
                name: u.values[v] for name, v in zip(u.attributes, attrs[cell * width:(cell + 1) * width])
            }}}
            for t in range(u.max_instances)
            for obj, cell in zip(self.ids, range(t, self.k * u.max_instances, u.max_instances))
        ])

    def choices(self) -> Iterator[tuple[int, ...]]:
        """The chosen slots of each system of a block, by event count."""
        slot_count = len(self.slots)
        for event_count in range(min(self.universe.max_events, slot_count) + 1):
            yield from itertools.combinations(range(slot_count), event_count)

    def system(self, block: SystemGraph, chosen: tuple[int, ...]) -> SystemGraph:
        """The configuration's system, equal to ingest_trace of its records
        and owning its lists and memos: a copy of its block plus the chosen
        slots' events in slot (time) order."""
        system = block.copy()
        for s in chosen:
            system._append_event(self.events[s])
        return system

    def candidates(self, block: SystemGraph, judged: dict, chosen: tuple, pattern: PatternGraph) -> Optional[dict]:
        """Per edge of the pattern, the candidates that matching's walk lists
        on the system of `chosen`, slot chosen[j] being event j, or None where
        a slot raised, for that walk to raise or prune.  A slot is judged once
        per block, as event 0, by event_candidates: it reads only its event
        and the block's snapshots.  `judged`, the block's, maps id(pattern) to
        (pattern, held so its id stays unique, its judgement per slot)."""
        outcomes = (judged.get(id(pattern)) or judged.setdefault(id(pattern), (pattern, {})))[1]
        out = {edge_id: [] for edge_id in pattern.key_ids[0]}
        for j, s in enumerate(chosen):
            cands, raised = outcomes.get(s) or outcomes.setdefault(s, event_candidates(pattern, 0, self.events[s], block))
            if raised is not None:
                return None
            for edge_id, cand in cands.items():  # each candidate serves as event 0, and takes a copy at any other index
                out[edge_id].append(cand.at(j) if j else cand)
        return out


def enumerate_systems(u: UniverseBounds) -> Iterator[SystemGraph]:
    """Every system within the bounds, in enumeration order: object count,
    then attribute values, then the number of events, then the chosen
    slots.  Each is its own graph, equal to ingest_trace of its records."""
    return (system for system, _, _ in orbit_systems(u, renaming=False))


def orbit_systems(u: UniverseBounds, renaming: bool = True) -> Iterator[tuple[SystemGraph, int, Callable]]:
    """One system per orbit of the object-renaming group, with the orbit's
    size, the number of distinct systems its renamings give, and its
    block's candidates: _Frame.candidates as a function of a pattern.

    A configuration is walked only when none of its renamings is smaller,
    compared as (attribute indices, slot indices), so each orbit is walked
    at its first member in enumerate_systems() order; the test runs on the
    indices, so a block that some renaming makes smaller is never ingested.
    With `renaming` false, and for an object count whose group
    _Frame.renamings() finds too costly, the group holds the identity alone
    and every system is walked with weight 1.  A universe past its ceiling
    raises UniverseCeilingError at the first step.
    """
    if _system_count(u) > u.ceiling:
        raise UniverseCeilingError(u.ceiling)
    for k in range(_object_counts(u)):
        if not u.values and k * u.max_instances * len(u.attributes):
            break  # a cell with no value to take: no system from this object count on
        frame = _Frame(u, k)
        renamings = frame.renamings() if renaming else []
        for attrs in itertools.product(range(len(u.values)), repeat=frame.cell_count):
            # renamings that move the attributes to a smaller tuple rule out
            # the whole block; those that keep them decide by the slots
            images = [(tuple(attrs[i] for i in source), slot_image) for source, slot_image in renamings]
            if any(image < attrs for image, _ in images):
                continue
            fixing = [slot_image for image, slot_image in images if image == attrs]
            block, judged = frame.block(attrs), {}
            for chosen in frame.choices():
                stabilizer = 1
                for slot_image in fixing:
                    image = tuple(sorted(slot_image[s] for s in chosen))
                    if image < chosen:
                        break
                    stabilizer += image == chosen
                else:
                    weight = (len(renamings) + 1) // stabilizer
                    yield frame.system(block, chosen), weight, partial(frame.candidates, block, judged, chosen)


def pattern_matches_bounded(
    pattern: PatternGraph,
    graph: SystemGraph,
    pool: Optional[Distinct] = None,
    choices: Sequence[tuple] = ((),),
    cap: int = DEFAULT_MATCH_CAP,
    edge_cands: Optional[dict] = None,
    policy_name: str = "?",
) -> set[tuple]:
    """The Match.key()s of a pattern's matches on a system, met in one
    loop over the shared join, matching.each_match (see _Comparison), on
    `edge_cands` as each_match takes them.  More than `cap` keys raise
    MatchCapExceeded, which names `policy_name`, as match_pattern's does.

    Without a pool the match is exact, as match_pattern's: every variable
    binds what its capture finds, a PredicateTypeError raises, and a
    pattern with a free variable raises match_pattern's MatchingError.
    With one, every variable ranges over the pool: a captured value not
    `in pool` (a NaN never is) is no match, and the pattern's free
    variables, which nothing captures, take each tuple of `choices`, NaN
    as any other pool value, under which the filters that waited for them
    run (matching._settle).  A binding under which a predicate raises
    PredicateTypeError is then no match, as in brute enumeration: the pool
    holds both patterns' constants, which the system may never bind.
    """
    if pool is None:
        _require_captures(pattern, policy_name)
    free, keys = pattern.free, set()
    for edge_events, iso_objects, _, bindings, waiting in each_match(pattern, graph, edge_cands, prune_errors=pool is not None):
        if pool is not None and not all(value in pool for value in bindings.values()):
            continue
        for choice in choices:  # ((),) when nothing is free: bindings serve as they are
            full = bindings | dict(zip(free, choice)) if choice else bindings
            if not waiting or _settle(waiting, full, PredicateTypeError) is not None:
                keys.add(match_key(edge_events, iso_objects, full))
        if len(keys) > cap:
            raise MatchCapExceeded(policy_name, cap)
    return keys


GREATER = "greater"
LESSER = "lesser"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class CoverageResult:
    """Relation between two patterns' match sets, relative to a universe.

    Bounded evidence only: `relation` says how the match sets compared on
    every system inside `universe`, nothing beyond it.  `systems_checked`
    counts the systems represented by the orbits walked (see
    coverage_compare): the universe's whole size when the walk ran to the
    end, fewer when it stopped at an incomparable pair.
    """

    relation: str
    universe: UniverseBounds
    systems_checked: int

    def __str__(self) -> str:
        return f"{self.relation} (bounded: {self.systems_checked} systems checked)"


class _Comparison:
    """Two patterns' match sets, compared system by system.

    Both are found by pattern_matches_bounded with `cap`.  When both
    patterns' own predicates force every variable (rule R1, as every domain
    of a valid policy does), neither leaves a variable free and both are
    matched exactly, so a capture of an object id or an instant binds what
    it finds.  Otherwise both are matched over the pair's value pool, the
    universe's values plus both patterns' constants: an exact match on one
    side only would bind ids and instants that the pool side can never bind.
    A pattern's free variables (PatternGraph.free) take every pool value,
    NaN included, as a binding the oracle enumerates.  The pool and each
    pattern's value tuples are worked out once per pair, not once per
    system, and equal patterns are matched once.  `names` are the policies
    the patterns come from, for the cap's error.
    """

    def __init__(self, g1: PatternGraph, g2: PatternGraph, u: UniverseBounds, cap: int, names: tuple[str, str]):
        pool = None
        if g1.free or g2.free:
            pool = Distinct(u.values)
            for const in (c for g in (g1, g2) for pred in g.preds.values() if pred != TRUE for c in constants_of(pred)):
                pool.add(const)  # an element without a predicate adds no value to try
        self.sides = [
            (g, name, pool, list(itertools.product(pool.values, repeat=len(g.free))) if g.free else ((),))
            for g, name in (((g1, names[0]),) if g2 == g1 else ((g1, names[0]), (g2, names[1])))
        ]
        self.cap = cap
        self.ge = self.le = True  # g1's matches include g2's / lie within them
        self.checked = 0

    def observe(self, system: SystemGraph, weight: int, candidates: Callable[[PatternGraph], Optional[dict]]) -> bool:
        """Compare on a system standing for `weight` systems, each pattern
        on the candidates that `candidates` gives it; whether the pair is
        still comparable."""
        self.checked += weight
        found = [pattern_matches_bounded(g, system, pool, choices, self.cap, candidates(g), name)
                 for g, name, pool, choices in self.sides]
        m1, m2 = found[0], found[-1]
        self.ge = self.ge and m2 <= m1
        self.le = self.le and m1 <= m2
        return self.ge or self.le

    def result(self, u: UniverseBounds) -> CoverageResult:
        relation = {(True, True): EQUAL, (True, False): GREATER, (False, True): LESSER}.get(
            (self.ge, self.le), INCOMPARABLE
        )
        return CoverageResult(relation, u, self.checked)


def _compare(
    pairs: Sequence[tuple[PatternGraph, PatternGraph]], u: UniverseBounds, cap: int, names: tuple[str, str] = ("?", "?")
) -> list[CoverageResult]:
    """Compare each pair of patterns in one walk over the universe's
    object-renaming orbits.  A pair stops being compared once it is
    incomparable; the walk stops when every pair is.  Each pair's patterns
    come from the policies `names`, which the cap's error names.

    Renaming the object ids maps match sets to match sets, which keeps every
    relation, except that ingestion copies each object's id into its
    attributes: when any predicate reads `id`, the walk takes every system.
    """
    renaming = not any("id" in attributes_of(pred) for pair in pairs for g in pair for pred in g.preds.values())
    comparisons = [_Comparison(g1, g2, u, cap, names) for g1, g2 in pairs]
    live = comparisons
    for system, weight, candidates in orbit_systems(u, renaming):
        live = [c for c in live if c.observe(system, weight, candidates)]
        if not live:
            break
    return [c.result(u) for c in comparisons]


def coverage_compare(g1: PatternGraph, g2: PatternGraph, u: UniverseBounds, cap: int = DEFAULT_MATCH_CAP) -> CoverageResult:
    """Compare where two patterns match across a bounded universe.

    Walks one system per orbit of the object-renaming group, weighted by
    the orbit's size (orbit_systems()), and stops at the first system where
    the relation becomes incomparable.  `systems_checked` is the sum of the
    weights walked: the universe's size when the walk runs to the end; after
    an early stop it counts whole orbits up to that system, so it may differ
    from the number of systems before it in enumerate_systems() order.
    Patterns are matched as _Comparison says; a pattern with more than
    `cap` matches on one system raises MatchCapExceeded.  The patterns come
    bare, with no policy to name, so that error names the policy '?'.
    """
    return _compare([(g1, g2)], u, cap)[0]


@dataclass(frozen=True)
class ContainmentResult:
    """Whether one policy contains another, relative to a universe;
    `systems_checked` as for CoverageResult, the larger of the domain and
    the requirement comparisons' counts."""

    holds: bool
    universe: UniverseBounds
    systems_checked: int

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        outcome = "contains" if self.holds else "does not contain"
        return f"{outcome} (bounded: {self.systems_checked} systems checked)"


def contains(p1: PolicyGraph, p2: PolicyGraph, u: UniverseBounds, cap: int = DEFAULT_MATCH_CAP) -> ContainmentResult:
    """Whether enforcing p1 implies enforcing p2, relative to the universe.

    Needs p1's domain to cover at least p2's (p1 applies wherever p2 does)
    and p1's requirement to demand at least as much (its permitted match set
    is no larger than p2's).  Both comparisons share one walk over the
    orbits, as in coverage_compare; each stops counting once it is
    incomparable, and the walk stops when both are.  `cap` bounds the
    matches per pattern and system, as in coverage_compare; its error names
    the policy whose pattern passed it.
    """
    dom, req = _compare(
        [(domain_of(p1), domain_of(p2)), (requirement_of(p1), requirement_of(p2))], u, cap, (p1.name, p2.name)
    )
    holds = dom.relation in (GREATER, EQUAL) and req.relation in (LESSER, EQUAL)
    return ContainmentResult(holds, u, max(dom.systems_checked, req.systems_checked))
