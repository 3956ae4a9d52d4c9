"""Streaming enforcement: decide each event as it arrives.

The monitor consumes the same records as ingest_trace, strictly serialized.
Object records update snapshots silently.  An event record is admitted
tentatively; every policy is re-checked, restricted to matches whose edge
assignment includes the new event.  If any such match fails its requirement
the event is denied and leaves no trace in the history.

The restricted check is a delta query on the batch join, each_match.
The monitor keeps, per policy edge, the candidates the committed events
make for it.  A match containing the new event assigns it to exactly one
edge, so pinning each edge in turn to the new event's candidate, with every
other edge drawn from the committed lists, finds each such match exactly
once.  Only events are decided: a match that an object record completes (a
new snapshot for an isolated node, or any match of a policy without edges)
is never denied, and its violation shows up in verdicts() instead.

A decision only asks whether a failing match exists, so it is made inside
the join: each completed match is counted and its requirement judged as
the search meets it, and a policy's search stops at its first failing
match.  No Match is built and nothing is sorted.  The search meets matches
in join order, not Match.key() order, so two rules say what an event does
whatever that order is:

- Violations win over type errors.  An event is denied when any policy has
  a failing match.  A requirement that raises, or gives no boolean, raises
  its PredicateTypeError only when no policy denies the event.  A domain
  predicate that raises still raises where the search meets it, which a
  search stopped at a violation never does.
- The cap counts completed matches.  The matches one event makes for one
  policy are counted as the search completes them, over all edges pinned
  in turn, and the event raises MatchCapExceeded when the count passes
  match_cap before a failing match is found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from .matching import (
    DEFAULT_MATCH_CAP,
    CompositeVerdict,
    InvalidPolicyError,
    MatchCapExceeded,
    each_match,
    edge_candidate,
    judge_requirement,
    verdict_all,
)
from .matching import check_requirement  # noqa: F401  perfbench/tracing.py wraps it here
from .policy import PatternGraph, PolicyGraph, domain_of, validate_policy
from .predicates import PredicateTypeError
from .predicates import merge_conditions  # noqa: F401  perfbench/tracing.py wraps it here
from .system import SystemEvent, SystemGraph, apply_record


@dataclass(frozen=True)
class Decision:
    time: int
    src: str
    dest: str
    allowed: bool
    denied_by: tuple[str, ...]  # names of the policies a new failing match belongs to

    def line(self) -> str:
        """The monitor's output format: time, edge, outcome, policy."""
        verdict = "allow" if self.allowed else "deny"
        policy = self.denied_by[0] if self.denied_by else "-"
        return f"{self.time}\t{self.src}->{self.dest}\t{verdict}\t{policy}"


class Monitor:
    """Feed records with step(); read decisions as they come back.

    The committed history is exposed as .graph; verdicts() evaluates every
    policy against it, which after a denial-free stream equals the batch
    verdict on the same trace.  match_cap bounds the matches one event
    makes for one policy, as the search counts them (see the module
    docstring); exceeding it raises MatchCapExceeded and keeps nothing of
    the event.
    """

    def __init__(self, policies: Sequence[PolicyGraph], match_cap: int = DEFAULT_MATCH_CAP):
        for p in policies:
            issues = validate_policy(p)
            if issues:
                raise InvalidPolicyError(issues)
        self.policies = list(policies)
        self.match_cap = match_cap
        self.graph = SystemGraph()
        # per policy with edges: its domain and, per edge, the candidates of
        # the committed events
        self._watched = [
            (p, domain_of(p), {edge_id: [] for edge_id in sorted(p.graph.edges)})
            for p in self.policies
            if p.graph.edges
        ]
        self._cursor = 0
        # node plan outcomes per snapshot (see edge_candidate); a snapshot
        # never changes in place, so they hold for the monitor's life
        self._outcomes: dict = {}

    def step(self, record: Mapping[str, Any]) -> list[Decision]:
        """Apply one record; an event record yields exactly one decision."""
        self._cursor, event = apply_record(self.graph, dict(record), self._cursor)
        if event is None:
            return []
        return [self._decide(event)]

    def run(self, records: Iterable[Mapping[str, Any]]) -> Iterator[Decision]:
        for record in records:
            yield from self.step(record)

    def verdicts(self) -> CompositeVerdict:
        return verdict_all(self.policies, self.graph, self.match_cap)

    # internals

    def _decide(self, event: SystemEvent) -> Decision:
        index = len(self.graph.events) - 1
        denied_by: list[str] = []
        error = None  # the first requirement that raised; raised only if nothing denies
        fresh = []  # per watched policy, the new event's candidate per edge
        try:
            for policy, pattern, committed in self._watched:
                cands = {}
                for edge_id in committed:
                    cand = edge_candidate(pattern, edge_id, index, event, self.graph, self._outcomes)
                    if cand is not None:
                        cands[edge_id] = cand
                fresh.append(cands)
                if cands:
                    violated, raised = _search(policy, pattern, committed, cands, self.graph, self.match_cap)
                    if violated:
                        denied_by.append(policy.name)
                    error = error or raised
            if error is not None and not denied_by:
                raise error
        except BaseException:
            self.graph._drop_last_event()  # a raise keeps nothing of the event
            raise
        if denied_by:
            self.graph._drop_last_event()
            return Decision(event.time, event.src, event.dest, False, tuple(sorted(denied_by)))
        for (_, _, committed), cands in zip(self._watched, fresh):
            for edge_id, cand in cands.items():
                committed[edge_id].append(cand)
        return Decision(event.time, event.src, event.dest, True, ())


class _Violation(Exception):
    """Ends a decision's search at its first failing match."""


def _search(
    policy: PolicyGraph,
    pattern: PatternGraph,
    committed: Mapping[str, Sequence],
    cands: Mapping[str, Any],
    graph: SystemGraph,
    cap: int,
) -> tuple[bool, Optional[PredicateTypeError]]:
    """Whether a match that pins the new event's candidate (cands, per
    edge) to one edge, the others drawn from the committed lists, fails the
    policy's requirement; and, where none fails, the first
    PredicateTypeError a requirement raised.  Counting more than `cap`
    matches before a failing one raises MatchCapExceeded."""
    count = 0
    error = None

    def judge(edge_events, _isolated, _nodes, bindings) -> None:
        nonlocal count, error
        count += 1
        if count > cap:
            raise MatchCapExceeded(policy.name, cap)
        try:
            holds = judge_requirement(policy, edge_events, bindings, graph)[0]
        except PredicateTypeError as exc:
            error = error or exc
            return
        if not holds:
            raise _Violation

    try:
        for edge_id, cand in cands.items():
            each_match(pattern, graph, judge, policy.name, {**committed, edge_id: [cand]})
    except _Violation:
        return True, None
    return False, error
