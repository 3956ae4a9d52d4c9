"""Streaming enforcement: decide each event as it arrives.

The monitor consumes the same records as ingest_trace, strictly serialized,
and checks and numbers them the same way.
Object records update snapshots silently.  An event record is admitted
tentatively; every policy is re-checked, restricted to matches whose edge
assignment includes the new event.  If any such match fails its requirement
the event is denied and leaves no trace in the history.

The restricted check is a delta query on the batch join, each_match.
A match containing the new event assigns it to exactly one edge, so
pinning each edge in turn to the new event's candidate, with every other
edge drawn from the candidates the committed events make for it, finds
each such match exactly once.  Only events are decided: a match that an
object record completes (a new snapshot for an isolated node, or any match
of a policy without edges) is never denied, and its violation shows up in
verdicts() instead.

The new event goes through matching.event_candidates once per policy, the
event step a batch pass folds over the trace: the policy's edge screen
gives, with one dict probe, the edges the event can take, and only those run
their plans, in sorted order, up to the first that raises.  In a stream
where most events take no edge, such an event costs each policy that probe,
and at most the judgement of the endpoint plans that may raise, kept so that
the same error is raised.  Node-plan outcomes are kept with each object's
newest snapshot, the only one an event can read, in the entry the graph
keeps for it (SystemGraph.judged_at), as a batch pass does; an object record
drops its object's entry, so an entry found is current and needs no lookup.

The join looks the committed candidates up (see matching); a one-edge
policy keeps none.  Each search hands the join the new event's candidate
pinned to one edge.  Where that candidate alone keys the lookup of a later
edge, its endpoint objects and captures, and no domain filter of the
policy can raise, the join makes that lookup before it places anything:
an empty one ends the search, so a candidate with nothing to pair with
costs one probe.  Where a policy's only requirement other than true, and
every domain filter, never raises, each operand $A != $B of its top-level
|| is an `equal` pair, as in Nicolas's violation-directed check (ACM TODS
1982): a failing match binds A and B equal, so a branch where they differ,
between any two elements, is pruned.

A decision only asks whether a failing match exists, so it is made as the
join yields its matches: each completed match is counted and its
requirement judged as the search meets it, and a policy's search returns
at its first failing match, with that match still in hand.  No Match is
built and nothing is sorted.  The search meets matches in join order, not
Match.key() order, so two rules say what an event does whatever that
order is:

- Violations win over type errors.  An event is denied when any policy has
  a failing match.  A requirement that raises, or gives no boolean, raises
  its PredicateTypeError only when no policy denies the event.  A domain
  predicate that raises still raises where the search meets it, which a
  search stopped at a violation never does.
- The cap counts the matches the search completes.  The matches one
  event makes for one policy are counted as the search completes them,
  over all edges pinned in turn, and the event raises MatchCapExceeded
  when the count passes match_cap before a failing match is found.  The
  matches that `equal` pairs prune, whose requirement holds, are not
  counted.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .matching import (
    DEFAULT_MATCH_CAP,
    Candidates,
    CompositeVerdict,
    InvalidPolicyError,
    MatchCapExceeded,
    each_match,
    event_candidates,
    judge_requirement,
    verdict_all,
)
from .matching import check_requirement  # noqa: F401  perfbench/tracing.py wraps it here
from .policy import PolicyGraph, domain_of, validate_policy
from .predicates import PredicateTypeError, always_flag, unequal_operands
from .predicates import merge_conditions  # noqa: F401  perfbench/tracing.py wraps it here
from .system import SystemEvent, SystemGraph, apply_record


class Decision(NamedTuple):
    """What the monitor made of one event: a named tuple, as it builds one
    per event (see matching's module docstring)."""

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
    makes for one policy, as the search completes and counts them
    (see the module docstring); exceeding it raises MatchCapExceeded and
    keeps nothing of the event.
    """

    def __init__(self, policies: Sequence[PolicyGraph], match_cap: int = DEFAULT_MATCH_CAP):
        for p in policies:
            issues = validate_policy(p)
            if issues:
                raise InvalidPolicyError(issues)
        self.policies = list(policies)
        self.match_cap = match_cap
        self.graph = SystemGraph()
        self._watched = [_Watched(p) for p in self.policies if p.graph.edges]
        self._cursor = 0
        self._records = 0  # records stepped, to number them as ingest_trace does

    def step(self, record: dict[str, Any]) -> list[Decision]:
        """Apply one record, a decoded JSON object, checked and numbered as
        ingest_trace does; an event record yields exactly one decision."""
        self._records += 1
        self._cursor, event = apply_record(self.graph, record, self._cursor, self._records)
        return [] if event is None else [self._decide(event)]

    def run(self, records: Iterable[dict[str, Any]]) -> Iterator[Decision]:
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
            for watched in self._watched:
                cands, raised = event_candidates(watched.pattern, index, event, self.graph)
                if raised is not None:
                    raise raised[1]
                fresh.append(cands)
                if cands:
                    violated, unsettled = _search(watched, cands, self.graph, self.match_cap)
                    if violated:
                        denied_by.append(watched.policy.name)
                    error = error or unsettled
            if error is not None and not denied_by:
                raise error
        except BaseException:
            self.graph._drop_last_event()  # a raise keeps nothing of the event
            raise
        if denied_by:
            self.graph._drop_last_event()
            return Decision(event.time, event.src, event.dest, False, tuple(sorted(denied_by)))
        for watched, cands in zip(self._watched, fresh):
            if watched.committed:
                for edge_id, cand in cands.items():
                    watched.committed[edge_id].append(cand)
        return Decision(event.time, event.src, event.dest, True, ())


class _Watched:
    """A policy with edges, its domain, its committed candidates per edge
    and its `equal` pairs (see the module docstring)."""

    __slots__ = ("policy", "pattern", "committed", "equal")

    def __init__(self, policy: PolicyGraph):
        self.policy, self.pattern = policy, domain_of(policy)
        self.committed = {e: Candidates() for e in policy.graph.edges} if len(policy.graph.edges) > 1 else {}
        requirements = [policy.requirement_preds[elt] for elt in policy.checked_requirements]
        quiet = len(requirements) == 1 and always_flag(requirements[0]) and self.pattern.quiet
        self.equal = unequal_operands(requirements[0]) if quiet else ()


def _search(
    watched: _Watched, cands: Mapping[str, Any], graph: SystemGraph, cap: int
) -> tuple[bool, Optional[PredicateTypeError]]:
    """Whether a match that pins the new event's candidate (cands, per
    edge) to one edge, the others drawn from the committed candidates,
    fails the policy's requirement; and, where none fails, the
    first PredicateTypeError a requirement raised.  Counting more than
    `cap` matches before a failing one raises MatchCapExceeded."""
    policy, count, error = watched.policy, 0, None
    for edge_id, cand in cands.items():
        for edge_events, _, _, bindings, _ in each_match(
            watched.pattern, graph, watched.committed, equal=watched.equal, pinned=(edge_id, cand)
        ):
            count += 1
            if count > cap:
                raise MatchCapExceeded(policy.name, cap)
            try:
                holds = judge_requirement(policy, edge_events, bindings, graph)[0]
            except PredicateTypeError as exc:
                error = error or exc
                continue
            if not holds:
                return True, None
    return False, error
