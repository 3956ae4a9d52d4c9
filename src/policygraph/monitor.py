"""Streaming enforcement: decide each event as it arrives.

The monitor consumes the same records as ingest_trace, strictly serialized.
Object records update snapshots silently.  An event record is admitted
tentatively; every policy is re-checked, restricted to matches whose edge
assignment includes the new event.  If any such match fails its requirement
the event is denied and leaves no trace in the history.

The restricted check is a delta query on the batch matcher, match_pattern.
The monitor keeps, per policy edge, the candidates the committed events
make for it.  A match containing the new event assigns it to exactly one
edge, so pinning each edge in turn to the new event's candidate, with every
other edge drawn from the committed lists, finds each such match exactly
once.  Only events are decided: a match that an object record completes (a
new snapshot for an isolated node, or any match of a policy without edges)
is never denied, and its violation shows up in verdicts() instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .matching import (
    DEFAULT_MATCH_CAP,
    CompositeVerdict,
    InvalidPolicyError,
    MatchCapExceeded,
    check_requirement,
    edge_candidate,
    match_pattern,
    verdict_all,
)
from .policy import PolicyGraph, domain_of, validate_policy
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
    makes for one policy; exceeding it raises MatchCapExceeded and keeps
    nothing of the event.
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
        fresh = []  # per watched policy, the new event's candidate per edge
        try:
            for policy, pattern, committed in self._watched:
                cands = {}
                for edge_id in committed:
                    cand = edge_candidate(pattern, edge_id, index, event, self.graph)
                    if cand is not None:
                        cands[edge_id] = cand
                fresh.append(cands)
                matches = []
                for edge_id, cand in cands.items():
                    pinned = {**committed, edge_id: [cand]}
                    matches += match_pattern(pattern, self.graph, self.match_cap, policy.name, pinned)
                if len(matches) > self.match_cap:
                    raise MatchCapExceeded(policy.name, self.match_cap)
                if not all(check_requirement(policy, m, self.graph)[0] for m in matches):
                    denied_by.append(policy.name)
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
