"""Streaming enforcement: decide each event as it arrives.

The monitor consumes the same records as ingest_trace, strictly serialized.
Object records update snapshots silently.  An event record is admitted
tentatively; every policy is re-checked, restricted to matches whose edge
assignment includes the new event.  If any such match fails its requirement
the event is denied and leaves no trace in the history.

Restriction to the new event is what the partial-match store buys: for each
policy it holds every viable partial edge assignment over committed events,
so a new event only has to extend stored partials rather than restart the
search.  Isolated policy nodes never bind to events, so policies whose
violations involve only isolated nodes produce no per-event denials; those
show up in verdicts() instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from .matching import (
    DEFAULT_MATCH_CAP,
    FALLBACK,
    CompositeVerdict,
    InvalidPolicyError,
    Match,
    MatchCapExceeded,
    MatchingError,
    check_requirement,
    edge_captures,
    merge_captures,
    node_captures,
    verdict_all,
)
from .policy import PolicyGraph, domain_of, validate_policy
from .predicates import TRUE, Conditions, merge_conditions, satisfy
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


@dataclass
class _Partial:
    """A viable assignment of a subset of one policy's edges to events."""

    edge_events: dict[str, int]
    node_objects: dict[str, str]
    conds: Conditions


class _PolicyStore:
    def __init__(self, policy: PolicyGraph):
        self.policy = policy
        self.pattern = domain_of(policy)
        self.edge_ids = sorted(policy.graph.edges)
        self.iso_ids = policy.graph.isolated_nodes()
        self.partials: list[_Partial] = [_Partial({}, {}, Conditions({}, TRUE))]


class Monitor:
    """Feed records with step(); read decisions as they come back.

    The committed history is exposed as .graph; verdicts() evaluates every
    policy against it, which after a denial-free stream equals the batch
    verdict on the same trace.
    """

    def __init__(self, policies: Sequence[PolicyGraph], match_cap: int = DEFAULT_MATCH_CAP):
        for p in policies:
            issues = validate_policy(p)
            if issues:
                raise InvalidPolicyError(issues)
        self.policies = list(policies)
        self.match_cap = match_cap
        self.graph = SystemGraph()
        self._stores = [_PolicyStore(p) for p in self.policies]
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
        event_index = len(self.graph.events) - 1
        denied_by: list[str] = []
        grown: list[list[_Partial]] = []
        over_cap: Optional[str] = None
        for store in self._stores:
            new_partials, failing = self._extend(store, event, event_index)
            grown.append(new_partials)
            if failing:
                denied_by.append(store.policy.name)
            elif over_cap is None and len(store.partials) + len(new_partials) > self.match_cap:
                over_cap = store.policy.name
        if denied_by:
            self.graph._drop_last_event()
            return Decision(event.time, event.src, event.dest, False, tuple(sorted(denied_by)))
        if over_cap is not None:
            self.graph._drop_last_event()  # the raise keeps nothing of the event
            raise MatchCapExceeded(over_cap, self.match_cap)
        for store, new_partials in zip(self._stores, grown):
            store.partials.extend(new_partials)
        return Decision(event.time, event.src, event.dest, True, ())

    def _extend(self, store: _PolicyStore, event: SystemEvent, event_index: int) -> tuple[list[_Partial], bool]:
        """Extend stored partials with the new event; report whether some
        completed match fails its requirement."""
        new_partials: list[_Partial] = []
        failing = False
        found: dict[str, Any] = {}  # per edge, its domains' captures at the event, once needed
        for partial in store.partials:
            for edge_id in store.edge_ids:
                if edge_id in partial.edge_events:
                    continue
                extended = self._try_assign(store, partial, edge_id, event, event_index, found)
                if extended is None:
                    continue
                new_partials.append(extended)
                if len(extended.edge_events) == len(store.edge_ids):
                    if self._complete_fails(store, extended):
                        failing = True
        return new_partials, failing

    def _try_assign(
        self,
        store: _PolicyStore,
        partial: _Partial,
        edge_id: str,
        event: SystemEvent,
        event_index: int,
        found: dict[str, Any],
    ) -> Optional[_Partial]:
        spec = store.policy.graph.edges[edge_id]
        node_objects = dict(partial.node_objects)
        for node_id, obj_id in ((spec.src, event.src), (spec.dest, event.dest)):
            bound = node_objects.get(node_id)
            if bound is not None:
                if bound != obj_id:
                    return None
            elif obj_id in node_objects.values():
                return None  # another policy node already owns this object
            else:
                node_objects[node_id] = obj_id
        if edge_id not in found:
            found[edge_id] = edge_captures(store.pattern, edge_id, event, self.graph)
        conds = merge_captures(partial.conds, found[edge_id])
        if conds is FALLBACK:
            preds = store.pattern.preds
            conds = merge_conditions(
                [
                    partial.conds,
                    satisfy(preds[edge_id], event.params, {}),
                    satisfy(preds[spec.src], self.graph.src_attr(event), {}),
                    satisfy(preds[spec.dest], self.graph.dest_attr(event), {}),
                ]
            )
        if conds.is_false:
            return None
        return _Partial({**partial.edge_events, edge_id: event_index}, node_objects, conds)

    def _complete_fails(self, store: _PolicyStore, partial: _Partial) -> bool:
        """All edges assigned; close over isolated nodes and test requirements."""
        for iso_assignment, conds in self._close_isolated(store, partial):
            if conds.residual != TRUE:
                continue
            missing = store.pattern.variables - conds.bindings.keys()
            if missing:
                raise MatchingError(
                    f"policy {store.policy.name!r}: variables {sorted(missing)} unbound at completion"
                )
            bindings = {v: conds.bindings[v] for v in store.pattern.variables}
            m = Match(
                store.policy.name,
                dict(partial.edge_events),
                iso_assignment,
                dict(partial.node_objects),
                bindings,
            )
            satisfied, _ = check_requirement(store.policy, m, self.graph)
            if not satisfied:
                return True
        return False

    def _close_isolated(
        self, store: _PolicyStore, partial: _Partial
    ) -> Iterator[tuple[dict[str, tuple[str, int]], Conditions]]:
        """Enumerate isolated-node assignments over instants known so far."""

        def recurse(position: int, assignment: dict, used: set, conds: Conditions):
            if position == len(store.iso_ids):
                yield dict(assignment), conds
                return
            node_id = store.iso_ids[position]
            pred, plan = store.pattern.preds[node_id], store.pattern.plans[node_id]
            for obj_id in self.graph.object_ids():
                if obj_id in used or obj_id in partial.node_objects.values():
                    continue
                for instant in self.graph.instants(obj_id):
                    attrs = self.graph.attrs_at(obj_id, instant)
                    found = node_captures(plan, attrs)
                    if found is None:
                        continue
                    merged = merge_captures(conds, found)
                    if merged is FALLBACK:
                        merged = merge_conditions([conds, satisfy(pred, attrs, {})])
                    if merged.is_false:
                        continue
                    assignment[node_id] = (obj_id, instant)
                    used.add(obj_id)
                    yield from recurse(position + 1, assignment, used, merged)
                    used.discard(obj_id)
                    del assignment[node_id]

        yield from recurse(0, {}, set(), partial.conds)
