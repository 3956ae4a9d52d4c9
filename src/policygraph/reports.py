"""Rendering verdicts for people and for machines.

The JSON Lines form carries one record per witness plus a trailing summary
record, keeping every match (including permutations of parallel edges).  The
text form is for reading: witnesses that differ only in how parallel policy
edges map onto the same events collapse into one line with a multiplicity.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .matching import DEFAULT_MATCH_CAP, CompositeVerdict, Verdict, Witness, verdict_all
from .policy import PolicyGraph
from .system import SystemGraph
from .values import to_json


@dataclass(frozen=True)
class Report:
    composite: CompositeVerdict
    object_count: int
    event_count: int
    elapsed: float

    @property
    def upheld(self) -> bool:
        return self.composite.upheld

    @property
    def verdicts(self) -> tuple[Verdict, ...]:
        return self.composite.verdicts

    @property
    def match_count(self) -> int:
        return sum(len(v.witnesses) for v in self.verdicts)

    @property
    def violation_count(self) -> int:
        return sum(len(v.violations) for v in self.verdicts)


def build_report(
    policies: Sequence[PolicyGraph], graph: SystemGraph, cap: int = DEFAULT_MATCH_CAP
) -> Report:
    started = time.perf_counter()
    composite = verdict_all(policies, graph, cap)
    elapsed = time.perf_counter() - started
    return Report(composite, graph.object_count(), len(graph.events), elapsed)


def witness_record(policy: str, w: Witness) -> dict[str, Any]:
    return {
        "policy": policy,
        "match": {
            "edges": dict(sorted(w.match.edge_events.items())),
            "isolated": {n: list(pair) for n, pair in sorted(w.match.isolated_objects.items())},
            "nodes": dict(sorted(w.match.node_objects.items())),
        },
        "bindings": {v: to_json(b) for v, b in sorted(w.match.bindings.items())},
        "satisfied": w.satisfied,
        "failing": list(w.failing),
    }


def report_records(report: Report) -> Iterator[dict[str, Any]]:
    for v in report.verdicts:
        for w in v.witnesses:
            yield witness_record(v.policy, w)
    yield {
        "summary": {
            "upheld": report.upheld,
            "policies": len(report.verdicts),
            "objects": report.object_count,
            "events": report.event_count,
            "matches": report.match_count,
            "violations": report.violation_count,
            "elapsed": round(report.elapsed, 6),
        }
    }


def render_jsonl(report: Report) -> str:
    return "\n".join(json.dumps(r, sort_keys=True) for r in report_records(report)) + "\n"


def _collapse_key(w: Witness) -> tuple:
    """Witnesses equal up to permutation of policy edges over the same
    events share a key."""
    return (
        tuple(sorted(w.match.edge_events.values())),
        tuple(sorted(w.match.isolated_objects.items())),
        tuple(sorted((v, json.dumps(to_json(b), sort_keys=True)) for v, b in w.match.bindings.items())),
        w.satisfied,
        tuple(sorted(w.failing)),
    )


def render_text(report: Report) -> str:
    lines = []
    collapsed_any = False
    for v in report.verdicts:
        status = "upheld" if v.upheld else "VIOLATED"
        lines.append(f"policy {v.policy}: {status} ({len(v.witnesses)} match(es))")
        groups: dict[tuple, list[Witness]] = {}
        order: list[tuple] = []
        for w in v.witnesses:
            key = _collapse_key(w)
            if key not in groups:
                order.append(key)
            groups.setdefault(key, []).append(w)
        for key in order:
            group = groups[key]
            w = group[0]
            sample = witness_record(v.policy, w)
            mapping = ", ".join(f"{e}→ev{idx}" for e, idx in sample["match"]["edges"].items())
            for node, pair in sample["match"]["isolated"].items():
                mapping += (", " if mapping else "") + f"{node}→{pair[0]}@t{pair[1]}"
            binds = ", ".join(f"${k}={json.dumps(val)}" for k, val in sample["bindings"].items())
            mark = "ok" if w.satisfied else "FAIL on " + ",".join(w.failing)
            note = ""
            if len(group) > 1:
                collapsed_any = True
                note = f"  [x{len(group)} edge orderings]"
            lines.append(f"  match: {mapping or '(empty)'}" + (f" with {binds}" if binds else "") + f" -> {mark}{note}")
    lines.append(
        "composed: %s  (%d policies, %d matches, %d violations, %.3fs)"
        % (
            "upheld" if report.upheld else "VIOLATED",
            len(report.verdicts),
            report.match_count,
            report.violation_count,
            report.elapsed,
        )
    )
    if collapsed_any:
        lines.append("note: matches differing only in parallel-edge ordering are collapsed above")
    return "\n".join(lines) + "\n"
