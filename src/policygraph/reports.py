"""Rendering verdicts for people and for machines.

The JSON Lines form carries one record per witness plus a trailing summary
record, keeping every match.  The text form is for reading: witnesses that
permute the policy edges over the same events, with equal bindings and the
same outcome, collapse into one line with a multiplicity.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .matching import DEFAULT_MATCH_CAP, CompositeVerdict, Match, Verdict, Witness, verdict_all
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


def match_record(m: Match) -> dict[str, Any]:
    """A match's edges, isolated pairs and bindings, as `--mode match` prints them."""
    return {
        "edges": dict(sorted(m.edge_events.items())),
        "isolated": {n: list(pair) for n, pair in sorted(m.isolated_objects.items())},
        "bindings": {v: to_json(b) for v, b in sorted(m.bindings.items())},
    }


def witness_record(policy: str, w: Witness) -> dict[str, Any]:
    match = match_record(w.match)
    return {
        "policy": policy,
        "match": {"edges": match["edges"], "isolated": match["isolated"], "nodes": dict(sorted(w.match.node_objects.items()))},
        "bindings": match["bindings"],
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


def render_text(report: Report) -> str:
    lines = []
    collapsed_any = False
    json_text: dict[tuple, str] = {}  # (type, repr) of a binding value -> its JSON

    def show(value: Any) -> str:
        key = (type(value), repr(value))
        text = json_text.get(key)
        if text is None:
            text = json_text[key] = json.dumps(to_json(value))
        return text

    for v in report.verdicts:
        status = "upheld" if v.upheld else "VIOLATED"
        lines.append(f"policy {v.policy}: {status} ({len(v.witnesses)} match(es))")
        if not v.witnesses:
            continue
        first = v.witnesses[0].match
        edge_ids, iso_ids, var_ids = sorted(first.edge_events), sorted(first.isolated_objects), sorted(first.bindings)
        # with at most one edge, no two witnesses share a line; bindings of
        # equal (type, repr) have equal JSON text, so 1, 1.0 and true differ
        entries: dict[Any, list] = {}  # collapse key -> [first witness, count]
        for i, w in enumerate(v.witnesses):
            m = w.match
            key = i if len(edge_ids) < 2 else (
                tuple(sorted(m.edge_events.values())),
                tuple(m.isolated_objects[n] for n in iso_ids),
                tuple((type(m.bindings[k]), repr(m.bindings[k])) for k in var_ids),
                w.failing,  # in element order, and empty exactly when satisfied
            )
            entries.setdefault(key, [w, 0])[1] += 1
        for w, count in entries.values():
            m = w.match
            mapping = ", ".join(
                [f"{e}→ev{m.edge_events[e]}" for e in edge_ids]
                + ["%s→%s@t%s" % (n, *m.isolated_objects[n]) for n in iso_ids]
            )
            binds = ", ".join([f"${k}={show(m.bindings[k])}" for k in var_ids])
            mark = "ok" if w.satisfied else "FAIL on " + ",".join(w.failing)
            note = f"  [x{count} edge orderings]" if count > 1 else ""
            collapsed_any = collapsed_any or count > 1
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
