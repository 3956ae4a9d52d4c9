"""Rendering verdicts for people and for machines.

A report holds the verdicts of matching.verdict_all, whose witnesses are
matching.Witness records, each with its matching.Match: named tuples.  The
JSON Lines form carries one record per witness plus a trailing summary
record, keeping every match.  The text form is for reading: witnesses that
permute the policy edges over the same events, with the same isolated pairs,
bindings of the same JSON text and the same outcome, collapse into one line
with a multiplicity.  The JSON text, not equality, decides, so 1, 1.0 and
true, or 0.0 and -0.0, stay apart.  A policy with fewer than two edges has no
permutations, so its witnesses are not compared.  Each verdict's lines come
from one % template, built from its sorted edge, isolated-node and variable
ids, and each binding's JSON text is computed once per distinct value.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

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


def _line_template(edge_ids: Sequence[str], iso_ids: Sequence[str], var_ids: Sequence[str]) -> str:
    """A verdict's `match:` line as a % template, whose arguments are each
    edge's event, each isolated node's object and instant, each binding's
    JSON text, by sorted id, then the outcome and the collapse note."""

    def esc(name: str) -> str:
        return name.replace("%", "%%")

    mapping = ", ".join([esc(e) + "→ev%s" for e in edge_ids] + [esc(n) + "→%s@t%s" for n in iso_ids])
    binds = ", ".join([f"${esc(k)}=%s" for k in var_ids])
    return f"  match: {mapping or '(empty)'}" + (f" with {binds}" if binds else "") + " -> %s%s"


def render_text(report: Report) -> str:
    lines = []
    collapsed_any = False
    # a binding's JSON text, computed once per value: keyed by the value
    # itself for an exact str, int or bool, otherwise by its repr, so that
    # 0.0 and -0.0 (equal, and of equal hash) stay apart
    json_text: dict[tuple, str] = {}

    def show(bindings: Mapping[str, Any], var_ids: Sequence[str]) -> tuple[str, ...]:
        texts = []
        for var in var_ids:
            value = bindings[var]
            kind = type(value)
            key = (kind, value) if kind is str or kind is int or kind is bool else (kind, repr(value))
            text = json_text.get(key)
            if text is None:
                text = json_text[key] = json.dumps(to_json(value))
            texts.append(text)
        return tuple(texts)

    for v in report.verdicts:
        status = "upheld" if v.upheld else "VIOLATED"
        lines.append(f"policy {v.policy}: {status} ({len(v.witnesses)} match(es))")
        if not v.witnesses:
            continue
        first = v.witnesses[0].match
        edge_ids, iso_ids, var_ids = sorted(first.edge_events), sorted(first.isolated_objects), sorted(first.bindings)
        template = _line_template(edge_ids, iso_ids, var_ids)
        if len(edge_ids) < 2:  # no two witnesses share a line
            rows = [(w, show(w.match.bindings, var_ids), 1) for w in v.witnesses]
        else:  # witnesses collapse on their binding texts, so 1, 1.0 and true differ
            entries: dict[tuple, list] = {}  # collapse key -> [first witness, its binding texts, count]
            for w in v.witnesses:
                m = w.match
                texts = show(m.bindings, var_ids)
                key = (
                    tuple(sorted(m.edge_events.values())),
                    tuple([m.isolated_objects[n] for n in iso_ids]),
                    texts,
                    w.failing,  # in element order, and empty exactly when satisfied
                )
                entries.setdefault(key, [w, texts, 0])[2] += 1
            rows = entries.values()
        for w, texts, count in rows:
            m = w.match
            mark = "ok" if w.satisfied else "FAIL on " + ",".join(w.failing)
            note = f"  [x{count} edge orderings]" if count > 1 else ""
            collapsed_any = collapsed_any or count > 1
            lines.append(template % (
                *[m.edge_events[e] for e in edge_ids],
                *[x for n in iso_ids for x in m.isolated_objects[n]],
                *texts,
                mark,
                note,
            ))
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
