"""Spans around the engine's public functions, for the traced run.

A Tracer replaces a function with a wrapper at the place its caller looks
it up (a module global, or a class attribute for methods) and puts the
original back in restore().  Each call records a span: id, name, start, end,
parent span and operation id.  Self time (duration minus the time covered
by child spans) and call counts are summed as spans close, so every span
counts even when only the first KEEP_SPANS spans are kept for the spans
file.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

KEEP_SPANS = 250_000


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [span id, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # outcomes seen at the boundaries
        self.spans: list[tuple] = []
        self.recording = True  # whether closed spans are still kept
        self.op = 0
        self._next_id = 1
        self._patched: list[tuple] = []

    def _open(self) -> None:
        self.stack.append([self._next_id, 0.0])
        self._next_id += 1

    def _close(self, name: str, start: float) -> None:
        end = perf_counter()
        span_id, children = self.stack.pop()
        duration = end - start
        parent = 0
        if self.stack:
            self.stack[-1][1] += duration
            parent = self.stack[-1][0]
        self.self_s[name] += duration - children
        self.total_s[name] += duration
        self.calls[name] += 1
        if self.recording and len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.op))

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, owner, attr: str, name: str, on_result=None, new_op: bool = False) -> None:
        """Wrap a function; with `new_op` each call starts an operation."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if new_op:
                tracer.op += 1
            start = perf_counter()
            tracer._open()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(name, start)
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, attr, original, traced)

    def wrap_iter(self, owner, attr: str, name: str, on_item=None) -> None:
        """Wrap a generator function: each step of the iterator is a span."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                start = perf_counter()
                tracer._open()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, start)
                if on_item is not None:
                    on_item(item)
                yield item

        self._patch(owner, attr, original, traced)

    def _patch(self, owner, attr, original, traced) -> None:
        traced.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every original back, newest first; raise if one is missing."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**header, "fields": ["id", "name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def install(tracer: Tracer, pg) -> None:
    """Wrap the public functions of each layer where their callers look
    them up.  `pg` holds the policygraph modules as attributes."""
    w, wi = tracer.wrap, tracer.wrap_iter
    counts = tracer.counts

    def count(key, amount):
        def on_result(result):
            counts[key] += amount(result)

        return on_result

    # cli: the entry point and the calls it makes
    w(pg.cli, "run", "cli.run")
    w(pg.cli, "load_policies", "policy.load_policies")
    wi(pg.cli, "read_jsonl", "system.read_jsonl")
    w(pg.cli, "ingest_trace", "system.ingest_trace")
    w(pg.cli, "build_report", "reports.build_report")
    w(pg.cli, "render_text", "reports.render_text", count("reports.bytes", lambda text: len(text.encode())))
    # policy
    w(pg.policy, "parse_policy_set", "policy.parse_policy_set")
    for module in (pg.cli, pg.matching, pg.monitor):
        w(module, "validate_policy", "policy.validate_policy")
    # system
    w(pg.monitor, "apply_record", "system.apply_record")
    w(pg.algebra, "ingest_trace", "system.ingest_trace")
    w(pg.system.SystemGraph, "attrs_at", "system.attrs_at")
    # predicates, as matching and the monitor call them
    w(pg.matching, "satisfy", "predicates.satisfy")
    w(pg.matching, "evaluate", "predicates.evaluate")
    for module in (pg.matching, pg.monitor):
        w(module, "merge_conditions", "predicates.merge_conditions")
    # matching
    w(pg.reports, "verdict_all", "matching.verdict_all")
    w(pg.matching, "verdict", "matching.verdict")
    for module in (pg.matching, pg.algebra):
        w(module, "find_matches", "matching.find_matches", count("matching.matches", len))
    w(pg.matching, "match_pattern", "matching.match_pattern")
    for module in (pg.matching, pg.monitor, pg.algebra):
        w(module, "check_requirement", "matching.check_requirement",
          count("matching.violations", lambda result: not result[0]))
    # monitor: one operation per record
    w(pg.monitor.Monitor, "step", "monitor.step",
      count("monitor.denied", lambda decisions: sum(1 for d in decisions if not d.allowed)), new_op=True)

    # algebra: one operation per universe system
    def on_system(_):
        tracer.op += 1
        counts["algebra.systems"] += 1

    wi(pg.algebra, "enumerate_systems", "algebra.enumerate_systems", on_system)
    w(pg.algebra, "eval_policy_expr", "algebra.eval_policy_expr")
    w(pg.algebra, "pattern_matches_bounded", "algebra.pattern_matches_bounded")
    w(pg.algebra, "coverage_compare", "algebra.coverage_compare")
    w(pg.algebra, "contains", "algebra.contains")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per round, as (value, unit)."""
    s, total, calls, counts = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts

    def per_round(value):
        return value / rounds

    def sec(*names):
        return per_round(sum(s[n] for n in names)), "s"

    def n(name):
        return per_round(calls[name]), "count"

    def c(name):
        return per_round(counts[name]), "count"

    satisfy_calls = calls["predicates.satisfy"]
    return {
        "policy.parse_s": sec("policy.load_policies", "policy.parse_policy_set"),
        "policy.validate_calls": n("policy.validate_policy"),
        "policy.validate_s": sec("policy.validate_policy"),
        "system.decode_s": sec("system.read_jsonl"),
        "system.ingest_s": sec("system.ingest_trace", "system.apply_record"),
        "system.attrs_at_calls": n("system.attrs_at"),
        "system.attrs_at_s": sec("system.attrs_at"),
        "predicates.satisfy_calls": n("predicates.satisfy"),
        "predicates.satisfy_s": sec("predicates.satisfy"),
        "predicates.merge_calls": n("predicates.merge_conditions"),
        "predicates.merge_s": sec("predicates.merge_conditions"),
        "predicates.evaluate_calls": n("predicates.evaluate"),
        "predicates.evaluate_s": sec("predicates.evaluate"),
        "matching.find_matches_calls": n("matching.find_matches"),
        "matching.find_matches_s": (per_round(total["matching.find_matches"]), "s"),
        "matching.join_self_s": sec("matching.match_pattern"),
        "matching.requirement_s": sec("matching.check_requirement"),
        "matching.matches": c("matching.matches"),
        "matching.violations": c("matching.violations"),
        "matching.matches_per_satisfy": (counts["matching.matches"] / satisfy_calls if satisfy_calls else 0.0, "ratio"),
        "monitor.step_self_s": sec("monitor.step"),
        "monitor.denied": c("monitor.denied"),
        "algebra.systems": c("algebra.systems"),
        "algebra.enumerate_s": sec("algebra.enumerate_systems"),
        "algebra.eval_calls": n("algebra.eval_policy_expr"),
        "algebra.eval_s": sec("algebra.eval_policy_expr"),
        "algebra.bounded_calls": n("algebra.pattern_matches_bounded"),
        "algebra.bounded_s": sec("algebra.pattern_matches_bounded"),
        "algebra.coverage_s": sec("algebra.coverage_compare", "algebra.contains"),
        "reports.build_s": sec("reports.build_report", "matching.verdict_all", "matching.verdict"),
        "reports.render_text_s": sec("reports.render_text"),
        "reports.bytes": c("reports.bytes"),
        "cli.self_s": sec("cli.run"),
    }
