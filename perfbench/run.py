#!/usr/bin/env python3
"""Benchmark of policygraph's three uses: batch check, streaming monitor and
policy algebra, on seeded workloads, with every output checked.

    python3 perfbench/run.py --workload nru_stream --seed 1 --seconds 20 --trace 0

A run generates the workload's inputs from the seed, times the set-up
(import, parse and validate the policies, construct the monitor and the
universe bounds) several times, then repeats whole rounds until `--seconds`
have passed.  A round is one `policygraph --mode check` pass through
`policygraph.cli.run`, the workload's monitor streams, one sweep of the
algebra identities over a bounded universe and one pair of containment
checks.  Each output is compared with perfbench/reference.py, which never
calls the engine.  The last line of standard output is one JSON object:
correct, attempted, failed and the metrics, each a median over the
run's rounds, with timings scaled to a reference interpreter speed (see
Scaler).

With `--trace 1` the run also times calls into each module's public
functions (perfbench/tracing.py) and reports per-layer figures instead,
plus the tracing overhead against untraced rounds of the same run.  Spans go
to perfbench/out/spans-<workload>.jsonl, results to
perfbench/out/result-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import re
import resource
import statistics
import sys
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference
import selftest
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("policy", "system", "predicates", "matching", "monitor", "algebra", "reports", "cli")
SETUPS = 11  # set-up repetitions; setup_s is their median
MIN_ROUNDS = 3
TRACED_MIN_PAIRS = 2  # (untraced, traced) round pairs in a traced run, at least

# The machine's interpreter speed drifts by tens of percent over seconds (other
# tenants share the cores).  A fixed loop of interpreter work is timed before
# and after every timed section, and between its intervals every CHUNK_S of
# timed work; each interval is scaled by how much slower than
# CALIBRATION_REFERENCE_S that loop ran, so figures read as if measured at
# the reference speed.  See README, "Noise".
CALIBRATION_LOOPS = 15_000  # iterations of the calibration loop
CALIBRATION_REFERENCE_S = 0.005
CHUNK_S = 0.05  # timed work between two calibrations

REPORT_LINE = re.compile(r"^policy (\S+): (upheld|VIOLATED) \((\d+) match\(es\)\)$")
COMPOSED_LINE = re.compile(r"^composed: (upheld|VIOLATED)\s+\((\d+) policies, (\d+) matches, (\d+) violations")


def import_engine() -> SimpleNamespace:
    """A fresh import of policygraph, so that each set-up pays for it."""
    for name in [n for n in sys.modules if n == "policygraph" or n.startswith("policygraph.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"policygraph.{m}") for m in MODULES})


def calibration_seconds() -> float:
    """Time a fixed mix of small allocations, dict and list building, method
    calls and isinstance tests: the kinds of work the engine's hot paths do.
    Every object it makes is dropped at once, so the loop never holds new
    memory: what a section left for the allocator to take back (an earlier
    loop that kept its objects read 5-8x slow after a large check pass) does
    not land in the reading."""
    start = perf_counter()
    kept = 0
    for i in range(CALIBRATION_LOOPS):
        cell = {"k": i, "v": (i, "x")}
        pair = [cell, i]
        if isinstance(pair[0], dict) and cell.get("k") % 3:
            kept += len(pair)
    return perf_counter() - start


def slowdown(readings: int = 1) -> float:
    """How many times slower than the reference the loop runs now, as the
    mean of `readings` runs of it."""
    return sum(calibration_seconds() for _ in range(readings)) / readings / CALIBRATION_REFERENCE_S


def decide_median(streams: list[list[float]]) -> float:
    """The median over a stream's events of each event's median decide time
    across `streams`, repeats of the same stream.  A spike of the machine
    lands on different events in different repeats, and the per-event
    median drops it."""
    return statistics.median(statistics.median(times) for times in zip(*streams))


class Bench:
    """One workload's inputs, expected outputs and timed sections."""

    def __init__(self, w: workloads.Workload):
        self.w = w
        self.records = w.records
        self.events = sum(1 for r in w.records if "event" in r)
        OUT.mkdir(exist_ok=True)
        self.policy_path = OUT / f"{w.name}.policy"
        self.trace_path = OUT / f"{w.name}.trace.jsonl"
        self.policy_path.write_text(w.policy_text, encoding="utf-8")
        self.trace_path.write_text("".join(json.dumps(r) + "\n" for r in w.records), encoding="utf-8")
        # expected outputs, from the reference model
        self.expect_check = {p: reference.check(p, w.records) for p in w.check}
        self.expect_decisions, self.kept = reference.monitor(w.monitor, w.records)
        self.identity_size = reference.universe_size(**w.identity_universe)
        self.contains_size = reference.universe_size(**w.contains_universe)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # set-up ---------------------------------------------------------------

    def setup(self) -> float:
        gc.collect()
        start = perf_counter()
        pg = import_engine()
        parse = pg.policy.parse_policy_set
        policies = {p.name: p for p in parse(self.w.policy_text) + parse(self.w.algebra_text)}
        for p in policies.values():
            issues = pg.policy.validate_policy(p)
            if issues:
                raise pg.matching.InvalidPolicyError(issues)
        pg.monitor.Monitor([policies[n] for n in self.w.monitor])
        bounds = [pg.algebra.UniverseBounds(**u) for u in (self.w.identity_universe, self.w.contains_universe)]
        elapsed = perf_counter() - start
        self.pg, self.policies = pg, policies
        self.identity_bounds, self.contains_bounds = bounds
        A = pg.algebra
        flow, flow2, tag = (policies[n] for n in ("flow", "flow2", "tag"))
        self.identities = [(A.Reversal(A.Reversal(A.Atom(p))), p) for p in (flow, flow2, tag)]
        for a, b in ((flow, tag), (flow, flow2)):
            self.identities.append(
                (A.conjoin(a, b), A.reverse_expr(A.disjoin(A.reverse_expr(a), A.reverse_expr(b))))
            )
            self.identities.append(
                (A.disjoin(a, b), A.reverse_expr(A.conjoin(A.reverse_expr(a), A.reverse_expr(b))))
            )
        return elapsed

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    # timed sections ---------------------------------------------------------
    # Each section times its work as intervals and hands them to a Scaler.

    def check_pass(self, span, scaler) -> None:
        out = io.StringIO()
        argv = ["--policies", str(self.policy_path), "--trace", str(self.trace_path)]
        self.attempted += 1
        gc.collect()
        start = perf_counter()
        with span("bench.check"):
            try:
                code = self.pg.cli.run(argv, out=out)
            except Exception as exc:  # a raising pass is a failed operation
                code = exc
        scaler.add(perf_counter() - start)
        if isinstance(code, Exception):
            self.failed += 1
            self.problem(f"check raised {code!r}")
        elif not self.check_report_ok(code, out.getvalue()):
            self.failed += 1

    def check_report_ok(self, code: int, text: str) -> bool:
        seen = {}
        composed = None
        for line in text.splitlines():
            m = REPORT_LINE.match(line)
            if m:
                seen[m.group(1)] = (m.group(2) == "VIOLATED", int(m.group(3)))
            m = COMPOSED_LINE.match(line)
            if m:
                composed = (int(m.group(3)), int(m.group(4)))
        want = {p: (v > 0, n) for p, (n, v) in self.expect_check.items()}
        total = (sum(n for n, _ in self.expect_check.values()), sum(v for _, v in self.expect_check.values()))
        want_code = 1 if total[1] else 0
        if seen != want or composed != total or code != want_code:
            self.problem(f"check: exit {code} report {seen} {composed}, expected exit {want_code} {want} {total}")
            return False
        return True

    def monitor_stream(self, span, scaler, verify_state: bool) -> None:
        """One record per interval, closed loop: the next record is sent
        only after step() has returned."""
        monitor = self.pg.monitor.Monitor([self.policies[n] for n in self.w.monitor])
        step = monitor.step
        outs = []
        gc.collect()
        with span("bench.monitor"):
            for record in self.records:
                start = perf_counter()
                try:
                    out = step(record)
                except Exception as exc:  # the record fails; the stream goes on
                    out = exc
                scaler.add(perf_counter() - start)
                outs.append(out)
        self.attempted += len(self.expect_decisions)
        wrong = sum(1 for r, out in zip(self.records, outs) if "object" in r and out != [])
        decisions = [out for r, out in zip(self.records, outs) if "event" in r]
        for got, (allowed, denied_by) in zip(decisions, self.expect_decisions):
            if not isinstance(got, list) or [(d.allowed, d.denied_by) for d in got] != [(allowed, denied_by)]:
                wrong += 1
                self.problem(f"monitor: decision {got!r}, expected allowed={allowed} denied_by={denied_by}")
        self.failed += wrong
        if verify_state and not wrong:
            self.verify_monitor_state(monitor)

    def verify_monitor_state(self, monitor) -> None:
        """After the stream: the history holds exactly the allowed records;
        edge policies are upheld on it (their violating events were
        denied); isolated-node policies get the reference verdict."""
        ok = monitor.graph == self.pg.system.ingest_trace(self.kept)
        if not ok:
            self.problem("monitor: graph differs from the ingested allowed records")
        for v in monitor.verdicts().verdicts:
            matches, violations = reference.check(v.policy, self.kept)
            has_edges = bool(self.policies[v.policy].graph.edges)
            got = (v.upheld, len(v.witnesses), len(v.violations))
            if got != (violations == 0, matches, violations) or (has_edges and not v.upheld):
                ok = False
                self.problem(f"monitor: verdict of {v.policy} is {got}, expected {(violations == 0, matches, violations)}")
        if not ok:
            self.failed += 1

    def identity_sweep(self, span, scaler) -> int:
        """One universe system per interval: enumerating it, then every
        identity on it."""
        algebra = self.pg.algebra
        evaluate = algebra.eval_policy_expr
        systems = bad = 0
        gc.collect()
        with span("bench.identities"):
            iterator = algebra.enumerate_systems(self.identity_bounds)
            while True:
                start = perf_counter()
                system = next(iterator, None)
                if system is None:
                    scaler.add(perf_counter() - start)
                    break
                try:
                    ok = all(evaluate(lhs, system) == evaluate(rhs, system) for lhs, rhs in self.identities)
                except Exception as exc:
                    ok = False
                    self.problem(f"identities raised {exc!r}")
                scaler.add(perf_counter() - start)
                systems += 1
                bad += not ok
        self.attempted += self.identity_size
        self.failed += bad + abs(self.identity_size - systems)
        if bad:
            self.problem(f"identities: {bad} of {systems} systems broke an identity")
        if systems != self.identity_size:
            self.problem(f"identities: {systems} systems enumerated, expected {self.identity_size}")
        return systems

    def containment(self, span, scaler) -> int:
        """contains(strict, loose) and contains(loose, strict), one interval each."""
        algebra = self.pg.algebra
        strict, loose = self.policies["flow_strict"], self.policies["flow_loose"]
        results = []
        gc.collect()
        with span("bench.contains"):
            for a, b in ((strict, loose), (loose, strict)):
                start = perf_counter()
                try:
                    results.append(algebra.contains(a, b, self.contains_bounds))
                except Exception as exc:
                    self.problem(f"contains raised {exc!r}")
                scaler.add(perf_counter() - start)
        expected = 2 * self.contains_size
        self.attempted += expected
        sizes = [r.systems_checked for r in results]
        if [r.holds for r in results] != [True, False] or sizes != [self.contains_size] * 2:
            self.failed += expected
            self.problem(f"contains: {[str(r) for r in results]}, expected holds / fails on "
                         f"{self.contains_size} systems each")
        return sum(sizes)

    # rounds -----------------------------------------------------------------

    def round(self, samples, span=lambda name: nullcontext(), verify_state=False, calibrate=True) -> float:
        """Run every section once and add its figures to `samples`: scaled
        to the reference speed, and unscaled under "raw.<name>".  Returns
        the unscaled time spent inside the timed sections."""

        def add(name, raw, scaled):
            samples[name].append(scaled)
            samples["raw." + name].append(raw)

        busy = 0.0
        for _ in range(self.w.check_passes):
            scaler = Scaler(calibrate)
            self.check_pass(span, scaler)
            raw, scaled = scaler.finish()
            busy += sum(raw)
            add("check_records_per_s", len(self.records) / sum(raw), len(self.records) / sum(scaled))
        for _ in range(self.w.streams):
            scaler = Scaler(calibrate)
            self.monitor_stream(span, scaler, verify_state)
            verify_state = False
            raw, scaled = scaler.finish()
            busy += sum(raw)
            events = [(r, s) for record, r, s in zip(self.records, raw, scaled) if "event" in record]
            add("monitor_events_per_s", len(events) / sum(raw), len(events) / sum(scaled))
            # each stream's decide times, in event order, for decide_median
            samples["decide_us"].append([s * 1e6 for _, s in events])
            samples["raw.decide_us"].append([r * 1e6 for r, _ in events])
        scaler = Scaler(calibrate)
        systems = self.identity_sweep(span, scaler)
        raw, scaled = scaler.finish()
        busy += sum(raw)
        add("algebra_identity_systems_per_s", systems / sum(raw), systems / sum(scaled))
        scaler = Scaler(calibrate)
        systems = self.containment(span, scaler)
        raw, scaled = scaler.finish()
        busy += sum(raw)
        add("algebra_contains_systems_per_s", systems / sum(raw), systems / sum(scaled))
        return busy


class Scaler:
    """Scales timed intervals to the reference speed.

    The calibration loop runs before the first interval, after the last,
    and between two intervals whenever CHUNK_S seconds of work have been
    timed since it last ran; never inside an interval.  An interval is
    divided by the mean slowdown of the two readings around its chunk.  A
    reading after a long chunk (a whole check pass) averages one loop run
    per CHUNK_S of the chunk, up to 20, so that it stands for the chunk's
    own span of time rather than for 5 ms of it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.last = slowdown(4) if enabled else 1.0
        self.pending = 0.0

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.pending += seconds
        if self.enabled and self.pending >= CHUNK_S:
            self._close_chunk()

    def _close_chunk(self) -> None:
        now = slowdown(min(20, max(1, round(self.pending / CHUNK_S)))) if self.enabled else 1.0
        factor = (self.last + now) / 2
        self.scaled.extend(r / factor for r in self.raw[len(self.scaled):])
        self.last = now
        self.pending = 0.0

    def finish(self) -> tuple[list[float], list[float]]:
        if len(self.scaled) < len(self.raw):
            self._close_chunk()
        return self.raw, self.scaled


END_TO_END_UNITS = {
    "check_records_per_s": "records/s",
    "monitor_events_per_s": "events/s",
    "monitor_decide_us_p50": "us",
    "algebra_identity_systems_per_s": "systems/s",
    "algebra_contains_systems_per_s": "systems/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def source_lines() -> int:
    return sum(
        1
        for path in sorted((ROOT / "src" / "policygraph").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def run(args) -> tuple[Bench, dict, dict]:
    w = workloads.WORKLOADS[args.workload](args.seed)
    problems = selftest.selftest(ROOT)
    bench = Bench(w)
    bench.problems.extend(problems)
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        before = slowdown(2)
        raw_setups.append(bench.setup())
        setups.append(raw_setups[-1] / ((before + slowdown(2)) / 2))
    bench.round(defaultdict(list), verify_state=True)  # warm-up, with the post-stream checks
    gc.collect()
    gc.freeze()  # inputs and set-up stay alive all run; keep them out of the collector's scans
    samples: dict[str, list] = defaultdict(list)
    detail = {"workload": w.name, "seed": args.seed, "sizes": w.sizes, "records": len(w.records),
              "events": bench.events, "setup_s": setups, "raw.setup_s": raw_setups}
    start = perf_counter()
    if not args.trace:
        rounds = 0
        while rounds < MIN_ROUNDS or perf_counter() - start < args.seconds:
            bench.round(samples)
            rounds += 1
            if rounds == 1:  # every round does the same work; later ones only add samples
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: (statistics.median(samples[name]), unit) for name, unit in END_TO_END_UNITS.items()
                   if name in samples}
        # the same medians unscaled (peak memory is never scaled)
        raw = {name: statistics.median(samples["raw." + name]) for name in metrics}
        metrics["monitor_decide_us_p50"] = (decide_median(samples.pop("decide_us")), "us")
        raw["monitor_decide_us_p50"] = decide_median(samples.pop("raw.decide_us"))
        metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
        metrics["setup_s"] = (statistics.median(setups), "s")
        raw["setup_s"] = statistics.median(raw_setups)
        detail["raw"] = raw
        detail["rounds"] = rounds
        detail["samples"] = samples
    else:
        metrics = traced(bench, samples, start, args, detail)
    detail["problems"] = bench.problems
    return bench, metrics, detail


def traced(bench: Bench, samples, start: float, args, detail) -> dict:
    """Pairs of one untraced and one traced round, in the order untraced
    then traced, traced then untraced, and so on, so that a drift of the
    machine's speed weighs on both sides alike.  Neither side runs the
    calibration inside the round; each round's section time is scaled by
    readings just before and after it."""
    tracer = tracing.Tracer()
    untraced, busy = [], []
    while len(busy) < TRACED_MIN_PAIRS or perf_counter() - start < args.seconds:
        for with_trace in (False, True) if len(busy) % 2 == 0 else (True, False):
            before = slowdown(4)
            if with_trace:
                tracing.install(tracer, bench.pg)
                try:
                    seconds = bench.round(samples, span=tracer.span, calibrate=False)
                finally:
                    tracer.restore()
                tracer.recording = False  # keep the spans of the first traced round
            else:
                seconds = bench.round(samples, calibrate=False)
            (busy if with_trace else untraced).append(seconds / ((before + slowdown(4)) / 2))
    metrics = tracing.layer_metrics(tracer, len(busy))
    roots = [name for name in tracer.total_s if name.startswith("bench.")]
    section_s = sum(tracer.total_s[n] for n in roots)
    metrics["trace.gap_pct"] = (100 * sum(tracer.self_s[n] for n in roots) / section_s, "%")
    overhead = statistics.median(t / u for t, u in zip(busy, untraced)) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    metrics["monitor.retained_kib"] = (retained_kib(bench), "KiB")
    metrics["package.source_lines"] = (source_lines(), "lines")
    detail.update(traced_rounds=len(busy), untraced_section_s=untraced, traced_section_s=busy,
                  spans_kept=len(tracer.spans), spans_total=sum(tracer.calls.values()))
    tracer.write_spans(OUT / f"spans-{bench.w.name}.jsonl",
                       {"workload": bench.w.name, "seed": args.seed, "round": 1})
    return metrics


def retained_kib(bench: Bench) -> float:
    """Memory a monitor holds after the whole stream, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        monitor = bench.pg.monitor.Monitor([bench.policies[n] for n in bench.w.monitor])
        for record in bench.records:
            monitor.step(record)
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - before) / 1024
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "policygraph" / "__init__.py").is_file():
        print(f"error: no policygraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench, metrics, detail = run(args)
    correct = not bench.problems and bench.failed == 0
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1, default=str) + "\n", encoding="utf-8"
    )
    for line in bench.problems:
        print(line, file=sys.stderr)
    if "raw" in detail:
        print(json.dumps({"unscaled": detail["raw"]}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    # String hashing decides set and dict layouts inside the engine; a fixed
    # seed keeps them the same from run to run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
