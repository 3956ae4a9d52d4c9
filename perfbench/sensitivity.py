#!/usr/bin/env python3
"""Does the calibration scaling hide a slower engine?

Runs one workload's rounds in one process, alternating rounds of the engine
as it is with rounds in which two engine functions first do a fixed amount
of extra interpreter work per call: `predicates.satisfy` where `matching`
looks it up (batch check, monitor and identity sweeps reach it) and
`algebra.pattern_matches_bounded` (containment).  Rounds run in the order
plain, slowed, slowed, plain, ... so that a drift of the machine's speed
weighs on both sides alike.  For each timed metric it compares the two
rounds of each pair and prints, as the median over the pairs, by how much
the extra work made the figure worse: scaled, as the benchmark reports it,
and unscaled.  Were the scaling to cancel part of a slower engine, the
scaled figures would move less than the unscaled.

    python3 perfbench/sensitivity.py --workload nru_stream --seed 1 --seconds 60
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import run
import workloads

EXTRA_LOOPS = 50  # iterations of extra work per call of a slowed function

# (name, higher is better)
METRICS = (
    ("check_records_per_s", True),
    ("monitor_events_per_s", True),
    ("monitor_decide_us_p50", False),
    ("algebra_identity_systems_per_s", True),
    ("algebra_contains_systems_per_s", True),
)


def extra_work() -> int:
    total = 0
    for i in range(EXTRA_LOOPS):
        total += len(str(i))
    return total


def slowed(function):
    def wrapper(*args, **kwargs):
        extra_work()
        return function(*args, **kwargs)

    return wrapper


def slowed_round(bench: run.Bench, samples) -> None:
    pg = bench.pg
    targets = [(pg.matching, "satisfy"), (pg.algebra, "pattern_matches_bounded")]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]
    for owner, attr, original in originals:
        setattr(owner, attr, slowed(original))
    try:
        bench.round(samples)
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def medians(samples) -> dict[str, tuple[float, float]]:
    """(scaled, unscaled) median of each metric in one round."""
    out = {name: (statistics.median(samples[name]), statistics.median(samples["raw." + name]))
           for name, _ in METRICS if name in samples}
    out["monitor_decide_us_p50"] = run.decide_median(samples["decide_us"]), run.decide_median(samples["raw.decide_us"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    bench = run.Bench(workloads.WORKLOADS[args.workload](args.seed))
    bench.setup()
    bench.round(defaultdict(list), verify_state=True)  # warm-up
    gc.collect()
    gc.freeze()
    worse = defaultdict(list)  # metric -> per pair [scaled, unscaled] share
    start = perf_counter()
    pairs = 0
    while pairs < 2 or perf_counter() - start < args.seconds:
        plain, slow = defaultdict(list), defaultdict(list)
        for is_slowed in ((False, True), (True, False))[pairs % 2]:
            if is_slowed:
                slowed_round(bench, slow)
            else:
                bench.round(plain)
        before, after = medians(plain), medians(slow)
        for name, higher in METRICS:
            worse[name].append([b / a - 1 if higher else a / b - 1 for a, b in zip(after[name], before[name])])
        pairs += 1
    if bench.problems or bench.failed:
        print("\n".join(bench.problems) or f"{bench.failed} operations failed", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}: {pairs} pairs of rounds, "
          f"{EXTRA_LOOPS} extra loop iterations per slowed call")
    print(f"{'metric':32s} {'worse, scaled':>14s} {'worse, unscaled':>16s}")
    for name, _ in METRICS:
        scaled, unscaled = (statistics.median(share) for share in zip(*worse[name]))
        print(f"{name:32s} {100 * scaled:13.1f}% {100 * unscaled:15.1f}%")
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
