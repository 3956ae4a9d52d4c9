"""Reports: the text report against the naive reference renderer in
tests/oracle.py, and the match record that `--mode match` and the JSON
Lines report share."""

import io
import json
import random
from pathlib import Path

import policygraph
from policygraph.cli import run
from policygraph.corpus import load_corpus_policy, load_corpus_trace, load_manifest
from policygraph.matching import find_matches
from policygraph.policy import parse_policy_set
from policygraph.reports import build_report, render_jsonl, render_text
from policygraph.system import ingest_trace
from policygraph.values import to_json

from oracle import random_policy, random_trace_records, reference_render_text

# Two parallel edges and two opposite edges.  Permutations of the edges over
# the same events collapse in the text report only when the bindings have
# the same JSON text and the outcome is the same.
PERMUTABLE = """
policy one_capture {
  node a
  node b
  edge e1: a -> b domain: k = $X
  edge e2: a -> b req: k != true
}
policy two_captures {
  node a
  node b
  edge e1: a -> b domain: k = $X
  edge e2: a -> b domain: k = $X req: $X != 1
}
policy opposite {
  node a
  node b
  edge e1: a -> b
  edge e2: b -> a req: k != 1
}
policy opposite_bound {
  node a domain: name = $N
  node b
  edge e1: a -> b
  edge e2: b -> a
}
policy single {
  node a
  node b
  edge e: a -> b domain: k = $X req: $X != 0
}
"""

# Values whose JSON text tells them apart although the engine may equate
# them (1 and 1.0, 0.0 and -0.0, sets), or although Python does (true and 1),
# or that a memo of JSON texts keyed by value could confuse (2**53 and
# 2**53 + 1 are one float, 1e16 == 10**16, and "1" and "true" are strings
# whose contents are the JSON text of other values); every value comes twice
# so that its permutations collapse.
TRICKY = [
    1, 1.0, True, 0.0, -0.0, 'say "hi"', "naïve ☃", ["x", 1], [1, "x"], [1.0, "x"], 2.5,
    2**53, 2**53 + 1, 1e16, 10**16, "1", "true",
]


def tricky_records() -> list[dict]:
    records = [
        {"t": 1, "object": {"id": "p", "attrs": {"name": "p\"q"}}},
        {"t": 1, "object": {"id": "q", "attrs": {"name": "ü"}}},
    ]
    t = 1
    for value in TRICKY + TRICKY:
        for src, dest in (("p", "q"), ("q", "p")):
            records.append({"t": t, "event": {"src": src, "dest": dest, "params": {"k": value}}})
        t += 1
    return records


def both_renders(policies, graph) -> tuple[str, str]:
    report = build_report(policies, graph)
    return render_text(report), reference_render_text(report)


def test_crafted_permutations_and_values_render_as_the_reference():
    policies = parse_policy_set(PERMUTABLE)
    text, reference = both_renders(policies, ingest_trace(tricky_records()))
    assert text == reference
    # the case is not vacuous: lines collapse, and values with equal
    # numbers but different JSON text stay apart
    assert "edge orderings]" in text
    assert "$X=1 " in text and "$X=1.0 " in text and "$X=true " in text
    assert "$X=0.0 " in text and "$X=-0.0 " in text
    assert '$X="say \\"hi\\""' in text and '$X="na\\u00efve \\u2603"' in text
    assert '$X=[1, "x"]' in text and '$X=[1.0, "x"]' in text
    assert '$N="p\\"q"' in text and '$N="\\u00fc"' in text
    assert "$X=9007199254740992 " in text and "$X=9007199254740993 " in text
    assert "$X=1e+16 " in text and "$X=10000000000000000 " in text
    assert '$X="1" ' in text and '$X="true" ' in text


def test_random_policies_and_traces_render_as_the_reference():
    rng = random.Random(60606)
    collapsed = 0
    for i in range(2000):
        policies = [random_policy(rng, f"gen{i}_{j}", parallel=rng.random() < 0.5) for j in range(rng.randrange(1, 3))]
        records = random_trace_records(rng, n_objects=3, n_events=rng.randrange(1, 15))
        text, reference = both_renders(policies, ingest_trace(records))
        assert text == reference, f"case {i}"
        collapsed += "edge orderings]" in text
    assert collapsed > 20  # the generator reaches the collapsing path


def test_corpus_cases_render_as_the_reference():
    cases = 0
    for entry in load_manifest():
        policy = load_corpus_policy(entry)
        for case in entry.cases:
            text, reference = both_renders([policy], load_corpus_trace(case.trace))
            assert text == reference, f"{entry.policy} on {case.trace}"
            cases += 1
    assert cases == 22


def test_match_mode_and_jsonl_report_share_the_match_record():
    """On every corpus trace under every corpus policy, `--mode match`
    prints the edges, isolated pairs and bindings of each match, as the
    JSON Lines report does for each witness, in the same order."""
    manifest = load_manifest()
    policies = [load_corpus_policy(entry) for entry in manifest]
    policy_files = sorted({entry.policy_file for entry in manifest})
    traces = sorted({case.trace for entry in manifest for case in entry.cases})
    data = Path(policygraph.__file__).parent / "corpus_data"
    argv = ["--policies", *[str(data / f) for f in policy_files]]
    seen = 0
    for trace in traces:
        graph = load_corpus_trace(trace)
        expected = [
            json.dumps(
                {
                    "policy": p.name,
                    "edges": dict(sorted(m.edge_events.items())),
                    "isolated": {n: list(pair) for n, pair in sorted(m.isolated_objects.items())},
                    "bindings": {v: to_json(b) for v, b in sorted(m.bindings.items())},
                },
                sort_keys=True,
            )
            for p in policies
            for m in find_matches(p, graph)
        ]
        out = io.StringIO()
        assert run([*argv, "--trace", str(data / trace), "--mode", "match"], out=out) == 0
        assert out.getvalue().splitlines() == expected, trace
        witnesses = [json.loads(line) for line in render_jsonl(build_report(policies, graph)).splitlines()[:-1]]
        from_report = [
            json.dumps(
                {
                    "policy": w["policy"],
                    "edges": w["match"]["edges"],
                    "isolated": w["match"]["isolated"],
                    "bindings": w["bindings"],
                },
                sort_keys=True,
            )
            for w in witnesses
        ]
        assert from_report == expected, trace
        seen += len(expected)
    assert len(traces) == 20 and seen > 40
