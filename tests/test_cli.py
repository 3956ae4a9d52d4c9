"""The command line front end: modes, exit codes, output formats."""

import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

import policygraph
from policygraph.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    run,
)
from policygraph.policy import parse_policy

NO_READ_UP = """
policy no_read_up {
  node u domain: type = "user" && sec_level = $UL
  node f domain: type = "file" && sec_level = $FL
  edge r: u -> f domain: method = "read" req: $UL >= $FL
}
"""

CLASSIC_JSONL = "\n".join(
    json.dumps(r)
    for r in [
        {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 0}}},
        {"t": 1, "object": {"id": "jane", "attrs": {"type": "user", "sec_level": 2}}},
        {"t": 1, "object": {"id": "a", "attrs": {"type": "file", "sec_level": 0}}},
        {"t": 1, "object": {"id": "b", "attrs": {"type": "file", "sec_level": 2}}},
        {"t": 1, "event": {"src": "john", "dest": "a", "params": {"method": "read"}}},
        {"t": 2, "event": {"src": "john", "dest": "b", "params": {"method": "read"}}},
        {"t": 3, "event": {"src": "jane", "dest": "b", "params": {"method": "write"}}},
    ]
)

UPHELD_JSONL = "\n".join(
    json.dumps(r)
    for r in [
        {"t": 1, "object": {"id": "john", "attrs": {"type": "user", "sec_level": 2}}},
        {"t": 1, "object": {"id": "a", "attrs": {"type": "file", "sec_level": 0}}},
        {"t": 1, "event": {"src": "john", "dest": "a", "params": {"method": "read"}}},
    ]
)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "no_read_up.policy").write_text(NO_READ_UP)
    (tmp_path / "violating.jsonl").write_text(CLASSIC_JSONL + "\n")
    (tmp_path / "upheld.jsonl").write_text(UPHELD_JSONL + "\n")
    return tmp_path


def cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = run([str(a) for a in argv], out=out)
    return code, out.getvalue()


class TestCheckMode:
    def test_violation_exits_one(self, workspace):
        code, text = cli("--policies", workspace / "no_read_up.policy", "--trace", workspace / "violating.jsonl")
        assert code == EXIT_VIOLATION
        assert "policy no_read_up: VIOLATED (2 match(es))" in text
        assert "FAIL on r" in text
        assert "composed: VIOLATED" in text

    def test_upheld_exits_zero(self, workspace):
        code, text = cli("--policies", workspace / "no_read_up.policy", "--trace", workspace / "upheld.jsonl")
        assert code == EXIT_OK
        assert "policy no_read_up: upheld (1 match(es))" in text
        assert "composed: upheld" in text

    def test_jsonl_report(self, workspace):
        code, text = cli(
            "--policies", workspace / "no_read_up.policy",
            "--trace", workspace / "violating.jsonl",
            "--report", "jsonl",
        )
        assert code == EXIT_VIOLATION
        records = [json.loads(line) for line in text.strip().splitlines()]
        witnesses, summaries = records[:-1], records[-1]
        assert len(witnesses) == 2
        failing = [w for w in witnesses if not w["satisfied"]]
        assert len(failing) == 1
        assert failing[0]["bindings"] == {"FL": 2, "UL": 0}
        assert failing[0]["failing"] == ["r"]
        assert failing[0]["match"]["nodes"] == {"f": "b", "u": "john"}
        assert summaries["summary"]["upheld"] is False
        assert summaries["summary"]["matches"] == 2
        assert summaries["summary"]["violations"] == 1
        assert summaries["summary"]["objects"] == 4
        assert summaries["summary"]["events"] == 3


class TestMatchMode:
    def test_lists_matches_without_judging(self, workspace):
        code, text = cli(
            "--policies", workspace / "no_read_up.policy",
            "--trace", workspace / "violating.jsonl",
            "--mode", "match",
        )
        assert code == EXIT_OK  # matching alone never signals violation
        records = [json.loads(line) for line in text.strip().splitlines()]
        assert [r["edges"] for r in records] == [{"r": 0}, {"r": 1}]
        assert records[1]["bindings"] == {"FL": 2, "UL": 0}
        assert all(r["policy"] == "no_read_up" for r in records)


class TestValidateMode:
    def test_well_formed(self, workspace):
        code, text = cli("--policies", workspace / "no_read_up.policy", "--mode", "validate")
        assert code == EXIT_OK
        assert text == ""

    def test_ill_formed(self, tmp_path):
        bad = tmp_path / "bad.policy"
        bad.write_text("policy bad {\n node n req: level = $X\n}\n")
        code, text = cli("--policies", bad, "--mode", "validate")
        assert code == EXIT_VALIDATION
        assert "[R1]" in text
        assert "[R2]" in text

    def test_check_mode_refuses_ill_formed(self, tmp_path, workspace, capsys):
        bad = tmp_path / "bad.policy"
        bad.write_text("policy bad {\n node n\n edge e: n -> n req: $X = 1\n}\n")
        code, _ = cli("--policies", bad, "--trace", workspace / "upheld.jsonl")
        assert code == EXIT_VALIDATION


class TestMonitorMode:
    def test_decision_lines(self, workspace):
        code, text = cli(
            "--policies", workspace / "no_read_up.policy",
            "--trace", workspace / "violating.jsonl",
            "--mode", "monitor",
        )
        assert code == EXIT_OK
        assert text.splitlines() == [
            "1\tjohn->a\tallow\t-",
            "2\tjohn->b\tdeny\tno_read_up",
            "3\tjane->b\tallow\t-",
        ]

    def test_stdin_trace(self, workspace, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(CLASSIC_JSONL))
        code, text = cli(
            "--policies", workspace / "no_read_up.policy",
            "--trace", "-",
            "--mode", "monitor",
        )
        assert code == EXIT_OK
        assert len(text.splitlines()) == 3


class TestAlgebraMode:
    def test_reverse_prints_a_policy(self, workspace):
        code, text = cli(
            "--policies", workspace / "no_read_up.policy",
            "--mode", "algebra", "--op", "reverse", "--targets", "no_read_up",
        )
        assert code == EXIT_OK
        assert "policy no_read_up_rev_r {" in text
        assert "req: !($UL >= $FL)" in text

    def test_nullify(self, workspace):
        code, text = cli(
            "--policies", workspace / "no_read_up.policy",
            "--mode", "algebra", "--op", "nullify", "--targets", "no_read_up",
        )
        assert code == EXIT_OK
        assert "policy no_read_up_null {" in text
        assert "req:" not in text

    def test_nullify_output_parses_with_small_floats(self, tmp_path):
        (tmp_path / "tiny.policy").write_text(
            "policy tiny {\n node n domain: level < 0.00001 && score in {0.000002, 1} && kind = $K req: $K < 3\n}\n"
        )
        code, text = cli(
            "--policies", tmp_path / "tiny.policy",
            "--mode", "algebra", "--op", "nullify", "--targets", "tiny",
        )
        assert code == EXIT_OK
        assert "level < 0.00001" in text and "e-" not in text
        original = parse_policy((tmp_path / "tiny.policy").read_text())
        assert parse_policy(text).domain_preds == original.domain_preds

    def test_and_same_domain_prints_graph_form(self, tmp_path):
        (tmp_path / "two.policy").write_text(
            "policy a {\n node n domain: level = $L req: $L < 5\n}\n"
            "policy b {\n node n domain: level = $L req: $L > 0\n}\n"
        )
        code, text = cli(
            "--policies", tmp_path / "two.policy",
            "--mode", "algebra", "--op", "and", "--targets", "a", "b",
        )
        assert code == EXIT_OK
        assert "policy a_and_b {" in text
        assert "req: $L < 5 && $L > 0" in text

    def test_or_evaluates_on_trace(self, workspace, tmp_path):
        (tmp_path / "pair.policy").write_text(
            "policy first {\n node n domain: type = \"user\" req: false\n}\n"
            "policy second {\n node n domain: type = \"user\" req: true\n}\n"
        )
        code, text = cli(
            "--policies", tmp_path / "pair.policy",
            "--trace", workspace / "upheld.jsonl",
            "--mode", "algebra", "--op", "or", "--targets", "first", "second",
        )
        assert code == EXIT_OK
        assert "or(first, second): upheld" in text

    def test_and_across_domains_needs_trace(self, workspace, tmp_path):
        (tmp_path / "other.policy").write_text("policy other {\n node n\n edge e: n -> n req: true\n}\n")
        code, _ = cli(
            "--policies", workspace / "no_read_up.policy", tmp_path / "other.policy",
            "--mode", "algebra", "--op", "and", "--targets", "no_read_up", "other",
        )
        assert code == EXIT_USAGE

    def test_contains_with_universe(self, tmp_path):
        (tmp_path / "pair.policy").write_text(
            "policy tight {\n node n domain: level = $L req: $L <= 1\n}\n"
            "policy loose {\n node n domain: level = $L req: $L <= 2\n}\n"
        )
        (tmp_path / "universe.json").write_text(
            json.dumps({
                "max_objects": 1, "max_instances": 1,
                "attributes": ["level"], "parameters": [], "values": [0, 1, 2, 3],
                "max_events": 0,
            })
        )
        code, text = cli(
            "--policies", tmp_path / "pair.policy",
            "--mode", "algebra", "--op", "contains",
            "--targets", "tight", "loose", "--universe", tmp_path / "universe.json",
        )
        assert code == EXIT_OK
        assert "contains(tight, loose): contains (bounded: 5 systems checked)" in text

    def test_coverage_with_universe(self, tmp_path):
        (tmp_path / "pair.policy").write_text(
            "policy wide {\n node n\n}\n"
            "policy narrow {\n node n domain: level = 0\n}\n"
        )
        (tmp_path / "universe.json").write_text(
            json.dumps({
                "max_objects": 1, "max_instances": 1,
                "attributes": ["level"], "parameters": [], "values": [0, 1],
                "max_events": 0,
            })
        )
        code, text = cli(
            "--policies", tmp_path / "pair.policy",
            "--mode", "algebra", "--op", "coverage",
            "--targets", "wide", "narrow", "--universe", tmp_path / "universe.json",
        )
        assert code == EXIT_OK
        assert "coverage(wide, narrow): greater" in text

    def test_coverage_of_domains_capturing_object_ids(self, tmp_path):
        """Each object's id is captured as it is, though no id is among the
        universe's values."""
        (tmp_path / "pair.policy").write_text(
            "policy any_id {\n node n domain: id = $X\n}\n"
            "policy kind_0 {\n node n domain: id = $X && kind = 0\n}\n"
        )
        (tmp_path / "universe.json").write_text(
            json.dumps({
                "max_objects": 2, "max_instances": 1,
                "attributes": ["kind"], "parameters": ["act"], "values": [0, 1],
                "max_events": 1,
            })
        )
        for targets, relation in ((("any_id", "kind_0"), "greater"), (("kind_0", "any_id"), "lesser")):
            code, text = cli(
                "--policies", tmp_path / "pair.policy",
                "--mode", "algebra", "--op", "coverage",
                "--targets", *targets, "--universe", tmp_path / "universe.json",
            )
            assert code == EXIT_OK
            assert f"coverage({targets[0]}, {targets[1]}): {relation} (bounded: 43 systems checked)" in text

    @pytest.mark.parametrize("op", ["contains", "coverage"])
    def test_bounded_operators_need_a_universe(self, workspace, capsys, op):
        code, text = cli(
            "--policies", workspace / "no_read_up.policy", "--mode", "algebra", "--op", op,
            "--targets", "no_read_up", "no_read_up",
        )
        assert (code, text) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"{op} needs --universe\n"

    @pytest.mark.parametrize("op", ["contains", "coverage"])
    def test_the_match_cap_bounds_contains_and_coverage(self, tmp_path, capsys, op):
        """The flow pair of the hash-seed CI step: a cap of 0 stops the
        walk at the first match with exit 4, as it stops `and` and `or`."""
        (tmp_path / "flow.policy").write_text(FLOW_PAIR)
        universe = tmp_path / "universe.json"
        universe.write_text(json.dumps(FLOW_UNIVERSE))
        argv = ["--policies", tmp_path / "flow.policy", "--mode", "algebra", "--op", op,
                "--targets", "strict", "loose", "--universe", universe]
        assert cli(*argv)[0] == EXIT_OK
        capsys.readouterr()
        assert cli(*argv, "--match-cap", "0") == (EXIT_CAP, "")
        line = _error_line(capsys)
        assert line.endswith("exceeded the match cap of 0")
        # contains knows the policies it compares; coverage gets bare patterns
        names = ("'strict'", "'loose'") if op == "contains" else ("'?'",)
        assert any(f"policy {name} exceeded" in line for name in names), line

    def test_universe_over_its_ceiling(self, workspace, tmp_path, capsys):
        universe = tmp_path / "universe.json"
        universe.write_text(json.dumps({**UNIVERSE, "attributes": ["level"], "values": [0, 1], "ceiling": 2}))
        code, text = cli(
            "--policies", workspace / "no_read_up.policy", "--mode", "algebra", "--op", "contains",
            "--targets", "no_read_up", "no_read_up", "--universe", universe,
        )
        assert (code, text) == (EXIT_USAGE, "")
        assert _error_line(capsys) == "error: universe holds more than 2 systems"

    @pytest.mark.parametrize("fields", [
        {"max_objects": 20_000},
        {"max_objects": 10**6},
        {"max_instances": 10**9},
        {"attributes": [], "max_instances": 10**6, "max_events": 10**9},
    ], ids=str)
    def test_universe_far_past_its_ceiling(self, tmp_path, capsys, fields):
        """The flow pair's universe made far larger than its ceiling: the
        count stops once it passes the ceiling, so the command exits at
        once with one error line."""
        (tmp_path / "flow.policy").write_text(FLOW_PAIR)
        universe = tmp_path / "universe.json"
        universe.write_text(json.dumps({**FLOW_UNIVERSE, **fields}))
        start = time.perf_counter()
        code, text = cli(
            "--policies", tmp_path / "flow.policy", "--mode", "algebra", "--op", "contains",
            "--targets", "strict", "loose", "--universe", universe,
        )
        assert time.perf_counter() - start < 1
        assert (code, text) == (EXIT_USAGE, "")
        assert _error_line(capsys) == "error: universe holds more than 500000 systems"

    @pytest.mark.parametrize("arith", ["{h} - {h}", "{h} + (0 - {h})", "{h} * 0", "{h} / {h}"])
    @pytest.mark.parametrize("op, targets", [("reverse", ["q"]), ("and", ["q", "q2"]), ("nullify", ["q"])])
    def test_no_policy_prints_a_nan(self, tmp_path, capsys, arith, op, targets):
        """Arithmetic on infinity without a value, which would fold to a NaN
        and print as the attribute `nan`, stops the algebra with one error
        line, as a division by zero does; nullify drops the requirement."""
        huge = "1" * 400 + ".5"
        req = arith.format(h=huge)
        path = tmp_path / "q.policy"
        path.write_text(
            f"policy q {{\n node a\n node b\n edge e: a -> b domain: act = $A req: $A = {req}\n}}\n"
            "policy q2 {\n node a\n node b\n edge e: a -> b domain: act = $A req: $A < 2\n}\n"
        )
        code, text = cli("--policies", path, "--mode", "algebra", "--op", op, "--targets", *targets)
        assert "nan" not in text
        if op == "nullify":
            assert code == EXIT_OK and capsys.readouterr().err == ""
        else:
            assert (code, text) == (EXIT_PARSE, "")
            assert _error_line(capsys).startswith("error: arithmetic on infinity has no value: ")

    def test_universe_without_instants_holds_one_system(self, tmp_path, capsys):
        """A million objects and no instant: no object is ever declared, so
        the universe holds one system, checked at once."""
        (tmp_path / "flow.policy").write_text(FLOW_PAIR)
        universe = tmp_path / "universe.json"
        universe.write_text(json.dumps({**FLOW_UNIVERSE, "max_objects": 10**6, "max_instances": 0}))
        start = time.perf_counter()
        code, text = cli(
            "--policies", tmp_path / "flow.policy", "--mode", "algebra", "--op", "contains",
            "--targets", "strict", "loose", "--universe", universe,
        )
        assert time.perf_counter() - start < 1
        assert (code, text) == (EXIT_OK, "contains(strict, loose): contains (bounded: 1 systems checked)\n")

    def test_refuses_ill_formed(self, tmp_path, capsys):
        bad = tmp_path / "bad.policy"
        bad.write_text("policy bad {\n node n req: level = $X\n}\n")
        code, text = cli("--policies", bad, "--mode", "algebra", "--op", "nullify", "--targets", "bad")
        assert (code, text) == (EXIT_VALIDATION, "")
        assert "[R1]" in capsys.readouterr().err

    def test_missing_op(self, workspace):
        code, _ = cli("--policies", workspace / "no_read_up.policy", "--mode", "algebra")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("op, targets, message", [
        ("nullify", ["no_read_up", "no_read_up"], "nullify takes one target"),
        ("reverse", [], "reverse takes one target"),
        ("and", ["no_read_up"], "and takes two targets"),
        ("or", ["no_read_up", "no_read_up", "no_read_up"], "or takes two targets"),
        ("contains", ["no_read_up"], "contains takes two targets"),
        ("coverage", [], "coverage takes two targets"),
    ])
    def test_wrong_number_of_targets(self, workspace, capsys, op, targets, message):
        code, text = cli(
            "--policies", workspace / "no_read_up.policy", "--mode", "algebra", "--op", op, "--targets", *targets,
        )
        assert (code, text) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == message + "\n"


UNIVERSE = {"max_objects": 1, "max_instances": 1, "attributes": [], "parameters": [], "values": [0], "max_events": 0}
# the flow pair and universe of the hash-seed CI step
FLOW_PAIR = (
    "policy strict {\n node a\n node b\n edge e: a -> b domain: act = $A req: $A = 0\n}\n"
    "policy loose {\n node a domain: kind = 0\n node b\n edge e: a -> b domain: act = $A req: $A <= 1\n}\n"
)
FLOW_UNIVERSE = {**UNIVERSE, "max_objects": 2, "attributes": ["kind"], "parameters": ["act"], "values": [0, 1, "x"],
                 "max_events": 2}


def _error_line(capsys) -> str:
    """The one line the command wrote to stderr, which must carry no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    return line


class TestErrorPaths:
    def test_policy_parse_error(self, tmp_path):
        bad = tmp_path / "broken.policy"
        bad.write_text("policy broken {\n node n domain: level >\n}\n")
        code, _ = cli("--policies", bad, "--mode", "validate")
        assert code == EXIT_PARSE

    def test_trace_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": 1, "event": {"src": "ghost", "dest": "ghost", "params": {}}}\n')
        code, _ = cli("--policies", workspace / "no_read_up.policy", "--trace", bad)
        assert code == EXIT_PARSE

    def test_match_cap(self, workspace):
        code, _ = cli(
            "--policies", workspace / "no_read_up.policy",
            "--trace", workspace / "violating.jsonl",
            "--match-cap", "1",
        )
        assert code == EXIT_CAP

    def test_a_negative_match_cap_is_a_usage_error(self, workspace, capsys):
        """Refused before any input is read, as UniverseBounds refuses a
        negative count; a cap of 0 still runs."""
        with pytest.raises(SystemExit) as info:
            run(["--policies", str(workspace / "no_read_up.policy"), "--trace", str(workspace / "violating.jsonl"),
                 "--match-cap", "-5"])
        assert info.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith("error: argument --match-cap: must not be negative, got -5\n")
        code, _ = cli("--policies", workspace / "no_read_up.policy", "--trace", workspace / "violating.jsonl",
                      "--match-cap", "0")
        assert code == EXIT_CAP

    def test_missing_trace(self, workspace):
        code, _ = cli("--policies", workspace / "no_read_up.policy")
        assert code == EXIT_USAGE

    def test_unknown_target(self, workspace):
        code, _ = cli(
            "--policies", workspace / "no_read_up.policy",
            "--mode", "algebra", "--op", "reverse", "--targets", "nonesuch",
        )
        assert code == EXIT_PARSE  # loaded-name lookup failure is a PolicyError

    def test_duplicate_policy_names(self, workspace, tmp_path):
        copy = tmp_path / "copy.policy"
        copy.write_text(NO_READ_UP)
        code, _ = cli(
            "--policies", workspace / "no_read_up.policy", copy,
            "--trace", workspace / "upheld.jsonl",
        )
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("missing", ["policies", "trace", "universe"])
    def test_input_file_that_does_not_exist(self, workspace, tmp_path, capsys, missing):
        files = {
            "policies": workspace / "no_read_up.policy",
            "trace": workspace / "upheld.jsonl",
            "universe": tmp_path / "universe.json",
        }
        files["universe"].write_text(json.dumps(UNIVERSE))
        files[missing] = tmp_path / "nonesuch"
        if missing == "trace":
            code, _ = cli("--policies", files["policies"], "--trace", files["trace"])
        else:
            code, _ = cli(
                "--policies", files["policies"], "--mode", "algebra", "--op", "contains",
                "--targets", "no_read_up", "no_read_up", "--universe", files["universe"],
            )
        assert code == EXIT_PARSE
        assert _error_line(capsys) == f"error: [Errno 2] No such file or directory: {str(tmp_path / 'nonesuch')!r}"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("{max_objects: 1}", "Expecting property name enclosed in double quotes"),
            ("[1, 1]", "universe bounds must be a JSON object, got [1, 1]"),
            (json.dumps({k: v for k, v in UNIVERSE.items() if k != "max_objects"}),
             "universe bounds lack the field 'max_objects'"),
            (json.dumps({**UNIVERSE, "values": 3}),
             "universe bounds field 'values' must be a list of numbers, strings and booleans, got 3"),
            (json.dumps({**UNIVERSE, "values": [[1]]}),
             "universe bounds field 'values' must be a list of numbers, strings and booleans, got [[1]]"),
            (json.dumps({**UNIVERSE, "attributes": [1]}),
             "universe bounds field 'attributes' must be a list of names, got [1]"),
            (json.dumps({**UNIVERSE, "max_events": "2"}),
             "universe bounds field 'max_events' must be an integer, got '2'"),
            (json.dumps({**UNIVERSE, "max_objects": -3}),
             "universe bounds field 'max_objects' must not be negative, got -3"),
            (json.dumps({**UNIVERSE, "max_instances": -1}),
             "universe bounds field 'max_instances' must not be negative, got -1"),
            (json.dumps({**UNIVERSE, "max_events": -1}),
             "universe bounds field 'max_events' must not be negative, got -1"),
            (json.dumps({**UNIVERSE, "ceiling": -1}),
             "universe bounds field 'ceiling' must not be negative, got -1"),
            (json.dumps({**UNIVERSE, "max_evnets": 3}), "universe bounds have no field 'max_evnets'"),
            (json.dumps({**UNIVERSE, "parameters": ["time"]}),
             "universe bounds field 'parameters' holds 'time', which is injected into every event"),
        ],
    )
    def test_malformed_universe(self, workspace, tmp_path, capsys, text, message):
        universe = tmp_path / "universe.json"
        universe.write_text(text)
        code, _ = cli(
            "--policies", workspace / "no_read_up.policy", "--mode", "algebra", "--op", "contains",
            "--targets", "no_read_up", "no_read_up", "--universe", universe,
        )
        assert code == EXIT_PARSE
        assert _error_line(capsys).startswith(f"error: {universe}: {message}")

    def test_trace_that_is_not_utf8(self, workspace, tmp_path, capsys):
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\xff\xfe\n")
        code, _ = cli("--policies", workspace / "no_read_up.policy", "--trace", binary)
        assert code == EXIT_PARSE
        assert "can't decode byte 0xff" in _error_line(capsys)

    @pytest.mark.parametrize(
        "second,message",
        [
            ("[1, 2]", "error: record 2: record must be a JSON object, got [1, 2]"),
            ('{"t": 0, "object": {"id": "y"}}', "error: record 2: time went backwards (1 -> 0)"),
        ],
    )
    def test_check_and_monitor_reject_a_bad_record_alike(self, workspace, tmp_path, capsys, second, message):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"t": 1, "object": {"id": "x", "attrs": {}}}\n' + second + "\n")
        for mode in ("check", "monitor"):
            code, text = cli("--policies", workspace / "no_read_up.policy", "--trace", trace, "--mode", mode)
            assert (code, text) == (EXIT_PARSE, "")
            assert _error_line(capsys) == message

    @pytest.mark.parametrize(
        "fourth,message",
        [
            ('{"t": 1, "object": {"id": "y"}}', "error: record 2: time went backwards (2 -> 1)"),
            ('{"t": 1, "object": {"id"', "error: record 2: bad JSON: Expecting ':' delimiter"),
        ],
    )
    def test_records_are_numbered_without_blank_lines(self, workspace, tmp_path, capsys, fourth, message):
        """A trace whose first and third lines are blank: the error on its
        fourth line is about record 2, whether ingestion or decoding finds it."""
        trace = tmp_path / "blanks.jsonl"
        trace.write_text('\n{"t": 2, "object": {"id": "x", "attrs": {}}}\n\n' + fourth + "\n")
        for mode in ("check", "monitor"):
            code, text = cli("--policies", workspace / "no_read_up.policy", "--trace", trace, "--mode", mode)
            assert (code, text) == (EXIT_PARSE, "")
            assert _error_line(capsys).startswith(message)

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as info:
            run(["--mode", "check"])  # --policies is required
        assert info.value.code == EXIT_USAGE


def _console_script(tmp_path) -> tuple[str, dict | None]:
    """The ``policygraph`` executable to run, and the environment to run it in.

    An installed script is preferred: first the one next to the running
    interpreter, so an un-activated venv tests its own install, then one on
    PATH.  On an uninstalled checkout, write the wrapper an installer would
    generate for the entry point ``pyproject.toml`` declares, and put the
    imported package's source directory on PYTHONPATH for it.
    """
    installed = shutil.which("policygraph", path=sysconfig.get_path("scripts")) or shutil.which("policygraph")
    if installed:
        return installed, None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["policygraph"]
    module, func = target.split(":")
    script = tmp_path / "bin" / "policygraph"
    script.parent.mkdir()
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    script.chmod(0o755)
    source_dir = str(Path(policygraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_dir, os.environ.get("PYTHONPATH")])))
    return str(script), env


class TestInstalledEntryPoint:
    def test_console_script(self, workspace, tmp_path):
        executable, env = _console_script(tmp_path)
        proc = subprocess.run(
            [
                executable,
                "--policies", str(workspace / "no_read_up.policy"),
                "--trace", str(workspace / "violating.jsonl"),
                "--mode", "monitor",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "2\tjohn->b\tdeny\tno_read_up" in proc.stdout
