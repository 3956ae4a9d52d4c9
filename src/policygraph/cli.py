"""Command line front end.

    policygraph --policies FILE [FILE...] --trace FILE [--mode check] ...

Modes:
    check      evaluate every policy over the whole trace; exit 0 iff upheld
    match      list domain matches without judging requirements
    validate   check policy well-formedness only (no trace needed)
    monitor    stream the trace, deciding each event; prints decision lines
               of the form  time<TAB>src->dest<TAB>allow|deny<TAB>policy
    algebra    apply an operator (--op) to the named policies

Exit codes: 0 success/upheld, 1 violation found, 2 parse error,
3 validation error, 4 match cap exceeded, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .algebra import (
    DomainMismatchError,
    UniverseBounds,
    UniverseCeilingError,
    conjoin,
    conjoin_same_domain,
    contains,
    coverage_compare,
    disjoin,
    eval_policy_expr,
    nullify_graph,
    reverse,
)
from .matching import DEFAULT_MATCH_CAP, InvalidPolicyError, MatchCapExceeded, find_matches
from .monitor import Monitor
from .policy import PolicyError, PolicyGraph, domain_of, load_policies, print_policy, validate_policy
from .predicates import ParseError, PredicateTypeError
from .reports import build_report, render_jsonl, render_text
from .system import TraceError, ingest_trace, read_jsonl
from .values import to_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # distinct from policy parse errors
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="policygraph", description="graph policy engine")
    parser.add_argument("--policies", nargs="+", metavar="FILE", required=True,
                        help="policy files; each may hold several policy blocks")
    parser.add_argument("--trace", metavar="FILE", help="JSON Lines trace, or - for stdin")
    parser.add_argument("--mode", choices=["check", "match", "validate", "monitor", "algebra"],
                        default="check")
    parser.add_argument("--report", choices=["text", "jsonl"], default="text")
    parser.add_argument("--match-cap", type=int, default=DEFAULT_MATCH_CAP, metavar="N")
    parser.add_argument("--universe", metavar="FILE",
                        help="JSON universe bounds, for algebra contains/coverage")
    parser.add_argument("--op", choices=["and", "or", "reverse", "nullify", "contains", "coverage"],
                        help="algebra operator")
    parser.add_argument("--targets", nargs="*", default=[], metavar="NAME",
                        help="policy names the algebra operator applies to")
    return parser


def _load_all_policies(paths: Sequence[str]) -> list[PolicyGraph]:
    policies: list[PolicyGraph] = []
    seen: set[str] = set()
    for path in paths:
        for p in load_policies(path):
            if p.name in seen:
                raise PolicyError(f"duplicate policy name {p.name!r} across inputs")
            seen.add(p.name)
            policies.append(p)
    return policies


def _read_trace_records(spec: str):
    """Decoded records of the trace file, or of stdin for "-".  A file is
    closed once its records run out, or when the reader is dropped."""
    if spec == "-":
        yield from read_jsonl(sys.stdin)
        return
    with open(spec, "r", encoding="utf-8") as handle:
        yield from read_jsonl(handle)


def _validate_or_fail(policies, out) -> int:
    issues = [issue for p in policies for issue in validate_policy(p)]
    for issue in issues:
        print(str(issue), file=out)
    return EXIT_VALIDATION if issues else EXIT_OK


def _pick(policies: Sequence[PolicyGraph], name: str) -> PolicyGraph:
    for p in policies:
        if p.name == name:
            return p
    raise PolicyError(f"no policy named {name!r} was loaded")


def _run_algebra(args, policies, out) -> int:
    targets = [_pick(policies, name) for name in args.targets]
    op = args.op
    if op is None:
        print("algebra mode needs --op", file=sys.stderr)
        return EXIT_USAGE
    if op == "nullify":
        if len(targets) != 1:
            print("nullify takes one target", file=sys.stderr)
            return EXIT_USAGE
        print(print_policy(nullify_graph(targets[0])), end="", file=out)
        return EXIT_OK
    if op == "reverse":
        if len(targets) != 1:
            print("reverse takes one target", file=sys.stderr)
            return EXIT_USAGE
        for disjunct in reverse(targets[0]).operands:
            print(print_policy(disjunct.policy), end="", file=out)
        return EXIT_OK
    if op in ("and", "or"):
        if len(targets) != 2:
            print(f"{op} takes two targets", file=sys.stderr)
            return EXIT_USAGE
        a, b = targets
        if op == "and":
            try:
                print(print_policy(conjoin_same_domain(a, b)), end="", file=out)
                return EXIT_OK
            except DomainMismatchError:
                pass  # no graph form; fall back to evaluating on the trace
        expr = conjoin(a, b) if op == "and" else disjoin(a, b)
        if not args.trace:
            print(f"{op}: no single-policy graph form; provide --trace to evaluate", file=sys.stderr)
            return EXIT_USAGE
        graph = ingest_trace(_read_trace_records(args.trace))
        upheld = eval_policy_expr(expr, graph, args.match_cap)
        print(f"{op}({a.name}, {b.name}): {'upheld' if upheld else 'violated'}", file=out)
        return EXIT_OK if upheld else EXIT_VIOLATION
    # contains / coverage need universe bounds
    if len(targets) != 2:
        print(f"{op} takes two targets", file=sys.stderr)
        return EXIT_USAGE
    if not args.universe:
        print(f"{op} needs --universe", file=sys.stderr)
        return EXIT_USAGE
    with open(args.universe, "r", encoding="utf-8") as handle:
        universe = UniverseBounds.from_json(handle.read())
    a, b = targets
    if op == "contains":
        result = contains(a, b, universe)
        print(f"contains({a.name}, {b.name}): {result}", file=out)
    else:
        result = coverage_compare(domain_of(a), domain_of(b), universe)
        print(f"coverage({a.name}, {b.name}): {result}", file=out)
    return EXIT_OK


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        policies = _load_all_policies(args.policies)
        if args.mode == "validate":
            return _validate_or_fail(policies, out)
        if args.mode == "algebra":
            code = _validate_or_fail(policies, sys.stderr)
            if code:
                return code
            return _run_algebra(args, policies, out)
        if not args.trace:
            print(f"mode {args.mode!r} needs --trace", file=sys.stderr)
            return EXIT_USAGE
        code = _validate_or_fail(policies, sys.stderr)
        if code:
            return code
        if args.mode == "monitor":
            monitor = Monitor(policies, args.match_cap)
            for decision in monitor.run(_read_trace_records(args.trace)):
                print(decision.line(), file=out)
            return EXIT_OK
        graph = ingest_trace(_read_trace_records(args.trace))
        if args.mode == "match":
            for p in policies:
                for m in find_matches(p, graph, args.match_cap):
                    record = {
                        "policy": p.name,
                        "edges": dict(sorted(m.edge_events.items())),
                        "isolated": {n: list(pair) for n, pair in sorted(m.isolated_objects.items())},
                        "bindings": {v: to_json(b) for v, b in sorted(m.bindings.items())},
                    }
                    print(json.dumps(record, sort_keys=True), file=out)
            return EXIT_OK
        report = build_report(policies, graph, args.match_cap)
        rendered = render_jsonl(report) if args.report == "jsonl" else render_text(report)
        out.write(rendered)
        return EXIT_OK if report.upheld else EXIT_VIOLATION
    except (ParseError, TraceError, PredicateTypeError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidPolicyError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MatchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UniverseCeilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
