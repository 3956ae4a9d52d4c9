"""Command line front end.

    policygraph --policies FILE [FILE...] --trace FILE [--mode check] ...

Modes:
    check      evaluate every policy over the whole trace; exit 0 iff upheld
    match      list domain matches without judging requirements
    validate   check policy well-formedness only (no trace needed)
    monitor    stream the trace, deciding each event; prints decision lines
               of the form  time<TAB>src->dest<TAB>allow|deny<TAB>policy
    algebra    apply an operator (--op) to the named policies

Exit codes: 0 success/upheld, 1 violation found, 2 parse error or an
input file (policies, trace, universe) that cannot be read or is malformed,
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
from .reports import build_report, match_record, render_jsonl, render_text
from .system import TraceError, ingest_trace, read_jsonl

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
    arity = 1 if op in ("nullify", "reverse") else 2
    if len(targets) != arity:
        print(f"{op} takes {'one target' if arity == 1 else 'two targets'}", file=sys.stderr)
        return EXIT_USAGE
    if op == "nullify":
        print(print_policy(nullify_graph(targets[0])), end="", file=out)
        return EXIT_OK
    if op == "reverse":
        for disjunct in reverse(targets[0]).operands:
            print(print_policy(disjunct.policy), end="", file=out)
        return EXIT_OK
    if op in ("and", "or"):
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
    if not args.universe:
        print(f"{op} needs --universe", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.universe, "r", encoding="utf-8") as handle:
            universe = UniverseBounds.from_json(handle.read())
    except ValueError as exc:  # not UTF-8 or JSON, or a field missing or ill-typed
        print(f"error: {args.universe}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    a, b = targets
    if op == "contains":
        result = contains(a, b, universe, args.match_cap)
        print(f"contains({a.name}, {b.name}): {result}", file=out)
    else:
        result = coverage_compare(domain_of(a), domain_of(b), universe, args.match_cap)
        print(f"coverage({a.name}, {b.name}): {result}", file=out)
    return EXIT_OK


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.match_cap < 0:
        parser.error(f"argument --match-cap: must not be negative, got {args.match_cap}")
    try:
        policies = _load_all_policies(args.policies)
        if args.mode not in ("validate", "algebra") and not args.trace:
            print(f"mode {args.mode!r} needs --trace", file=sys.stderr)
            return EXIT_USAGE
        code = _validate_or_fail(policies, out if args.mode == "validate" else sys.stderr)
        if code or args.mode == "validate":
            return code
        if args.mode == "algebra":
            return _run_algebra(args, policies, out)
        if args.mode == "monitor":
            monitor = Monitor(policies, args.match_cap)
            for decision in monitor.run(_read_trace_records(args.trace)):
                print(decision.line(), file=out)
            return EXIT_OK
        graph = ingest_trace(_read_trace_records(args.trace))
        if args.mode == "match":
            for p in policies:
                for m in find_matches(p, graph, args.match_cap):
                    print(json.dumps({"policy": p.name, **match_record(m)}, sort_keys=True), file=out)
            return EXIT_OK
        report = build_report(policies, graph, args.match_cap)
        rendered = render_jsonl(report) if args.report == "jsonl" else render_text(report)
        out.write(rendered)
        return EXIT_OK if report.upheld else EXIT_VIOLATION
    except (ParseError, TraceError, PredicateTypeError, PolicyError, OSError, UnicodeDecodeError) as exc:
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
