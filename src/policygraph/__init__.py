"""Graph-based policy constraint engine.

Policies are small graphs whose nodes and edges carry predicates split into
a *domain* half (where does the policy apply?) and a *requirement* half
(what must hold there?).  Systems are graphs too, built from JSON Lines
traces of object snapshots and events.  The engine enumerates every way a
policy's domain maps into a system and judges the requirement at each such
match; a policy is upheld when every match satisfies it.

The pieces:

- :mod:`policygraph.values`      value model: scalars plus structural sets
- :mod:`policygraph.predicates`  predicate language, evaluation, conditions
- :mod:`policygraph.system`      trace ingestion into system graphs
- :mod:`policygraph.policy`      policy parsing, printing, well-formedness
- :mod:`policygraph.matching`    domain matching and verdicts
- :mod:`policygraph.monitor`     event-at-a-time allow/deny streaming
- :mod:`policygraph.algebra`     combining, reversing, comparing policies
- :mod:`policygraph.reports`     human- and machine-readable reports
- :mod:`policygraph.corpus`      bundled classic policies with fixtures
- :mod:`policygraph.cli`         the ``policygraph`` command
"""

from .values import ValueSet, canonical, from_json, to_json, values_equal
from .predicates import (
    BOTTOM,
    FALSE,
    TRUE,
    Attr,
    BinOp,
    Conditions,
    Const,
    Expr,
    Not,
    ParseError,
    PredicateTypeError,
    Var,
    attributes_of,
    evaluate,
    extract_bindings,
    fold_constants,
    format_expr,
    merge_conditions,
    parse_predicate,
    reduce_conditions,
    satisfy,
    substitute_attrs,
    substitute_vars,
    variables_of,
)
from .system import (
    ObjectSnapshot,
    SystemEvent,
    SystemGraph,
    TraceError,
    apply_record,
    ingest_trace,
    load_trace,
    read_jsonl,
    write_jsonl,
)
from .policy import (
    RULE_NODE_REQUIREMENT_ATTRS,
    RULE_VARIABLE_BINDING,
    BasicGraph,
    EdgeSpec,
    PatternGraph,
    PolicyError,
    PolicyGraph,
    ValidationIssue,
    domain_of,
    load_policies,
    make_policy,
    parse_policy,
    parse_policy_set,
    print_policy,
    requirement_of,
    validate_policy,
)
from .matching import (
    DEFAULT_MATCH_CAP,
    CompositeVerdict,
    InvalidPolicyError,
    Match,
    MatchCapExceeded,
    MatchingError,
    Verdict,
    Witness,
    check_requirement,
    find_matches,
    match_graph,
    match_pattern,
    verdict,
    verdict_all,
)
from .monitor import Decision, Monitor
from .algebra import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESSER,
    Always,
    Atom,
    Conjunction,
    ContainmentResult,
    CoverageResult,
    Disjunction,
    DomainMismatchError,
    PolicyExpr,
    Reversal,
    UniverseBounds,
    UniverseCeilingError,
    conjoin,
    conjoin_same_domain,
    contains,
    coverage_compare,
    disjoin,
    enumerate_systems,
    eval_policy_expr,
    nullify,
    nullify_graph,
    reverse,
    reverse_expr,
)
from .reports import Report, build_report, render_jsonl, render_text, report_records

__version__ = "0.1.0"


def __getattr__(name):
    # Imported lazily so `python -m policygraph.corpus` does not re-execute
    # an already-imported module.
    if name == "run_corpus":
        from .corpus import run_corpus

        return run_corpus
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    # values
    "ValueSet", "canonical", "from_json", "to_json", "values_equal",
    # predicates
    "Expr", "Const", "Attr", "Var", "Not", "BinOp", "TRUE", "FALSE",
    "ParseError", "PredicateTypeError", "parse_predicate", "format_expr",
    "evaluate", "satisfy", "Conditions", "BOTTOM", "merge_conditions",
    "reduce_conditions", "extract_bindings", "substitute_attrs",
    "substitute_vars", "fold_constants", "variables_of", "attributes_of",
    # system
    "SystemGraph", "ObjectSnapshot", "SystemEvent", "TraceError",
    "apply_record", "ingest_trace", "load_trace", "read_jsonl", "write_jsonl",
    # policy
    "PolicyGraph", "PatternGraph", "BasicGraph", "EdgeSpec", "PolicyError",
    "ValidationIssue", "RULE_VARIABLE_BINDING", "RULE_NODE_REQUIREMENT_ATTRS",
    "make_policy", "parse_policy", "parse_policy_set", "load_policies",
    "print_policy", "validate_policy", "domain_of", "requirement_of",
    # matching
    "Match", "Witness", "Verdict", "CompositeVerdict", "DEFAULT_MATCH_CAP",
    "MatchCapExceeded", "InvalidPolicyError", "MatchingError", "find_matches",
    "match_graph", "match_pattern",
    "check_requirement", "verdict", "verdict_all",
    # monitor
    "Monitor", "Decision",
    # algebra
    "PolicyExpr", "Atom", "Always", "Conjunction", "Disjunction", "Reversal",
    "DomainMismatchError", "UniverseCeilingError", "UniverseBounds",
    "conjoin", "conjoin_same_domain", "disjoin", "reverse", "reverse_expr",
    "nullify", "nullify_graph", "eval_policy_expr", "enumerate_systems",
    "coverage_compare", "contains", "CoverageResult", "ContainmentResult",
    "GREATER", "LESSER", "EQUAL", "INCOMPARABLE",
    # reports
    "Report", "build_report", "render_text", "render_jsonl", "report_records",
    # corpus
    "run_corpus",
]
