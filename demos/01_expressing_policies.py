"""Writing predicates and policies.

A policy is a small directed graph.  Nodes stand for objects (users, files,
accounts), edges for events between them.  Every element carries two
predicates: a *domain* saying where the policy applies, and a *requirement*
saying what must hold there.  Predicates share logical variables ($NAME)
whose values are captured during matching.

Run me:  python3 demos/01_expressing_policies.py
"""

from policygraph import (
    InvalidPolicyError,
    MatchingError,
    domain_of,
    evaluate,
    find_matches,
    format_expr,
    ingest_trace,
    match_pattern,
    parse_policy,
    parse_predicate,
    print_policy,
    validate_policy,
)

print("=== Predicates ===\n")

# The expression language has attributes (bare names, looked up in whatever
# context the predicate is evaluated against), constants, variables, boolean
# connectives, comparisons, arithmetic, and finite sets.
pred = parse_predicate('type = "user" && (sec_level >= 2 || "admin" in roles)')
print("parsed and printed back:", format_expr(pred))

# Evaluation folds the predicate against an attribute context.
alice = {"type": "user", "sec_level": 3, "roles": ["ops"]}
print("alice:", format_expr(evaluate(pred, alice, {})))

# A missing attribute never raises: the smallest boolean subexpression
# mentioning it simply becomes false.  Here `roles` is absent but the
# sec_level disjunct still carries the day.
bob = {"type": "user", "sec_level": 2}
print("bob (no roles attribute):", format_expr(evaluate(pred, bob, {})))

print("\n=== Policies ===\n")

# The classic multilevel-security rule: a user may read only files at or
# below their clearance.  Node domains capture the two levels into $UL and
# $FL; the edge requirement compares them.
policy = parse_policy(
    """
policy no_read_up {
  node u domain: type = "user" && sec_level = $UL
  node f domain: type = "file" && sec_level = $FL
  edge r: u -> f domain: method = "read" req: $UL >= $FL
}
"""
)
print(print_policy(policy), end="")
print("validates cleanly:", validate_policy(policy) == [])

# Well-formedness has two rules.  R1: every variable must be pinned down by
# some domain equality (otherwise its value would be a guess).  R2: node
# requirements may not read attributes (a node spans many instants; capture
# the value into a variable instead).
broken = parse_policy(
    """
policy broken {
  node n req: size = $LIMIT
}
"""
)
print("\na policy that breaks both rules:")
for issue in validate_policy(broken):
    print(" ", issue)

print("\n=== Variables: captures and filters ===\n")

# Matching never guesses a variable's value.  Each domain predicate is split
# into its top-level conjuncts.  A *capture*, `attr = $X` or `$X = e` with e
# free of variables, binds $X to the value it reads from the object or event
# at hand.  Any other conjunct that reads a variable is a *filter*: it runs
# once every variable it reads is bound, here when the join has placed both
# ends of the edge.
deploys = parse_policy(
    """
policy deploys {
  node u domain: role = "engineer" && clearance = $C
  node h domain: tier = $T
  edge d: u -> h domain: action = "deploy" && $T <= $C
}
"""
)


def deploy_trace(tier):
    return ingest_trace(
        [
            {"t": 1, "object": {"id": "ana", "attrs": {"role": "engineer", "clearance": 2}}},
            {"t": 1, "object": {"id": "web", "attrs": {"tier": tier}}},
            {"t": 2, "event": {"src": "ana", "dest": "web", "params": {"action": "deploy"}}},
        ]
    )


for m in find_matches(deploys, deploy_trace(1)):
    print("match:", dict(m.node_objects), "event", m.edge_events["d"], "bindings", dict(m.bindings))
print("a tier-3 host fails the filter $T <= $C:", find_matches(deploys, deploy_trace(3)))

# Rule R1 asks every variable to have a capture in some domain.  A variable
# read only by a filter would have to be guessed, so validation refuses the
# policy and find_matches will not run it.
guessing = parse_policy("policy guessing {\n node h domain: tier = 1 && $T > 0\n}")
for issue in validate_policy(guessing):
    print("\nrefused:", issue)
try:
    find_matches(guessing, deploy_trace(1))
except InvalidPolicyError as exc:
    print("find_matches:", exc)

# Matching a bare domain pattern skips validation, but the same check runs
# before any candidate is listed, whether or not a match would complete.
try:
    match_pattern(domain_of(guessing), deploy_trace(1), policy_name=guessing.name)
except MatchingError as exc:
    print("match_pattern:", exc)
