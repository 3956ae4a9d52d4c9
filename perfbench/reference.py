"""Expected outputs of the benchmark's policies, computed without the engine.

Each policy the workloads use has a direct reading here: which events or
(object, instant) pairs match, which of those violate, and which events a
monitor enforcing it denies.  Nothing in this module imports policygraph;
it works on the decoded trace records the engine is also given.

Trace semantics mirrored from the engine: an object's newest snapshot with
time <= t is in effect at t; the horizon is the largest time in the trace;
distinct policy nodes bind distinct objects; values of different kinds
never compare equal (so `false` is not `0`).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if _is_num(a) and _is_num(b):
        return a == b
    return type(a) is type(b) and a == b


def _events(records):
    """Yield (record, src attrs, dest attrs, params) for each event record,
    with the endpoints' attributes in effect at the event."""
    current: dict[str, dict] = {}
    for r in records:
        if "object" in r:
            current[r["object"]["id"]] = r["object"].get("attrs", {})
        else:
            e = r["event"]
            yield r, current[e["src"]], current[e["dest"]], e.get("params", {})


# --- per-policy readings ------------------------------------------------------
# Edge policies: `match(src, dest, params, src_attrs, dest_attrs)` says whether
# an event fits the policy's edge, with the facts its requirement needs.


def _nru_key(e, sa, da, p):
    if p.get("method") == "read" and sa.get("type") == "user" and da.get("type") == "file":
        ul, fl = sa.get("sec_level"), da.get("sec_level")
        if ul is not None and fl is not None and e["src"] != e["dest"]:
            return ul, fl
    return None


def _wall_key(e, sa, da, p):
    if p.get("method") == "read" and sa.get("type") == "consultant" and da.get("type") == "data":
        if "owner" in da and "coi_class" in da and e["src"] != e["dest"]:
            return e["src"], e["dest"], da["owner"], da["coi_class"]
    return None


def _walls_conflict(a, b) -> bool:
    """Both reads by one consultant on distinct objects: a violating pair
    has different owners in the same conflict class (symmetric)."""
    return a[1] != b[1] and not _same(a[2], b[2]) and _same(a[3], b[3])


def _image_key(e, sa, da, p):
    if p.get("method") == "retrieve" and sa.get("type") == "customer" and da.get("type") == "image":
        level, free = sa.get("service_level"), da.get("free")
        if _is_num(level) and level < 6 and _same(free, False) and e["src"] != e["dest"]:
            return e["src"], e["dest"]
    return None


def _flow_key(e, sa, da, p):
    if "act" in p and e["src"] != e["dest"]:
        return p["act"]
    return None


def check_no_read_up(records):
    keys = [k for k in (_nru_key(r["event"], *rest) for r, *rest in _events(records)) if k]
    return len(keys), sum(1 for ul, fl in keys if not ul >= fl)


def check_chinese_wall(records):
    by_consultant: dict[str, Counter] = defaultdict(Counter)
    for r, *rest in _events(records):
        k = _wall_key(r["event"], *rest)
        if k:
            by_consultant[k[0]][k] += 1
    matches = violations = 0
    for reads in by_consultant.values():
        for a, na in reads.items():
            for b, nb in reads.items():
                if a[1] != b[1]:  # ordered pairs of reads on distinct objects
                    matches += na * nb
                    violations += na * nb if _walls_conflict(a, b) else 0
    return matches, violations


def check_image_retrieval_limit(records):
    counts = Counter(k for k in (_image_key(r["event"], *rest) for r, *rest in _events(records)) if k)
    # four parallel edges over k retrievals: every ordered choice of four,
    # and g4's requirement is false, so every match violates
    matches = sum(math.perm(k, 4) for k in counts.values())
    return matches, matches


def _edge_flow(required):
    def check(records):
        acts = [k for k in (_flow_key(r["event"], *rest) for r, *rest in _events(records)) if k is not None]
        return len(acts), sum(1 for a in acts if not _same(a, required))

    return check


def _isolated(matches_attrs, violates):
    """One match per (object, instant) from the object's first snapshot to
    the horizon where `matches_attrs` holds of the snapshot in effect."""

    def check(records):
        history: dict[str, list] = defaultdict(list)
        horizon = 0
        for r in records:
            horizon = max(horizon, r["t"])
            if "object" in r:
                h = history[r["object"]["id"]]
                if h and h[-1][0] == r["t"]:
                    h[-1] = (r["t"], r["object"].get("attrs", {}))
                else:
                    h.append((r["t"], r["object"].get("attrs", {})))
        matches = violations = 0
        for h in history.values():
            ends = [t for t, _ in h[1:]] + [horizon + 1]
            for (t, attrs), end in zip(h, ends):
                if matches_attrs(attrs):
                    matches += end - t
                    violations += end - t if violates(attrs) else 0
        return matches, violations

    return check


CHECKS = {
    "no_read_up": check_no_read_up,
    "chinese_wall": check_chinese_wall,
    "image_retrieval_limit": check_image_retrieval_limit,
    "password_file_never_world_writable": _isolated(
        lambda a: _same(a.get("name"), "/etc/passwd") and "world_writable" in a,
        lambda a: not _same(a["world_writable"], False),
    ),
    "flow": _edge_flow(0),
    "flow2": _edge_flow(1),
    "tag": _isolated(lambda a: "kind" in a, lambda a: not _same(a["kind"], 1)),
}


def check(policy: str, records) -> tuple[int, int]:
    """(matches, violations) of one policy over a whole trace."""
    return CHECKS[policy](records)


# --- the monitor --------------------------------------------------------------


class _Denier:
    """Per-policy monitor state: `denies(event facts)` looks only at
    committed events, `commit` records an allowed one."""

    def __init__(self, policy: str):
        self.policy = policy
        self.committed: list = []
        self.counts: Counter = Counter()

    def denies(self, e, sa, da, p) -> bool:
        if self.policy == "no_read_up":
            k = _nru_key(e, sa, da, p)
            return k is not None and not k[0] >= k[1]
        if self.policy == "chinese_wall":
            k = _wall_key(e, sa, da, p)
            return k is not None and any(
                c[0] == k[0] and c[1] != k[1] and _walls_conflict(c, k) for c in self.committed
            )
        if self.policy == "image_retrieval_limit":
            k = _image_key(e, sa, da, p)
            return k is not None and self.counts[k] >= 3
        if self.policy in ("flow", "flow2"):
            k = _flow_key(e, sa, da, p)
            return k is not None and not _same(k, 0 if self.policy == "flow" else 1)
        return False  # isolated-node policies never deny an event

    def commit(self, e, sa, da, p) -> None:
        if self.policy == "chinese_wall":
            k = _wall_key(e, sa, da, p)
            if k:
                self.committed.append(k)
        elif self.policy == "image_retrieval_limit":
            k = _image_key(e, sa, da, p)
            if k:
                self.counts[k] += 1


def monitor(policies, records):
    """Per event record, (allowed, denied_by); plus the records a monitor
    keeps (every object record and the allowed events)."""
    deniers = [_Denier(p) for p in policies]
    decisions = []
    kept = []
    current: dict[str, dict] = {}
    for r in records:
        if "object" in r:
            current[r["object"]["id"]] = r["object"].get("attrs", {})
            kept.append(r)
            continue
        e = r["event"]
        facts = (e, current[e["src"]], current[e["dest"]], e.get("params", {}))
        denied_by = tuple(sorted(d.policy for d in deniers if d.denies(*facts)))
        decisions.append((not denied_by, denied_by))
        if not denied_by:
            kept.append(r)
            for d in deniers:
                d.commit(*facts)
    return decisions, kept


# --- bounded universes --------------------------------------------------------


def universe_size(max_objects, max_instances, attributes, parameters, values, max_events=2, **_):
    """Systems in a universe: per object count k, every value for every
    (object, instant, attribute) cell times every set of at most
    `max_events` distinct event slots (instant, source, destination,
    parameter values)."""
    v = len(values)
    total = 0
    for k in range(max_objects + 1):
        slots = max_instances * k * k * v ** len(parameters)
        total += v ** (k * max_instances * len(attributes)) * sum(
            math.comb(slots, j) for j in range(min(max_events, slots) + 1)
        )
    return total
