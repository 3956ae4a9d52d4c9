"""Seeded input generators for the benchmark's four workloads.

Each generator returns a Workload: policy texts, the trace records that
batch check and the monitor both consume, and the bounded universes of the
algebra section.  The seed decides which objects each event touches and the
order of events; every count that drives cost (events, reads per
consultant, allowed and denied reads, snapshots, retrievals per customer)
is fixed, and in wall_join so are the instants of each actor's events.  So
two seeds cost the same work and differ only in which objects carry it.

No engine code is imported here: the engine receives only what these
functions produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NO_READ_UP = """\
policy no_read_up {
  node u domain: type = "user" && sec_level = $UL
  node f domain: type = "file" && sec_level = $FL
  edge r: u -> f domain: method = "read" req: $UL >= $FL
}
"""

CHINESE_WALL = """\
policy chinese_wall {
  node c domain: type = "consultant"
  node o1 domain: type = "data" && owner = $O1 && coi_class = $C1
  node o2 domain: type = "data" && owner = $O2 && coi_class = $C2
  edge r1: c -> o1 domain: method = "read"
  edge r2: c -> o2 domain: method = "read" req: $O1 = $O2 || $C1 != $C2
}
"""

IMAGE_RETRIEVAL_LIMIT = """\
policy image_retrieval_limit {
  node cust domain: type = "customer" && service_level < 6
  node img domain: type = "image" && free = false
  edge g1: cust -> img domain: method = "retrieve"
  edge g2: cust -> img domain: method = "retrieve"
  edge g3: cust -> img domain: method = "retrieve"
  edge g4: cust -> img domain: method = "retrieve" req: false
}
"""

PASSWD = """\
policy password_file_never_world_writable {
  node pw domain: name = "/etc/passwd" && world_writable = $W req: $W = false
}
"""

# The acceptance-criterion-4 policies, plus a strict and a loose variant of
# flow for containment.
FLOW = """\
policy flow {
  node a
  node b
  edge e: a -> b domain: act = $A req: $A = 0
}
"""

FLOW2 = """\
policy flow2 {
  node a
  node b
  edge e: a -> b domain: act = $A req: $A = 1
}
"""

TAG = """\
policy tag {
  node n domain: kind = $K req: $K = 1
}
"""

FLOW_STRICT = """\
policy flow_strict {
  node a
  node b
  edge e: a -> b domain: act = $A req: $A = 0
}
"""

FLOW_LOOSE = """\
policy flow_loose {
  node a
  node b
  edge e: a -> b domain: act = $A req: $A = 0 || $A = 1
}
"""


@dataclass
class Workload:
    name: str
    policy_text: str  # every policy check and monitor use, in one file
    check: list[str]  # policy names judged by `policygraph --mode check`
    monitor: list[str]  # policy names the monitor enforces
    records: list[dict]
    # algebra section: universes as UniverseBounds keyword arguments
    identity_universe: dict
    contains_universe: dict
    sizes: dict
    # Check passes and monitor streams per round; more than one where a pass
    # or a stream takes a fraction of a second, for more samples in the
    # medians.
    check_passes: int = 1
    streams: int = 1
    algebra_text: str = FLOW + FLOW2 + TAG + FLOW_STRICT + FLOW_LOOSE


# Universes of the algebra section.  The large ones belong to
# algebra_universe; the small ones keep the algebra numbers of the trace
# workloads non-zero at a fraction of a round's time.
IDENTITY_LARGE = dict(
    max_objects=2, max_instances=2, attributes=("kind",), parameters=("act",), values=(0, 1), max_events=1
)
IDENTITY_SMALL = dict(
    max_objects=2, max_instances=1, attributes=("kind",), parameters=("act",), values=(0, 1), max_events=2
)
CONTAINS_LARGE = dict(
    max_objects=2, max_instances=1, attributes=("kind",), parameters=("act",), values=(0, 1, 2), max_events=2
)
CONTAINS_SMALL = dict(
    max_objects=2, max_instances=1, attributes=("kind",), parameters=("act",), values=(0, 1), max_events=1
)


def _obj(t: int, obj_id: str, **attrs) -> dict:
    return {"t": t, "object": {"id": obj_id, "attrs": attrs}}


def _event(t: int, src: str, dest: str, **params) -> dict:
    return {"t": t, "event": {"src": src, "dest": dest, "params": params}}


# nru_stream
NRU_USERS = 48
NRU_FILES = 48
NRU_EVENTS = 2400
NRU_REGRADE_EVERY = 60


def nru_stream(seed: int) -> Workload:
    """no_read_up over reads and writes, one record per instant.

    Exactly a third of the reads go up a level (denied by the monitor,
    violations in batch).  A re-grading swaps the levels of two users or of
    two files, so the multiset of levels, and with it the ratio of reads
    that can go up, never changes.
    """
    rng = random.Random(seed)
    events, regrade_every = NRU_EVENTS, NRU_REGRADE_EVERY
    user_ids = [f"u{i:03d}" for i in range(NRU_USERS)]
    file_ids = [f"f{i:03d}" for i in range(NRU_FILES)]
    level = {}
    for ids in (user_ids, file_ids):
        levels = [i % 3 for i in range(len(ids))]
        rng.shuffle(levels)
        level.update(zip(ids, levels))
    records = [_obj(1, u, type="user", sec_level=level[u]) for u in user_ids]
    records += [_obj(1, f, type="file", sec_level=level[f]) for f in file_ids]
    # 90 % reads, of which a third go up a level
    kinds = ["write"] * (events // 10)
    reads = events - len(kinds)
    kinds += ["read_up"] * (reads // 3) + ["read_ok"] * (reads - reads // 3)
    rng.shuffle(kinds)
    t = 1
    for i, kind in enumerate(kinds):
        t += 1
        if i and i % regrade_every == 0:
            ids = user_ids if (i // regrade_every) % 2 else file_ids
            a, b = rng.sample(ids, 2)
            level[a], level[b] = level[b], level[a]
            kind_attr = "user" if ids is user_ids else "file"
            records.append(_obj(t, a, type=kind_attr, sec_level=level[a]))
            records.append(_obj(t, b, type=kind_attr, sec_level=level[b]))
            t += 1
        while True:
            u, f = rng.choice(user_ids), rng.choice(file_ids)
            if kind == "write" or (level[u] < level[f]) == (kind == "read_up"):
                break
        records.append(_event(t, u, f, method="write" if kind == "write" else "read"))
    return Workload(
        "nru_stream",
        NO_READ_UP,
        ["no_read_up"],
        ["no_read_up"],
        records,
        IDENTITY_SMALL,
        CONTAINS_SMALL,
        dict(users=NRU_USERS, files=NRU_FILES, events=events, reads=reads, reads_up=reads // 3,
             regrade_every=regrade_every),
        check_passes=2,
    )


# wall_join
WALL_CONSULTANTS = 3
WALL_CLASSES = 4
WALL_OWNERS_PER_CLASS = 3
WALL_DATA_PER_OWNER = 2
WALL_ALLOWED_REPEAT = 3
WALL_DENIED_READS = 12
WALL_WRITES = 860
WALL_RETRIEVALS = (6, 8)
WALL_BLOCKED_RETRIEVALS = 24


def wall_join(seed: int) -> Workload:
    """chinese_wall and image_retrieval_limit over one stream.

    Each consultant picks one owner per conflict class and reads each of
    that owner's data WALL_ALLOWED_REPEAT times, entering every class first;
    WALL_DENIED_READS more reads go, one each, to distinct data of other
    owners, so the monitor denies every one of them.  Customers below
    service level 6 retrieve paid images the counts in WALL_RETRIEVALS;
    other retrievals go to a free image or come from premium customers and
    never match.  Clerks write data WALL_WRITES times; no policy edge takes
    a write.
    """
    rng = random.Random(seed)
    classes, owners_per_class, data_per_owner = WALL_CLASSES, WALL_OWNERS_PER_CLASS, WALL_DATA_PER_OWNER
    denied_reads, retrievals, blocked_retrievals = WALL_DENIED_READS, WALL_RETRIEVALS, WALL_BLOCKED_RETRIEVALS
    data = []  # (id, owner, class)
    for k in range(classes):
        for o in range(owners_per_class):
            for d in range(data_per_owner):
                data.append((f"d{k}_{o}_{d}", f"own{k}_{o}", f"coi{k}"))
    records = [_obj(1, d, type="data", owner=owner, coi_class=coi) for d, owner, coi in data]
    cons = [f"c{i:02d}" for i in range(WALL_CONSULTANTS)]
    records += [_obj(1, c, type="consultant") for c in cons]
    customers = [f"cust{i}" for i in range(len(retrievals))]
    premium = ["vip0", "vip1"]
    images = [f"img{i}" for i in range(len(retrievals))]
    records += [_obj(1, c, type="customer", service_level=3) for c in customers]
    records += [_obj(1, c, type="customer", service_level=7) for c in premium]
    records += [_obj(1, i, type="image", free=False) for i in images]
    records += [_obj(1, "freeimg", type="image", free=True)]

    events = []  # one stream of (src, dest, method) per actor
    for c in cons:
        side = {k: rng.randrange(owners_per_class) for k in range(classes)}
        # the consultant enters every class on its chosen side first ...
        entries = [(c, f"d{k}_{side[k]}_{rng.randrange(data_per_owner)}") for k in range(classes)]
        rng.shuffle(entries)
        rest = [(c, f"d{k}_{side[k]}_{d}") for k in range(classes) for d in range(data_per_owner)] * WALL_ALLOWED_REPEAT
        for entry in entries:
            rest.remove(entry)
        rng.shuffle(rest)
        stream = entries + rest
        # ... so every read of another owner's data in a class conflicts with
        # a committed read.  Denied reads sit at fixed places in the stream:
        # the monitor's store then grows the same way whatever the seed.
        across = [(k, o, d) for k in range(classes) for o in range(owners_per_class) if o != side[k]
                  for d in range(data_per_owner)]
        span = len(stream) + denied_reads - classes
        for j, (k, o, d) in enumerate(rng.sample(across, denied_reads)):
            stream.insert(classes + round((j + 0.5) * span / denied_reads), (c, f"d{k}_{o}_{d}"))
        events.append([(src, dest, "read") for src, dest in stream])
    for cust, img, k in zip(customers, images, retrievals):
        events.append([(cust, img, "retrieve")] * k)
    others = [(rng.choice(premium), rng.choice(images), "retrieve") for _ in range(blocked_retrievals // 2)]
    others += [(rng.choice(customers), "freeimg", "retrieve") for _ in range(blocked_retrievals - len(others))]
    events.append(others)
    clerks = ["clerk0", "clerk1", "clerk2"]
    records += [_obj(1, c, type="clerk") for c in clerks]
    events.append([(rng.choice(clerks), rng.choice(data)[0], "write") for _ in range(WALL_WRITES)])
    records += _interleave(events, start=2)
    return Workload(
        "wall_join",
        CHINESE_WALL + IMAGE_RETRIEVAL_LIMIT,
        ["chinese_wall", "image_retrieval_limit"],
        ["chinese_wall", "image_retrieval_limit"],
        records,
        IDENTITY_SMALL,
        CONTAINS_SMALL,
        dict(consultants=WALL_CONSULTANTS, data=len(data),
             reads_per_consultant=classes * data_per_owner * WALL_ALLOWED_REPEAT + denied_reads,
             denied_per_consultant=denied_reads, retrievals=list(retrievals),
             blocked_retrievals=blocked_retrievals, writes=WALL_WRITES),
        check_passes=2,
    )


def _interleave(streams: list[list[tuple]], start: int) -> list[dict]:
    """Merge per-actor streams, one event per instant, each stream spread
    evenly over the whole trace in its own order.  The merged order depends
    only on the streams' lengths: the seed decides what each event is, not
    when each actor acts."""
    slots = sorted(((k + 0.5) / len(s), i) for i, s in enumerate(streams) for k in range(len(s)))
    cursors = [0] * len(streams)
    out = []
    for t, (_, i) in enumerate(slots, start=start):
        src, dest, method = streams[i][cursors[i]]
        cursors[i] += 1
        out.append(_event(t, src, dest, method=method))
    return out


# passwd_horizon
PASSWD_HORIZON = 8000
PASSWD_SNAPSHOTS = 160
PASSWD_EVENTS = 2400


def passwd_horizon(seed: int) -> Workload:
    """A state-only policy over a long horizon.

    /etc/passwd is re-snapshotted at PASSWD_SNAPSHOTS distinct instants,
    each flipping world_writable; three other objects exchange PASSWD_EVENTS
    edge events at random instants.  The last record is at PASSWD_HORIZON.
    """
    rng = random.Random(seed)
    horizon, snapshots, events = PASSWD_HORIZON, PASSWD_SNAPSHOTS, PASSWD_EVENTS
    snap_times = sorted(rng.sample(range(2, horizon), snapshots))
    event_times = sorted(rng.choices(range(2, horizon), k=events - 1)) + [horizon]
    actors = ["root", "/tmp/x", "/var/log/auth"]
    records = [
        _obj(1, "/etc/passwd", name="/etc/passwd", world_writable=False),
        _obj(1, "root", name="root", type="user"),
        _obj(1, "/tmp/x", name="/tmp/x", world_writable=True),
        _obj(1, "/var/log/auth", name="/var/log/auth", world_writable=False),
    ]
    writable = False
    timeline = [(t, 0) for t in snap_times] + [(t, 1) for t in event_times]
    timeline.sort()  # snapshots before events within an instant
    for t, kind in timeline:
        if kind == 0:
            writable = not writable
            records.append(_obj(t, "/etc/passwd", name="/etc/passwd", world_writable=writable))
        else:
            src, dest = rng.sample(actors, 2)
            records.append(_event(t, src, dest, method=rng.choice(("read", "write", "chmod"))))
    return Workload(
        "passwd_horizon",
        PASSWD,
        ["password_file_never_world_writable"],
        ["password_file_never_world_writable"],
        records,
        IDENTITY_SMALL,
        CONTAINS_SMALL,
        dict(horizon=horizon, snapshots=snapshots, events=events, objects=4),
        streams=8,  # a stream takes milliseconds
    )


# algebra_universe: the check and monitor trace
ALGEBRA_OBJECTS = 16
ALGEBRA_INSTANTS = 40
ALGEBRA_EVENTS_PER_INSTANT = 30


def algebra_universe(seed: int) -> Workload:
    """The criterion-4 policies: large universes for the algebra section,
    and a small flow/tag trace so check and monitor run here too."""
    rng = random.Random(seed)
    objects, instants, events_per_instant = ALGEBRA_OBJECTS, ALGEBRA_INSTANTS, ALGEBRA_EVENTS_PER_INSTANT
    ids = [f"o{i:02d}" for i in range(objects)]
    records = []
    for t in range(1, instants + 1):
        # a quarter of the objects are re-tagged each instant, before its events
        for obj in (ids if t == 1 else rng.sample(ids, objects // 4)):
            records.append(_obj(t, obj, kind=rng.randrange(2)))
        acts = [0, 1] * (events_per_instant // 2)
        rng.shuffle(acts)
        for act in acts:
            src, dest = rng.sample(ids, 2)
            records.append(_event(t, src, dest, act=act))
    return Workload(
        "algebra_universe",
        FLOW + FLOW2 + TAG,
        ["flow", "flow2", "tag"],
        ["flow", "tag"],
        records,
        IDENTITY_LARGE,
        CONTAINS_LARGE,
        dict(objects=objects, instants=instants, events=instants * events_per_instant),
        check_passes=4,  # a pass or a stream takes a fraction of a second
        streams=4,
    )


WORKLOADS = {
    "nru_stream": nru_stream,
    "wall_join": wall_join,
    "passwd_horizon": passwd_horizon,
    "algebra_universe": algebra_universe,
}
