"""Set values: ValueSet dedupes and finds members through values.Distinct.

Its members, their order, repr, ==, hash and every set operator must be
what a scan comparing each value with every member by values_equal gives,
and construction and membership must stay linear on large sets.
"""

import itertools
import pickle
import random
import time
import tracemalloc

import pytest

from policygraph.matching import verdict
from policygraph.policy import parse_policy
from policygraph.predicates import Const, format_expr
from policygraph.system import ingest_trace
from policygraph.values import Distinct, ValueSet, canonical, sort_key, to_json, values_equal

NAN = float("nan")


def scanned_members(items):
    """The members a linear scan keeps: the first of each group of equal
    values, sorted by sort_key."""
    kept = []
    for item in items:
        if not any(values_equal(item, k) for k in kept):
            kept.append(item)
    return sorted(kept, key=sort_key)


def scanned_in(v, s):
    return any(values_equal(v, m) for m in s)


def random_value(rng, depth=0):
    pick = rng.random()
    if pick < 0.3:
        return rng.randrange(-3, 4)
    if pick < 0.45:
        return float(rng.randrange(-3, 4))  # equal to an int of the line above
    if pick < 0.55:
        return rng.random() < 0.5
    if pick < 0.75:
        return rng.choice(["a", "b", "1", "true", ""])
    if pick < 0.8:
        return NAN
    if pick < 0.83:
        return float("nan")
    if pick < 0.86:
        return rng.choice([2**60, 2**60 + 1, float(2**60), 0.5, -0.0])
    if depth < 2:
        return ValueSet(random_values(rng, depth + 1))
    return 1


def random_values(rng, depth=0):
    return [random_value(rng, depth) for _ in range(rng.randrange(0, 7 if depth == 0 else 4))]


class TestDistinct:
    def test_membership_tells_kinds_apart(self):
        d = Distinct([1, "1", ValueSet([1, 2])])
        assert 1 in d and 1.0 in d and "1" in d
        assert True not in d and "1.0" not in d
        assert ValueSet([2.0, 1.0]) in d and ValueSet([True, 2]) not in d

    def test_a_nan_is_never_a_member(self):
        d = Distinct([NAN, NAN])
        assert d.values == [NAN, NAN]  # kept each time it appears
        assert NAN not in d


class TestAgainstAScan:
    def test_random_sets_equal_the_scan(self):
        rng = random.Random(1501)
        built = []
        for _ in range(3000):
            items = random_values(rng)
            s = ValueSet(items)
            expected = scanned_members(items)
            assert len(s) == len(expected)
            assert all(m is e for m, e in zip(s, expected))  # the first-seen member of each group
            assert repr(s) == "ValueSet({%s})" % ", ".join(repr(m) for m in expected)
            backwards = items[::-1]
            assert all(m is e for m, e in zip(ValueSet(backwards), scanned_members(backwards)))
            probes = items + [random_value(rng) for _ in range(4)]
            assert [p in s for p in probes] == [scanned_in(p, expected) for p in probes]
            if built:
                t = rng.choice(built)
                equal = len(s) == len(t) and all(values_equal(a, b) for a, b in zip(s, t))
                assert (s == t) == equal and (not equal or hash(s) == hash(t))
                both = [m for m in s if scanned_in(m, t)]
                assert list(s.intersect(t)) == scanned_members(both)
                assert list(s.union(t)) == scanned_members(list(s) + list(t))
                assert s.issubset(t) == (len(both) == len(s))
                assert s.ispropersubset(t) == (len(both) == len(s) and len(s) < len(t))
            built.append(s)

    def test_edge_cases_of_the_buckets(self):
        """1, 1.0 and true share a Python bucket, and only 1 and 1.0 are
        equal; a NaN equals nothing and is kept each time it appears."""
        s = ValueSet([1, True, 1.0, NAN, "1", NAN])
        assert [type(m) for m in s] == [int, float, float, str, bool]
        assert 1.0 in s and True in s and "1" in s
        assert False not in s and NAN not in s and "1.0" not in s
        assert 1 not in ValueSet([True]) and True not in ValueSet([1.0])
        nested = ValueSet([ValueSet([1, 2]), ValueSet([2.0, 1.0])])
        assert len(nested) == 1 and ValueSet([2, 1]) in nested and ValueSet([True, 2]) not in nested


def twin(v, rng):
    """A value equal to v built anew: a number of the other type where one
    holds it, -0.0 for 0, and a set from its members' twins, shuffled."""
    if isinstance(v, ValueSet):
        members = [twin(m, rng) for m in v]
        rng.shuffle(members)
        return ValueSet(members)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
        return v
    if v == 0:
        return rng.choice([0, 0.0, -0.0])
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return float(v) if isinstance(v, int) and float(v) == v else v


def has_nan(v):
    if isinstance(v, ValueSet):
        return any(has_nan(m) for m in v)
    return v != v


class TestOrder:
    """Set members are ordered by value, so equal sets list equal members
    in the same order: values_equal then implies equal canonical forms,
    hashes and printed forms, which the monitor's keyed lookup relies on."""

    @pytest.mark.parametrize("make", [
        lambda: ValueSet([None]), lambda: canonical(None), lambda: sort_key(None), lambda: to_json(None),
        lambda: format_expr(Const(None)),
    ], ids=["ValueSet", "canonical", "sort_key", "to_json", "format_expr"])
    def test_a_non_value_is_refused(self, make):
        with pytest.raises(TypeError, match="^not a value: None$"):
            make()

    def test_equal_values_have_equal_forms(self):
        rng = random.Random(1601)
        for _ in range(3000):
            a = random_value(rng)
            for b in (twin(a, rng), random_value(rng)):
                if values_equal(a, b):
                    assert canonical(a) == canonical(b) and hash(canonical(a)) == hash(canonical(b))
                    assert sort_key(a) == sort_key(b)
                    if isinstance(a, ValueSet):
                        assert hash(a) == hash(b)

    def test_every_permutation_gives_one_set(self):
        """Any order of a set's members (a set keeps the first-seen of equal
        values, so 1 and 1.0 are never both members) gives the same set,
        and so do equal members of other types, such as 0.0 for -0.0."""
        rng = random.Random(1602)
        for _ in range(400):
            extra = rng.choice([-0.0, 0, 1, 1.0, True, "1", NAN])
            items = list(ValueSet(random_values(rng)[:5] + [extra]))
            first = ValueSet(items)
            for perm in itertools.permutations(items):
                s = ValueSet(perm)
                assert repr(s) == repr(first)
                if not has_nan(first):
                    assert s == first and hash(s) == hash(first) and canonical(s) == canonical(first)
                    twins = ValueSet(twin(m, rng) for m in perm)
                    assert twins == first and hash(twins) == hash(first) and canonical(twins) == canonical(first)

    def test_numbers_are_ordered_by_value(self):
        assert ValueSet([-0.0, -1.0]) == ValueSet([0.0, -1.0])
        assert hash(ValueSet([-0.0, -1.0])) == hash(ValueSet([0.0, -1.0]))
        assert repr(ValueSet([10, 9, 100])) == "ValueSet({9, 10, 100})"
        huge = 10**400
        s = ValueSet(["a", huge, NAN, 1e308, -huge, 2**60 + 1, float(2**60), True, 0.5])
        assert list(s)[:6] == [-huge, 0.5, float(2**60), 2**60 + 1, 1e308, huge]
        assert list(s)[6] != list(s)[6] and list(s)[7:] == ["a", True]


class TestFootprint:
    def test_an_unprobed_set_holds_only_its_members(self):
        """A set that no membership test has touched takes what one object
        with one slot holding its members' tuple takes, and no more."""

        class OneSlot:
            __slots__ = ("items",)

            def __init__(self, items):
                self.items = tuple(list(items))  # a tuple of its own, as a set has

        triples = [(i, i + 1, i + 2) for i in range(5000)]

        def traced(build):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                held = [build(t) for t in triples]
                return tracemalloc.get_traced_memory()[0] - before, held
            finally:
                tracemalloc.stop()

        sets, _ = traced(ValueSet)
        slots, _ = traced(OneSlot)
        assert sets <= slots + 1024

    def test_a_probed_set_keeps_its_value(self):
        s, fresh = ValueSet(["b", 1, ValueSet([2])]), ValueSet([ValueSet([2.0]), 1.0, "b"])
        assert 1 in s and "c" not in s
        assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(ValueSet(["b", 1, ValueSet([2])]))
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and "b" in copy and "c" not in copy


class TestLargeSets:
    """Construction and membership go through hash buckets; the member
    scans they replace, quadratic in the set's size, took about 6 s to
    build a 4 000-member set and 12 s to intersect two."""

    N = 20_000

    def test_build_intersect_and_subset(self):
        start = time.perf_counter()
        a, b = ValueSet(range(self.N)), ValueSet(float(i) for i in range(self.N - 1, -1, -1))
        assert len(a) == self.N and a == b
        assert len(a.intersect(b)) == self.N and a.issubset(b) and not a.ispropersubset(b)
        assert len(a.union(ValueSet(str(i) for i in range(self.N)))) == 2 * self.N
        assert time.perf_counter() - start < 10

    def test_ingest_and_requirement_checks(self):
        records = [{"t": 0, "object": {"id": "s", "attrs": {"kind": "set", "roles": list(range(self.N))}}}]
        records += [{"t": 0, "object": {"id": f"u{i}", "attrs": {"kind": "user", "u": 100 * i}}} for i in range(200)]
        records += [{"t": 1, "event": {"src": f"u{i}", "dest": "s", "params": {}}} for i in range(200)]
        policy = parse_policy(
            """
            policy member {
              node u domain: kind = "user" && u = $U
              node s domain: kind = "set" && roles = $R
              edge e: u -> s req: $U in $R
            }
            """
        )
        start = time.perf_counter()
        graph = ingest_trace(records)
        result = verdict(policy, graph)
        assert result.upheld and len(result.witnesses) == 200
        assert time.perf_counter() - start < 10
