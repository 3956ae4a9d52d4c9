"""Value domain shared by predicates, traces, and reports.

Values are plain Python scalars (str, bool, int, float) plus ValueSet for
finite sets.  Python's own equality conflates bool with int (True == 1), which
would corrupt predicate semantics, so comparisons go through values_equal and
sets get a dedicated class with structural membership.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Iterator, Mapping


def is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_value(v: Any) -> bool:
    return isinstance(v, (str, bool, ValueSet)) or is_number(v)


def values_equal(a: Any, b: Any) -> bool:
    """Structural equality; values of different kinds are never equal."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if is_number(a) and is_number(b):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, ValueSet) and isinstance(b, ValueSet):
        return a == b
    return False


def maps_equal(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Same names, each with equal values (contexts, bindings)."""
    return a.keys() == b.keys() and all(values_equal(a[k], b[k]) for k in a)


def canonical(v: Any):
    """Hashable, kind-tagged form of a value; used for set storage and match
    keys.  A number stays exact: Python's == and hash agree between int and
    float, so 1 and 1.0 still give equal forms, while integers beyond a
    float's precision or range keep distinct ones."""
    if isinstance(v, bool):
        return ("flag", v)
    if is_number(v):
        return ("num", v)
    if isinstance(v, str):
        return ("text", v)
    if isinstance(v, ValueSet):
        return ("set", tuple(canonical(m) for m in v))
    raise TypeError(f"not a value: {v!r}")


class Distinct:
    """A list of values that values_equal tells apart, in first-seen order.

    Each value is compared only with those in its bucket, so adding one
    takes time independent of the list's length.  Values are bucketed by
    Python's own == and hash, under which equal values always meet (1,
    1.0 and true share a bucket, which values_equal then tells apart).
    """

    __slots__ = ("values", "_buckets")

    def __init__(self, values: Iterable[Any] = ()):
        self.values: list[Any] = []
        self._buckets: dict[Any, list[Any]] = {}
        for v in values:
            self.add(v)

    def add(self, v: Any) -> None:
        """Append v unless an equal value is there.  A NaN, equal to
        nothing, is always appended."""
        bucket = self._buckets.setdefault(v, [])
        if not any(values_equal(v, w) for w in bucket):
            bucket.append(v)
            self.values.append(v)

    def __contains__(self, v: Any) -> bool:
        """Whether a value equal to v is there; a NaN never is."""
        return any(values_equal(v, w) for w in self._buckets.get(v, ()))


def sort_key(v: Any):
    """Orders set members: by kind, then by the repr of the canonical form,
    with a number a float holds exactly shown as that float."""
    kind, payload = canonical(v)
    if kind == "num" and isinstance(payload, int) and abs(payload) <= _LARGEST_FLOAT and float(payload) == payload:
        payload = float(payload)
    order = {"num": 0, "text": 1, "flag": 2, "set": 3}[kind]
    return (order, repr(payload))


_LARGEST_FLOAT = sys.float_info.max  # float() overflows on integers beyond it


class ValueSet:
    """Immutable set of values with structural (kind-aware) membership.

    Members are deduplicated with values_equal and kept in a canonical order,
    so two sets with the same members compare and hash equal regardless of
    construction order.  Both equality jobs go through a Distinct: a
    temporary one dedupes the members, and the first membership test
    indexes them (see _Indexed), so a set that is never probed holds
    nothing but its members.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Any] = ()):
        kept = Distinct()
        for item in items:
            if not is_value(item):
                raise TypeError(f"not a value: {item!r}")
            kept.add(item)
        self._items = tuple(sorted(kept.values, key=sort_key))

    def __contains__(self, v: Any) -> bool:
        items = self._items
        if items.__class__ is tuple:
            items = self._items = _Indexed(items)
        return v in items.distinct

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ValueSet):
            return NotImplemented
        return len(self._items) == len(other._items) and all(
            values_equal(a, b) for a, b in zip(self._items, other._items)
        )

    def __hash__(self) -> int:
        return hash(canonical(self))

    def __repr__(self) -> str:
        return "ValueSet({%s})" % ", ".join(repr(i) for i in self._items)

    def union(self, other: "ValueSet") -> "ValueSet":
        return ValueSet(list(self._items) + list(other._items))

    def intersect(self, other: "ValueSet") -> "ValueSet":
        return ValueSet(i for i in self._items if i in other)

    def issubset(self, other: "ValueSet") -> bool:
        return all(i in other for i in self._items)

    def ispropersubset(self, other: "ValueSet") -> bool:
        return self.issubset(other) and len(self) < len(other)


class _Indexed(tuple):
    """A set's members, in order, with the Distinct that finds them; a set
    swaps it in for its plain tuple on its first membership test."""

    def __new__(cls, members: tuple) -> "_Indexed":
        self = super().__new__(cls, members)
        self.distinct = Distinct(members)
        return self


def from_json(x: Any) -> Any:
    """Coerce a decoded JSON value into the engine's value domain.

    Arrays become sets (duplicates collapse structurally); objects and null
    have no counterpart and are rejected.
    """
    if isinstance(x, list):
        return ValueSet(from_json(m) for m in x)
    if isinstance(x, (str, bool)) or is_number(x):
        return x
    raise TypeError(f"unsupported value in trace: {x!r}")


def to_json(v: Any) -> Any:
    """Inverse of from_json; sets serialize as sorted arrays."""
    if isinstance(v, ValueSet):
        return [to_json(m) for m in v]
    if is_value(v):
        return v
    raise TypeError(f"not a value: {v!r}")
