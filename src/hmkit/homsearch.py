"""Homomorphism search and operation tables.

One engine, `hom_maps`, serves `find_homs`, `count_homs`,
`find_retraction`, `structures.find_isomorphism` and the hom-set gadget.
Source elements are assigned in ascending id order and target values tried
in ascending order, so maps come in lexicographic order.  Each unassigned
element keeps a domain bitmask of the target values still open to it.  A
caller may hand in initial domains (`pinned`: source id -> bitmask of
allowed target ids); they only narrow the search, so the maps that remain
come in the same order.  Once all but the highest element of a
source tuple are assigned, a support table precompiled per relation and
open positions narrows that element's domain to the values completing the
tuple (support-set forward checking, Mackworth 1977), so every tuple is
enforced once and found maps need no second check: every search returns
them as bare mapping tuples, and `structures.Homomorphism` is left to
validate maps built elsewhere.  The search runs on an explicit stack, so
no input size is bounded by the recursion limit.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Sequence

from .structures import (
    Relation,
    RelationalStructure,
    SignatureMismatch,
    StructureError,
    power,
)


class HomCheckResult(NamedTuple):
    ok: bool
    symbol: str | None = None
    source_tuple: tuple[int, ...] | None = None
    image_tuple: tuple[int, ...] | None = None


def is_homomorphism(
    source: RelationalStructure, target: RelationalStructure, mapping: Sequence[int]
) -> HomCheckResult:
    """Check a candidate map; on failure report the first violated tuple."""
    mapping = tuple(mapping)
    if source.signature() != target.signature():
        raise SignatureMismatch("endpoints have different signatures")
    if len(mapping) != source.size:
        raise StructureError(f"map has {len(mapping)} entries for universe of size {source.size}")
    for v in mapping:
        if not (0 <= v < target.size):
            raise StructureError(f"map value {v} not in target universe of size {target.size}")
    for sym in source.symbols():
        tgt = target.relations[sym].tuples
        for t in source.relations[sym].sorted_tuples():
            img = tuple(mapping[v] for v in t)
            if img not in tgt:
                return HomCheckResult(False, sym, t, img)
    return HomCheckResult(True)


def hom_maps(
    source: RelationalStructure,
    target: RelationalStructure,
    pinned: Mapping[int, int] | None = None,
    injective: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Mapping tuples of the homomorphisms source -> target, lexicographically.

    `pinned` maps source ids to initial domains: bitmasks of the target ids
    they may take (`1 << v` forces v).  `injective` keeps only injective
    maps.  Nothing runs, input checks included, until the first tuple is
    asked for.
    """
    if source.signature() != target.signature():
        raise SignatureMismatch("endpoints have different signatures")
    n = source.size
    full = (1 << target.size) - 1
    domain = [full] * n
    for k, allowed in (pinned or {}).items():
        if not (0 <= k < n) or not (0 <= allowed <= full):
            raise StructureError(f"pin {k}->{allowed:#b} out of range")
        domain[k] &= allowed

    # checks[v]: (hole, read the other values, support table) for every
    # tuple whose highest element is `hole` and second highest is v
    checks: list[list[tuple]] = [[] for _ in range(n)]
    tables: dict[tuple[str, tuple[int, ...]], dict] = {}
    for sym in source.symbols():
        for t in source.relations[sym].sorted_tuples():
            elems = sorted(set(t))
            hole = elems[-1]
            holes = tuple(i for i, v in enumerate(t) if v == hole)
            table = tables.get((sym, holes))
            if table is None:
                table = tables[sym, holes] = _support_table(target.relations[sym], holes)
            if len(elems) == 1:
                domain[hole] &= table.get((), 0)
            else:
                checks[elems[-2]].append((hole, itemgetter(*(v for v in t if v != hole)), table))
    if not all(domain):
        return
    if n == 0:
        yield ()
        return

    mapping = [0] * n
    untried = [0] * n  # values still to try at each level
    mark = [0] * n  # trail length on entering each level
    used = [0] * n  # values taken by the levels above (injective only)
    trail: list[tuple[int, int]] = []  # (element, domain before narrowing)
    last = n - 1
    level = 0
    untried[0] = domain[0]
    while level >= 0:
        while len(trail) > mark[level]:
            v, old = trail.pop()
            domain[v] = old
        values = untried[level]
        if not values:
            level -= 1
            continue
        bit = values & -values
        untried[level] = values ^ bit
        mapping[level] = bit.bit_length() - 1
        for hole, read, table in checks[level]:
            before = domain[hole]
            after = before & table.get(read(mapping), 0)
            if after != before:
                trail.append((hole, before))
                domain[hole] = after
                if not after:
                    break
        else:
            if level == last:
                yield tuple(mapping)
                continue
            level += 1
            mark[level] = len(trail)
            if injective:
                used[level] = used[level - 1] | bit
            untried[level] = domain[level] & ~used[level]


def _support_table(rel: Relation, holes: tuple[int, ...]) -> dict:
    """Values at the positions outside `holes` -> bitmask of the values c
    such that c at every position in `holes` completes a tuple of `rel`."""
    rest = [i for i in range(rel.arity) if i not in holes]
    read = itemgetter(*rest) if rest else (lambda t: ())
    table: dict = {}
    for t in rel.tuples:
        c = t[holes[0]]
        if all(t[i] == c for i in holes):
            key = read(t)
            table[key] = table.get(key, 0) | (1 << c)
    return table


def find_homs(
    source: RelationalStructure,
    target: RelationalStructure,
    limit: int = 0,
    nonconstant_only: bool = False,
) -> list[tuple[int, ...]]:
    """The mapping tuples of the homomorphisms source -> target, in
    lexicographic order: the first `limit` of them (0: all), and only the
    non-constant ones when `nonconstant_only` is set."""
    if limit < 0:
        raise StructureError(f"limit must be >= 0, got {limit}")
    maps: Iterator[tuple[int, ...]] = hom_maps(source, target)
    if nonconstant_only:
        maps = (m for m in maps if len(set(m)) > 1)
    return list(itertools.islice(maps, limit or None))


def count_homs(source: RelationalStructure, target: RelationalStructure) -> int:
    return sum(1 for _ in hom_maps(source, target))


def find_retraction(
    big: RelationalStructure, small: RelationalStructure
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The mapping tuples of a coretraction/retraction pair (into, onto) with
    onto . into = id, or None.

    Enumerates embeddings of `small` in canonical order; for each, searches
    for a left inverse with the embedding's values pinned.
    """
    for into in hom_maps(small, big, injective=True):
        pins = {img: 1 << x for x, img in enumerate(into)}
        onto = next(hom_maps(big, small, pins), None)
        if onto is not None:
            return into, onto
    return None


class OperationTable:
    """A finitary operation on {0..size-1} stored as a flat value table.

    Values are listed for argument tuples in lexicographic order with the
    first coordinate most significant (row-major).
    """

    __slots__ = ("arity", "size", "values")

    def __init__(self, arity: int, size: int, values: tuple[int, ...]) -> None:
        self.arity, self.size, self.values = arity, size, tuple(values)
        if arity < 0:
            raise StructureError(f"arity must be >= 0, got {arity}")
        if size < 1:
            raise StructureError(f"size must be >= 1, got {size}")
        if len(self.values) != size**arity:
            raise StructureError(f"table needs {size ** arity} values for arity {arity}, got {len(self.values)}")
        for v in self.values:
            if not (0 <= v < size):
                raise StructureError(f"table value {v} out of range for size {size}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.arity, self.size, self.values) == (other.arity, other.size, other.values)

    def __hash__(self) -> int:
        return hash((self.arity, self.size, self.values))

    def apply(self, *args: int) -> int:
        if len(args) != self.arity:
            raise StructureError(f"expected {self.arity} arguments, got {len(args)}")
        idx = 0
        for a in args:
            if not (0 <= a < self.size):
                raise StructureError(f"argument {a} out of range for size {self.size}")
            idx = idx * self.size + a
        return self.values[idx]

    def is_idempotent(self) -> bool:
        return all(self.apply(*([a] * self.arity)) == a for a in range(self.size))


def operation_from_json(data: dict) -> OperationTable:
    if not isinstance(data, dict) or set(data) - {"arity", "size", "values"}:
        raise StructureError("operation document must have keys 'arity', 'size', 'values'")
    arity, size, values = data.get("arity"), data.get("size"), data.get("values")
    if not isinstance(arity, int) or not isinstance(size, int) or not isinstance(values, list):
        raise StructureError("operation fields have wrong types")
    if not all(isinstance(v, int) for v in values):
        raise StructureError("operation values must be integers")
    return OperationTable(arity, size, tuple(values))


def polymorphisms(s: RelationalStructure, arity: int) -> list[OperationTable]:
    """All arity-n polymorphisms of s, as operation tables.

    A polymorphism of arity n is a homomorphism from the n-th power.  Power
    element ids are exactly the lexicographic ranks of argument tuples, so a
    homomorphism's mapping tuple is already a valid row-major value table.
    """
    if arity < 1:
        raise StructureError(f"polymorphism arity must be >= 1, got {arity}")
    return [OperationTable(arity, s.size, m) for m in find_homs(power(s, arity), s)]
