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
enforced once per symmetric pair and found maps need no second check:
every search returns them as bare mapping tuples, and
`structures.Homomorphism` is left to validate maps built elsewhere.  A
source tuple t is skipped when a transposition pi of positions i < j maps
the target relation onto itself, t[i] > t[j] and t.pi is a source tuple
too: h(t) lies in the target relation exactly when h(t.pi) does, and t.pi
has the same elements, so the smaller tuple t.pi fires at the same level
and narrows the same hole to the same values (Gent, Petrie & Puget,
"Symmetry in Constraint Programming", 2006).  The search runs on an
explicit stack, so no input size is bounded by the recursion limit.  A
node narrows a copy of the domain list its level was entered with, or the
list itself on the level's last value, so backtracking restores nothing.

The plan (`_plan`) is built in bulk before the first node.  The symmetric
filter is one set operation per symmetric pair.  A support table is built
by C-level filter and read passes over the target relation, with one
OR-accumulate loop.  Each kept tuple's hole, the positions holding it and
its other values come from C-level passes over the tuples and their
columns.  The tuples of a relation that read the same values at the same
off-hole positions share a check: a node reads its support table once,
narrows each of its holes, and skips it when the read allows every value
(as Compact-Table shares reads, Demeulenaere et al., CP 2016).  Checks
and their holes come in sorted-tuple order.
"""

from __future__ import annotations

import itertools
from operator import eq, gt, itemgetter, ne, not_
from typing import Iterator, Mapping, NamedTuple, Sequence

from .structures import (
    Record,
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

    Each source tuple is enforced once per symmetric pair: of the source
    tuples that a transposition of target-symmetric positions exchanges,
    only the least gets a check, since R_T.pi = R_T makes h(t) in R_T
    equivalent to h(t.pi) in R_T, and the two share their hole.
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

    checks = _plan(source, target, domain)
    if checks is None or not all(domain):
        return
    if n == 0:
        yield ()
        return

    mapping = [0] * n
    untried = [0] * n  # values still to try at each level
    entry = [domain] * n  # the domains each level was entered with
    used = [0] * n  # values taken by the levels above (injective only)
    last = n - 1
    level = 0
    untried[0] = domain[0]
    while level >= 0:
        values = untried[level]
        if not values:
            level -= 1
            continue
        bit = values & -values
        untried[level] = values = values ^ bit
        mapping[level] = bit.bit_length() - 1
        if level == last:
            yield tuple(mapping)
            continue
        # the level's last value may narrow its list in place
        domain = entry[level][:] if values else entry[level]
        for read, table, holes in checks[level]:
            allowed = table.get(read(mapping), 0)
            if allowed != full:
                for hole in holes:
                    domain[hole] &= allowed
                    if not domain[hole]:
                        break
                else:
                    continue
                break
        else:
            level += 1
            entry[level] = domain
            if injective:
                used[level] = used[level - 1] | bit
            untried[level] = domain[level] & ~used[level]


def _plan(source: RelationalStructure, target: RelationalStructure, domain: list[int]) -> list[list[tuple]] | None:
    """checks[v]: (read, support table, holes) per relation, off-hole positions
    and values read of the kept tuples whose second highest element is v, in
    sorted-tuple order; a constant tuple narrows `domain[hole]` in place.
    None when the target lacks a source tuple (), so there are no maps."""
    checks: list[list[tuple]] = [[] for _ in range(source.size)]
    for sym in source.symbols():
        rel, tgt = source.relations[sym], target.relations[sym]
        if () in rel.tuples and () not in tgt.tuples:
            return None
        # drop () (it maps to ()) and each t with t[i] > t[j] whose swap is a source
        # tuple too: that smaller tuple, equal up to a target symmetry, enforces t
        dropped: set[tuple[int, ...]] = {()}
        for i, j in _symmetric_pairs(tgt):
            at_i, at_j = map(itemgetter(i), rel.tuples), map(itemgetter(j), rel.tuples)
            above = list(itertools.compress(rel.tuples, map(gt, at_i, at_j)))
            dropped.update(itertools.compress(above, map(rel.tuples.__contains__, map(_swap(rel.arity, i, j), above))))
        ts = sorted(rel.tuples - dropped)
        holes = list(map(max, ts))
        # per tuple, which positions hold a value other than its hole
        off_hole = list(zip(*[map(ne, column, holes) for column in zip(*ts)]))
        tables = {p: _support_table(tgt, tuple(itertools.compress(range(rel.arity), map(not_, p)))) for p in set(off_hole)}
        groups: dict[tuple, list[int]] = {}
        for hole, p, values in zip(holes, off_hole, map(tuple, map(itertools.compress, ts, off_hole))):
            if values:
                groups.setdefault((p, values), []).append(hole)
            else:
                domain[hole] &= tables[p].get((), 0)
        for (p, values), group in groups.items():
            checks[max(values)].append((itemgetter(*values), tables[p], tuple(group)))
    return checks


def _symmetric_pairs(rel: Relation) -> list[tuple[int, int]]:
    """The position pairs (i, j), i < j, whose transposition maps `rel` onto
    itself (every pair when `rel` is empty)."""
    return [
        (i, j)
        for i, j in itertools.combinations(range(rel.arity), 2)
        if all(map(rel.tuples.__contains__, map(_swap(rel.arity, i, j), rel.tuples)))
    ]


def _swap(arity: int, i: int, j: int) -> itemgetter:
    """Read a tuple with positions i and j exchanged."""
    order = list(range(arity))
    order[i], order[j] = j, i
    return itemgetter(*order)


def _support_table(rel: Relation, holes: tuple[int, ...]) -> dict:
    """Values at the positions outside `holes` -> bitmask of the values c
    such that c at every position in `holes` completes a tuple of `rel`."""
    tuples = list(rel.tuples)
    first = itemgetter(holes[0])
    for i in holes[1:]:
        tuples = list(itertools.compress(tuples, map(eq, map(first, tuples), map(itemgetter(i), tuples))))
    rest = [i for i in range(rel.arity) if i not in holes]
    keys = map(itemgetter(*rest), tuples) if rest else itertools.repeat((), len(tuples))
    table: dict = {}
    for key, c in zip(keys, map(first, tuples)):
        table[key] = table.get(key, 0) | 1 << c
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


class OperationTable(Record):
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
    for field, kind in (("arity", int), ("size", int), ("values", list)):
        if type(data.get(field)) is not kind:  # exact int: a JSON boolean is no integer
            raise StructureError(f"operation field '{field}' must be {'a list' if kind is list else 'an integer'}")
    if not {int}.issuperset(map(type, data["values"])):
        raise StructureError("operation values must be integers")
    return OperationTable(data["arity"], data["size"], tuple(data["values"]))


def polymorphisms(s: RelationalStructure, arity: int) -> list[OperationTable]:
    """All arity-n polymorphisms of s, as operation tables.

    A polymorphism of arity n is a homomorphism from the n-th power.  Power
    element ids are exactly the lexicographic ranks of argument tuples, so a
    homomorphism's mapping tuple is already a valid row-major value table.
    """
    if arity < 1:
        raise StructureError(f"polymorphism arity must be >= 1, got {arity}")
    return [OperationTable(arity, s.size, m) for m in find_homs(power(s, arity), s)]
