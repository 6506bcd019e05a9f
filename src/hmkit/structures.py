"""Finite relational structures and their combinators.

Universes are dense integer ranges 0..n-1; optional string labels are
metadata only.  Nothing changes a value after construction and every
operation is a pure function, so everything here is safe to share across
threads.  Enumeration order is canonical (sorted) throughout to keep
results reproducible.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

DEFAULT_MAX_TUPLES = 5_000_000


class StructureError(ValueError):
    """A structure or homomorphism invariant is violated."""


class SignatureMismatch(StructureError):
    """Operands do not share the same relation symbols and arities."""


class SizeLimitExceeded(RuntimeError):
    """A construction would exceed the configured tuple bound."""


class Relation:
    __slots__ = ("arity", "tuples")

    def __init__(self, arity: int, tuples: frozenset[tuple[int, ...]]) -> None:
        self.arity, self.tuples = arity, tuples

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.arity, self.tuples) == (other.arity, other.tuples)

    def __hash__(self) -> int:
        return hash((self.arity, self.tuples))

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)


class RelationalStructure:
    """A finite universe {0..size-1} with named finitary relations."""

    __slots__ = ("size", "relations", "labels")

    def __init__(
        self, size: int, relations: Mapping[str, Relation], labels: tuple[str, ...] | None = None
    ) -> None:
        # Normalize to plain immutable containers; invariants are checked by
        # structure_from_json, where structures enter from files.
        self.size = size
        self.relations = {
            sym: rel if isinstance(rel, Relation) else Relation(rel[0], frozenset(map(tuple, rel[1])))
            for sym, rel in dict(relations).items()
        }
        self.labels = tuple(labels) if labels is not None else None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.size, self.relations, self.labels) == (other.size, other.relations, other.labels)

    def __hash__(self) -> int:
        # equal dicts may list their symbols in different orders
        rels = tuple(sorted((sym, rel.arity, rel.tuples) for sym, rel in self.relations.items()))
        return hash((self.size, self.labels, rels))

    def signature(self) -> dict[str, int]:
        return {sym: rel.arity for sym, rel in self.relations.items()}

    def symbols(self) -> list[str]:
        return sorted(self.relations)

    def label(self, i: int) -> str:
        if self.labels is not None and 0 <= i < len(self.labels):
            return self.labels[i]
        return str(i)


def _common_signature(structures: Sequence[RelationalStructure]) -> dict[str, int]:
    sig = structures[0].signature()
    for s in structures[1:]:
        if s.signature() != sig:
            raise SignatureMismatch(f"signature mismatch: {sig} vs {s.signature()}")
    return sig


def is_reflexive(s: RelationalStructure) -> bool:
    """True iff every relation contains every constant tuple of the universe."""
    for rel in s.relations.values():
        for a in range(s.size):
            if (a,) * rel.arity not in rel.tuples:
                return False
    return True


def connected_components(s: RelationalStructure) -> tuple[tuple[int, ...], ...]:
    """Classes of the equivalence closure of all binary-projection edges.

    One linear pass over the tuples joins, by union-find, the coordinates of
    every tuple; that is the closure of the projection edges without
    building the binary projections.  Relations of arity below 2 are
    refused, as they have no binary projection.  The blocks are sorted id
    tuples, ordered by their least element.
    """
    for sym in s.symbols():
        arity = s.relations[sym].arity
        if arity < 2:
            raise StructureError(f"relation {sym} has arity {arity} < 2; binary projection undefined")
    parent = list(range(s.size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for rel in s.relations.values():
        for t in rel.tuples:
            ra = find(t[0])
            for v in t[1:]:
                rb = find(v)
                if rb < ra:
                    ra, rb = rb, ra
                if ra != rb:
                    parent[rb] = ra

    # a scan in id order meets each block first at its least element
    blocks: dict[int, list[int]] = {}
    for v in range(s.size):
        blocks.setdefault(find(v), []).append(v)
    return tuple(map(tuple, blocks.values()))


def rank(coords: Sequence[int], sizes: Sequence[int]) -> int:
    """The id of a product element: the lexicographic rank of its coordinate tuple."""
    r = 0
    for c, n in zip(coords, sizes):
        r = r * n + c
    return r


def coordinate_tuples(sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The coordinate tuple of every product element, in id order: rank's inverse."""
    return itertools.product(*(range(n) for n in sizes))


def product_size(structures: Sequence[RelationalStructure], max_tuples: int = DEFAULT_MAX_TUPLES) -> int:
    """The universe size of product(structures), once its guards pass.

    The factors must be non-empty and share a signature, and neither the
    universe nor the tuples summed over all relations may exceed max_tuples.
    """
    if not structures:
        raise StructureError("product of empty list")
    sig = _common_signature(structures)

    size = 1
    for s in structures:
        size *= s.size
    total = 0
    for sym in sig:
        cnt = 1
        for s in structures:
            cnt *= len(s.relations[sym].tuples)
        total += cnt
    if size > max_tuples or total > max_tuples:
        raise SizeLimitExceeded(f"product needs {max(size, total)} > {max_tuples} tuples")
    return size


def product_tuples(structures: Sequence[RelationalStructure], sym: str) -> Iterator[tuple[int, ...]]:
    """Every tuple of relation sym in product(structures), once each, in no set order.

    Factor k adds c * strides[k] to an id: its stride is the rank of its unit
    coordinate.  Each factor tuple is scaled by its stride once, and position
    i of a product tuple sums position i of one scaled tuple per factor.  The
    sums over all factors but the one with the most tuples are listed, fewest
    tuples first; that factor's tuples are added one product tuple at a time.
    """
    sizes = [s.size for s in structures]
    strides = [rank([int(j == k) for j in range(len(sizes))], sizes) for k in range(len(sizes))]
    scaled = sorted(
        ([tuple(c * stride for c in t) for t in s.relations[sym].tuples] for s, stride in zip(structures, strides)),
        key=len,
    )
    if not scaled[0]:
        return iter(())
    *rest, last = scaled
    partial = [(0,) * len(last[0])]
    for tuples in rest:
        partial = [tuple(map(add, p, q)) for p in partial for q in tuples]
    return (tuple(map(add, p, q)) for p in partial for q in last)


def product(structures: Sequence[RelationalStructure], max_tuples: int = DEFAULT_MAX_TUPLES) -> RelationalStructure:
    """Direct product; element ids are the ranks of coordinate tuples (see `rank`)."""
    size = product_size(structures, max_tuples)
    rels = {
        sym: Relation(arity, frozenset(product_tuples(structures, sym)))
        for sym, arity in structures[0].signature().items()
    }
    labels = None
    if all(s.labels is not None for s in structures):
        labels = tuple(
            "(" + ",".join(s.label(c) for s, c in zip(structures, coords)) + ")"
            for coords in coordinate_tuples([s.size for s in structures])
        )
    return RelationalStructure(size, rels, labels)


def power(s: RelationalStructure, n: int, max_tuples: int = DEFAULT_MAX_TUPLES) -> RelationalStructure:
    """The n-th direct power of s, n >= 1."""
    if n < 1:
        raise StructureError(f"power exponent must be >= 1, got {n}")
    return product([s] * n, max_tuples=max_tuples)


def disjoint_union(structures: Sequence[RelationalStructure]) -> RelationalStructure:
    """Tagged union of universes and relations, in the given order."""
    if not structures:
        raise StructureError("disjoint union of empty list")
    sig = _common_signature(structures)
    offsets = []
    total = 0
    for s in structures:
        offsets.append(total)
        total += s.size
    rels: dict[str, Relation] = {}
    for sym, arity in sig.items():
        out = set()
        for s, off in zip(structures, offsets):
            for t in s.relations[sym].tuples:
                out.add(tuple(v + off for v in t))
        rels[sym] = Relation(arity, frozenset(out))
    labels = None
    if all(s.labels is not None for s in structures):
        labels = tuple(
            f"{k}:{s.label(i)}" for k, s in enumerate(structures) for i in range(s.size)
        )
    return RelationalStructure(total, rels, labels)


def induced_substructure(s: RelationalStructure, ids: Iterable[int]) -> RelationalStructure:
    """Substructure on the given ids (re-indexed in sorted order)."""
    subset = sorted(set(ids))
    for v in subset:
        if not (0 <= v < s.size):
            raise StructureError(f"id {v} not in universe of size {s.size}")
    index = {v: k for k, v in enumerate(subset)}
    rels = {
        sym: Relation(
            rel.arity,
            frozenset(tuple(index[v] for v in t) for t in rel.tuples if all(v in index for v in t)),
        )
        for sym, rel in s.relations.items()
    }
    labels = tuple(s.label(v) for v in subset) if s.labels is not None else None
    return RelationalStructure(len(subset), rels, labels)


class Homomorphism:
    """A total map between structure universes, verified to preserve relations:
    searches return bare mapping tuples, and this checks maps built elsewhere."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: RelationalStructure, target: RelationalStructure, mapping: tuple[int, ...]) -> None:
        self.source, self.target, self.mapping = source, target, tuple(mapping)
        self.__post_init__()

    def __post_init__(self) -> None:
        # a method of its own: perfbench/tracing.py times the check under this name
        from .homsearch import is_homomorphism  # homsearch imports this module

        result = is_homomorphism(self.source, self.target, self.mapping)
        if not result.ok:
            raise StructureError(f"not a homomorphism: {result.symbol} tuple {result.source_tuple} maps to {result.image_tuple}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.mapping) == (other.source, other.target, other.mapping)

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.mapping))


def _incidence_profiles(s: RelationalStructure) -> list[tuple[int, ...]]:
    """Per element, for every symbol (sorted) and position, the number of
    tuples holding the element at that position; counted at C level."""
    counts = [
        list(map(Counter(map(itemgetter(i), s.relations[sym].tuples)).__getitem__, range(s.size)))
        for sym in s.symbols()
        for i in range(s.relations[sym].arity)
    ]
    return list(zip(*counts)) if counts else [()] * s.size


def _describe_profile(s: RelationalStructure, profile: tuple[int, ...]) -> str:
    parts, start = [], 0
    for sym in s.symbols():
        arity = s.relations[sym].arity
        parts.append(f"{sym}[{', '.join(map(str, profile[start:start + arity]))}]")
        start += arity
    return " ".join(parts)


def _compare_invariants(a: RelationalStructure, b: RelationalStructure) -> str | list[int]:
    """The first invariant of a and b that differs, named in a sentence:
    signature, size, tuple count of a relation, incidence-profile multiset.
    When all agree, each element of a's initial domain for the isomorphism
    search: the bitmask of the elements of b with its incidence profile."""
    if a.signature() != b.signature():
        return f"signatures differ: {a.signature()} vs {b.signature()}"
    if a.size != b.size:
        return f"sizes differ: {a.size} vs {b.size}"
    for sym in a.symbols():
        na, nb = len(a.relations[sym].tuples), len(b.relations[sym].tuples)
        if na != nb:
            return f"relation {sym} has {na} tuples in the first structure and {nb} in the second"
    pa, pb = _incidence_profiles(a), _incidence_profiles(b)
    if sorted(pa) != sorted(pb):
        ca, cb = Counter(pa), Counter(pb)
        profile = min(p for p in ca.keys() | cb.keys() if ca[p] != cb[p])
        return (
            f"elements with incidence profile {_describe_profile(a, profile)}:"
            f" {ca[profile]} in the first structure, {cb[profile]} in the second"
        )
    allowed: dict[tuple[int, ...], int] = {}
    for w, p in enumerate(pb):
        allowed[p] = allowed.get(p, 0) | 1 << w
    return list(map(allowed.__getitem__, pa))


def find_isomorphism(a: RelationalStructure, b: RelationalStructure) -> tuple[int, ...] | None:
    """The mapping tuple of a bijection that is a homomorphism both ways, or
    None: the first in lexicographic map order.

    The search looks for an injective homomorphism.  With equal sizes and
    equal tuple counts per relation, one maps each relation of `a` onto that
    of `b`, so its inverse is a homomorphism too.  An isomorphism carries
    each element to one with the same incidence profile (tuples with it at
    each position of each relation), so each element of `a` starts with the
    elements of `b` of its own profile as its domain (vertex-invariant
    pruning, McKay 1981).  The search still visits maps in lexicographic
    order, and the pruning removes only branches holding no isomorphism, so
    the first isomorphism it reaches is the first one overall.
    """
    from .homsearch import hom_maps  # homsearch imports this module

    domains = _compare_invariants(a, b)
    if isinstance(domains, str):
        return None
    return next(hom_maps(a, b, dict(enumerate(domains)), injective=True), None)


def non_isomorphism_evidence(a: RelationalStructure, b: RelationalStructure) -> str:
    """Why `find_isomorphism(a, b)` is None: the first invariant that
    differs or, when all agree, that the exhaustive search found no bijection."""
    found = _compare_invariants(a, b)
    if isinstance(found, str):
        return found
    return "all invariants agree; the exhaustive search found no bijection preserving every relation"


# --- standard small structures ---------------------------------------------


def two_element_semilattice(symbol: str = "R") -> RelationalStructure:
    """The graph of the meet on {0,1}: {(0,0,0),(0,1,0),(1,0,0),(1,1,1)}."""
    rel = Relation(3, frozenset({(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)}))
    return RelationalStructure(2, {symbol: rel}, ("0", "1"))


# --- JSON file format -------------------------------------------------------


def structure_to_json(s: RelationalStructure) -> dict:
    return {
        "universe": [s.label(i) for i in range(s.size)],
        "relations": {
            sym: {"arity": rel.arity, "tuples": [list(t) for t in rel.sorted_tuples()]}
            for sym, rel in sorted(s.relations.items())
        },
    }


def _checked_in_bulk(tuples: list, arity: int, size: int) -> frozenset[tuple[int, ...]] | None:
    """The tuples as a set when C-level passes find each a list of `arity`
    values of exact type int in range(size), none repeated; else None."""
    if not ({list}.issuperset(map(type, tuples)) and {arity}.issuperset(map(len, tuples))):
        return None
    values = list(itertools.chain.from_iterable(tuples))
    if not {int}.issuperset(map(type, values)) or (values and (min(values) < 0 or max(values) >= size)):
        return None
    checked = frozenset(map(tuple, tuples))
    return checked if len(checked) == len(tuples) else None


def structure_from_json(data: dict) -> RelationalStructure:
    """Parse the structure file format; rejects unknown keys and malformed entries.

    Each relation's tuples are checked in bulk first; only a relation that
    fails a bulk check is walked tuple by tuple, to name its first bad tuple.
    """
    if not isinstance(data, dict):
        raise StructureError("structure document must be a JSON object")
    unknown = set(data) - {"universe", "relations"}
    if unknown:
        raise StructureError(f"unknown top-level keys: {sorted(unknown)}")
    universe = data.get("universe")
    if not isinstance(universe, list) or not all(isinstance(x, str) for x in universe):
        raise StructureError("'universe' must be a list of strings")
    relations = data.get("relations", {})
    if not isinstance(relations, dict):
        raise StructureError("'relations' must be an object")
    size = len(universe)
    rels: dict[str, Relation] = {}
    for sym, body in relations.items():
        if not isinstance(body, dict) or set(body) - {"arity", "tuples"}:
            raise StructureError(f"relation {sym}: expected keys 'arity' and 'tuples'")
        arity = body.get("arity")
        tuples = body.get("tuples")
        if not isinstance(arity, int) or arity < 1:
            raise StructureError(f"relation {sym}: arity must be a positive integer")
        if not isinstance(tuples, list):
            raise StructureError(f"relation {sym}: 'tuples' must be a list")
        checked = _checked_in_bulk(tuples, arity, size)
        if checked is not None:
            rels[sym] = Relation(arity, checked)
            continue
        seen: set[tuple[int, ...]] = set()
        for raw in tuples:
            if not isinstance(raw, list) or not all(isinstance(v, int) for v in raw):
                raise StructureError(f"relation {sym}: tuple {raw} must be a list of integers")
            t = tuple(raw)
            if len(t) != arity:
                raise StructureError(f"relation {sym}: arity mismatch, tuple {list(t)} has length {len(t)} != {arity}")
            for v in t:
                if not (0 <= v < size):
                    raise StructureError(f"relation {sym}: id out of range, tuple {list(t)} contains {v}")
            if t in seen:
                raise StructureError(f"relation {sym}: duplicate tuple {list(t)}")
            seen.add(t)
        rels[sym] = Relation(arity, frozenset(seen))
    return RelationalStructure(size, rels, tuple(universe))


def load_structure(path: str) -> RelationalStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return structure_from_json(json.load(fh))
