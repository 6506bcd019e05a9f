"""Partial meet-semilattices presented as reflexive functional ternary relations.

A structure with one ternary relation is treated as the graph of a partial
binary meet: a triple (a, b, c) asserts that a meet b is defined and equals
c.  Recognition decides whether some total meet semilattice extends the
partial operation.  Horn closure finds, for each element, the elements
above it in the freest extension; that settles the question in polynomial
time, and an accepted relation is embedded into the subsets of its
universe under union, one bitmask per element.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .structures import (
    DEFAULT_MAX_TUPLES,
    Relation,
    RelationalStructure,
    SignatureMismatch,
    SizeLimitExceeded,
    StructureError,
    coordinate_tuples,
    rank,
    strides,
)
from .homsearch import OperationTable


class DecompositionError(StructureError):
    """decompose_product_hom could not verify the meet decomposition."""


def single_ternary_relation(s: RelationalStructure) -> Relation:
    syms = s.symbols()
    if len(syms) != 1:
        raise StructureError(f"expected a single relation, found {len(syms)}")
    rel = s.relations[syms[0]]
    if rel.arity != 3:
        raise StructureError(f"expected a ternary relation, found arity {rel.arity}")
    return rel


MeetTable = dict[tuple[int, int], int | tuple[int, int]]


def _meet_table(s: RelationalStructure) -> MeetTable:
    """(a, b) -> c for each triple (a, b, c) of the relation.  A pair with
    several c maps to its two least instead, as a tuple: a fold that reaches
    it finds no further meet (no key holds a tuple) and equals no map value,
    and `_meet` names both triples."""
    table: MeetTable = {}
    for a, b, c in single_ternary_relation(s).sorted_tuples():
        known = table.setdefault((a, b), c)
        if type(known) is not tuple and known != c:
            table[a, b] = (known, c)
    return table


def _meet(table: MeetTable, a: int | None, b: int) -> int | None:
    found = table.get((a, b))  # None for a = None: an undefined meet stays undefined
    if type(found) is tuple:
        raise StructureError(
            f"non-functional relation: ({a},{b},{found[0]}) and ({a},{b},{found[1]}) both present"
        )
    return found


def meet_lookup(s: RelationalStructure, a: int, b: int) -> int | None:
    """The unique c with (a, b, c) in the relation; None when absent."""
    for v in (a, b):
        if not (0 <= v < s.size):
            raise StructureError(f"id {v} not in universe of size {s.size}")
    tuples = single_ternary_relation(s).tuples
    found = [c for c in range(s.size) if (a, b, c) in tuples]
    if len(found) > 1:
        raise StructureError(f"non-functional relation: ({a},{b},{found[0]}) and ({a},{b},{found[1]}) both present")
    return found[0] if found else None


def largest_element(s: RelationalStructure) -> int | None:
    """The element 1 with (a,1,a) and (1,a,a) present for every a, if any."""
    tuples = single_ternary_relation(s).tuples
    ids = range(s.size)
    candidates = [
        t
        for t in ids
        if tuples.issuperset(zip(ids, itertools.repeat(t), ids))
        and tuples.issuperset(zip(itertools.repeat(t), ids, ids))
    ]
    if len(candidates) > 1:
        # two largest elements force (t,t',t) and (t,t',t'), so the relation
        # was not functional to begin with
        raise StructureError(f"multiple largest elements {candidates}; relation not functional")
    return candidates[0] if candidates else None


class PartialSemilatticeWitness(NamedTuple):
    """An embedding of the partial meet into (subsets of {0..n-1}, union).

    embedding[x] is a bitmask; embedding[a] | embedding[b] == embedding[c]
    for every triple (a, b, c).  The ambient semilattice has 2**n elements.
    """

    embedding: tuple[int, ...]


class Refusal(NamedTuple):
    reason: str
    detail: tuple | None = None


def _closures(n: int, defined: dict[tuple[int, int], int]) -> list[bytearray]:
    """cl(k) for each k, as a membership array, under {a,b} -> c, c -> a, c -> b.

    Forward chaining: one missing-premise counter per two-premise rule and
    an explicit stack, so each closure costs O(n + number of rules).  A
    rule {a,a} -> c watches a twice, so its counter still runs from 2 to 0.
    """
    heads = list(defined.values())
    watching: list[list[int]] = [[] for _ in range(n)]
    implied: list[list[int]] = [[] for _ in range(n)]
    for r, ((a, b), c) in enumerate(defined.items()):
        watching[a].append(r)
        watching[b].append(r)
        implied[c] += (a, b)

    closures = []
    for k in range(n):
        missing = [2] * len(heads)
        closed = bytearray(n)
        closed[k] = 1
        stack = [k]
        while stack:
            x = stack.pop()
            for y in implied[x]:
                if not closed[y]:
                    closed[y] = 1
                    stack.append(y)
            for r in watching[x]:
                missing[r] -= 1
                if not missing[r] and not closed[heads[r]]:
                    closed[heads[r]] = 1
                    stack.append(heads[r])
        closures.append(closed)
    return closures


def is_partial_semilattice(s: RelationalStructure) -> PartialSemilatticeWitness | Refusal:
    """Decide whether s is a partial semilattice; witness or refusal.

    Requires reflexivity and functionality.  The freest semilattice
    extending the triples is then the lattice of closed sets of the Horn
    rules {a,b} -> c, c -> a and c -> b, one group per triple (a,b,c): the
    closure cl(k) of {k} holds the elements above k.  Two elements merge
    iff each lies in the other's closure, and the first such pair i < j is
    refused.  Otherwise h(x) = {k : x not in cl(k)}, as a bitmask, embeds s
    into (subsets of {0..n-1}, union): c lies in a closed set iff a and b
    both do, so h(c) = h(a) | h(b).  h is injective: h(i) = h(j) exactly
    when each of i and j lies in the other's closure, a merged pair, and
    those were refused.  Forward chaining (Dowling and Gallier, 1984) makes
    the whole decision O(n * (n + m)) for m triples, with no cap on n.
    """
    rel = single_ternary_relation(s)
    n = s.size
    if n == 0:
        raise StructureError("empty universe")

    for a in range(n):
        if (a, a, a) not in rel.tuples:
            return Refusal("not reflexive", (a,))
    defined = _meet_table(s)
    for (a, b), c in defined.items():
        if type(c) is tuple:  # the least non-functional pair, with its two least values
            return Refusal("not functional", (a, b, *c))

    cl = _closures(n, defined)
    for i in range(n):
        for j in range(i + 1, n):
            if cl[i][j] and cl[j][i]:
                return Refusal("congruence merges elements", (i, j))

    return PartialSemilatticeWitness(tuple(sum(1 << k for k in range(n) if not cl[k][x]) for x in range(n)))


class ProductDecomposition(NamedTuple):
    """Either a constant value or the per-factor coordinate maps, as mapping tuples."""

    constant_value: int | None
    coordinate_maps: tuple[tuple[int, ...], ...]

    @property
    def is_constant(self) -> bool:
        return self.constant_value is not None


def _check_product_map(
    factors: list[RelationalStructure] | tuple[RelationalStructure, ...],
    target: RelationalStructure,
    mapping: tuple[int, ...],
    max_tuples: int,
) -> None:
    """Check mapping, on the ranks of product(factors), against every product tuple.

    The product is never built.  Ranks order as their coordinate tuples do,
    so the product tuples are walked in lexicographic order by choosing the
    a-coordinates of all factors, then the b, then the c, each in sorted
    order.  The first tuple whose image is missing is therefore the least,
    and DecompositionError names it as the validating `Homomorphism`
    constructor would.  SizeLimitExceeded is raised when the walk would
    read tuple max_tuples + 1, whatever the size of the whole product.
    """
    sym = target.symbols()[0]
    tgt = target.relations[sym].tuples
    # per factor, a -> b -> [c], each scaled by the factor's stride
    tries = []
    for h, stride in zip(factors, strides([h.size for h in factors])):
        trie: dict = {}
        for a, b, c in sorted(h.relations[sym].tuples):
            trie.setdefault(a * stride, {}).setdefault(b * stride, []).append(c * stride)
        tries.append(trie)
    walked = 0
    for a in itertools.product(*tries):
        fa, bs = mapping[sum(a)], [t[x] for t, x in zip(tries, a)]
        for b in itertools.product(*bs):
            fb, cs = mapping[sum(b)], [t[y] for t, y in zip(bs, b)]
            for c in itertools.product(*cs):
                if walked >= max_tuples:
                    raise SizeLimitExceeded(f"product walk needs > {max_tuples} tuples")
                walked += 1
                fc = mapping[sum(c)]
                if (fa, fb, fc) not in tgt:
                    bad = (sum(a), sum(b), sum(c))
                    raise DecompositionError(f"not a homomorphism: {sym} tuple {bad} maps to {(fa, fb, fc)}")


def decompose_product_hom(
    factors: list[RelationalStructure] | tuple[RelationalStructure, ...],
    target: RelationalStructure,
    mapping: list[int] | tuple[int, ...],
    *,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> ProductDecomposition:
    """Split a hom off a product of partial semilattices with largest elements.

    mapping gives f on the ranks of product(factors) (see `rank`); the
    product itself is never built.  Unusable input raises a plain
    StructureError before any verdict work: an empty factor list, a map of
    the wrong length or range, mismatched signatures (SignatureMismatch) or
    a relation that is not one ternary relation.  Every verdict is a
    DecompositionError.  The tops are each factor's largest element, which
    its relation alone determines, and a factor without one is named before
    any product tuple is walked.  The coordinate maps, returned as mapping
    tuples, are f_i(x) = f(tops with x substituted at i), each one slice of
    mapping; f must equal, at every point x, the left-folded meet g of
    F(x) = (f_1(x_1), ..., f_k(x_k)) in the target.

    That meet identity is checked in bulk: g is folded over the points of
    one factor more at a time, one flat meet table lookup per point of each
    prefix product, and the result is compared with mapping as a whole.  A
    lookup that misses, or meets a pair with two values, spoils the fold
    from there on, so the first point where the two differ is the first
    point where a walk in id order would fail, and the fold there, redone
    one meet at a time, names its error: a non-functional pair, an
    undefined meet or a mismatch.

    f = g∘F is then proved a homomorphism on the coordinate images
    I_i = {(f_i(a), f_i(b), f_i(c)) : (a, b, c) in R_i}: F maps the product
    relation onto the product of the I_i, and g is the left-folded meet, so
    folding the I_i from the left by componentwise meets yields exactly the
    images of the product tuples under f, in at most (k - 1) * |T|^3 *
    max|I_i| table lookups of three meets each for a target T, and f is a
    homomorphism iff they lie in the target relation.  Each meet is a
    prefix fold of some F(x), already taken by the bulk check, so none is
    undefined or non-functional; each I_i is among the images, with the
    other factors at their tops' loops (t, t, t), where g = f_i.  When a
    check fails, the product tuples are walked first, so a map that is no
    homomorphism raises "not a homomorphism" at its least failing tuple, as
    the fold's triples are images of product tuples; a homomorphism gets a
    DecompositionError with the failed check's message.  max_tuples bounds
    only that walk: SizeLimitExceeded is raised when it would read tuple
    max_tuples + 1.
    """
    if not factors:
        raise StructureError("empty factor list")
    mapping = tuple(mapping)
    sizes = [h.size for h in factors]
    if len(mapping) != math.prod(sizes):
        raise StructureError(f"map has {len(mapping)} entries for a product of size {math.prod(sizes)}")
    distinct = set(mapping)
    if not all(map(range(target.size).__contains__, distinct)):  # the loop names the first bad one in map order
        for v in mapping:
            if not (0 <= v < target.size):
                raise StructureError(f"map value {v} not in target universe of size {target.size}")
    signature = target.signature()
    if any(h.signature() != signature for h in factors):
        raise SignatureMismatch("target and factors have different signatures")
    rel = single_ternary_relation(target).tuples  # and so every factor's
    try:
        tops = tuple(map(largest_element, factors))
    except StructureError as exc:  # two largest elements: a factor is not functional
        raise DecompositionError(str(exc)) from exc
    if None in tops:
        raise DecompositionError("a factor has no largest element")

    try:
        if len(distinct) <= 1:
            if (mapping[0],) * 3 not in rel:
                raise DecompositionError("constant value without a loop")
            return ProductDecomposition(mapping[0], ())

        corner = rank(tops, sizes)
        maps = []
        for t, n, stride in zip(tops, sizes, strides(sizes)):
            start = corner - t * stride
            maps.append(mapping[start:start + n * stride:stride])
        table = _meet_table(target)
        folded = maps[0]
        for m in maps[1:]:
            folded = tuple(map(table.get, itertools.product(folded, m)))
        if folded != mapping:
            idx = next(i for i, (g, v) in enumerate(zip(folded, mapping)) if g != v)
            coords = next(itertools.islice(coordinate_tuples(sizes), idx, None))
            expected = functools.reduce(lambda x, y: _meet(table, x, y), [m[c] for m, c in zip(maps, coords)])
            if expected is None:
                raise DecompositionError(f"iterated meet undefined at point {coords}")
            raise DecompositionError(f"meet identity fails at {coords}: meet gives {expected}, f gives {mapping[idx]}")

        sym = target.symbols()[0]
        images = []
        for h, m in zip(factors, maps):
            values = map(m.__getitem__, itertools.chain.from_iterable(h.relations[sym].tuples))
            images.append(set(zip(values, values, values)))
        states = images[0]
        for image in images[1:]:
            # the three componentwise meets of each (state, triple) pair, in a row
            pairs = itertools.chain.from_iterable(itertools.starmap(zip, itertools.product(states, image)))
            meets = map(table.__getitem__, pairs)
            states = set(zip(meets, meets, meets))
        if not states <= rel:
            raise DecompositionError("coordinate images leave the target relation")
    except StructureError as exc:  # a failed check, or a target or factor that is not functional
        _check_product_map(factors, target, mapping, max_tuples)  # names a failing product tuple first
        raise DecompositionError(str(exc)) from exc
    # f is a homomorphism, and each top t has (t, t, t) in its relation, so f
    # restricted to each face through the tops is one too
    return ProductDecomposition(None, tuple(maps))


class MeetClassification(NamedTuple):
    """Constant(value) or Meet(non-empty 1-based coordinate set)."""

    constant_value: int | None = None
    meet_coordinates: frozenset[int] | None = None

    def describe(self) -> str:
        if self.constant_value is not None:
            return f"Constant({self.constant_value})"
        coords = ",".join(str(i) for i in sorted(self.meet_coordinates or ()))
        return f"Meet({{{coords}}})"


def classify_meet_operation(t: OperationTable) -> MeetClassification | None:
    """Classify a 0/1 operation table as constant or a coordinate meet.

    Returns None when the table is neither (such a table cannot preserve
    the two-element semilattice structure).
    """
    if t.size != 2:
        raise StructureError(f"classification defined over base {{0,1}}, got size {t.size}")
    if len(set(t.values)) == 1:
        return MeetClassification(constant_value=t.values[0])
    n, values = t.arity, t.values
    # coordinate i is in the meet iff the table is 0 where only i is 0
    coords = frozenset(i + 1 for i in range(n) if values[(2**n - 1) & ~(1 << (n - 1 - i))] == 0)
    if not coords:
        return None
    mask = sum(1 << (n - i) for i in coords)
    if values != tuple(int(r & mask == mask) for r in range(2**n)):
        return None
    return MeetClassification(meet_coordinates=coords)
