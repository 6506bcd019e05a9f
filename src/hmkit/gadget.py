"""The hom-set gadget: a ternary structure built on Hom(S, D).

Applying the transform to a disjoint union of semilattice powers yields
another disjoint union of semilattice powers.  The analysis verifies the
input's shape, checking each connected component in the input's own ids
against S^k through its coatoms, and reads the output's shape off it, with
no transform built: the component of the transform at an element a is the
principal filter of a, S^(k - popcount a) in S^k, as
`analyze_gadget_components` proves.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .homsearch import hom_maps
from .semilat import single_ternary_relation
from .structures import (
    Relation,
    RelationalStructure,
    StructureError,
    connected_components,
    two_element_semilattice,
)


def y_structure(symbol: str = "R") -> RelationalStructure:
    """The 4-element meet semilattice shaped like a Y, as a ternary structure.

    Element 0 is the bottom, 3 is the meet of the two maximal elements 1
    and 2.  The relation is the full graph of the meet operation.
    """
    order = {0: {0}, 1: {0, 3, 1}, 2: {0, 3, 2}, 3: {0, 3}}

    def meet(a: int, b: int) -> int:
        common = order[a] & order[b]
        ranked = sorted(common, key=lambda v: len(order[v]))
        return ranked[-1]

    triples = frozenset((a, b, meet(a, b)) for a in range(4) for b in range(4))
    return RelationalStructure(4, {symbol: Relation(3, triples)}, ("d", "a", "b", "c"))


def gadget_transform(d: RelationalStructure) -> RelationalStructure:
    """Structure on Hom(S, d): triples whose legs assemble into a map from Y.

    Universe elements are the homomorphisms from the two-element
    semilattice into d, in lexicographic order; (f, g, h) is related when
    f, g, h share a value at 0 and the combined map d->f(0), a->f(1),
    b->g(1), c->h(1) preserves the Y relation into d.  Y restricted to
    {d, x} is S for each x in {a, b, c}, so the related triples are read
    off the homomorphisms from Y in one search.
    """
    single_ternary_relation(d)
    symbol = d.symbols()[0]
    S = two_element_semilattice(symbol)
    Y = y_structure(symbol)

    legs = list(hom_maps(S, d))
    index = {leg: i for i, leg in enumerate(legs)}
    labels = tuple(f"({d.label(x)},{d.label(y)})" for x, y in legs)
    triples = frozenset(
        (index[z, a], index[z, b], index[z, c]) for z, a, b, c in hom_maps(Y, d)
    )
    return RelationalStructure(len(legs), {symbol: Relation(3, triples)}, labels)


def match_components_to_powers(d: RelationalStructure) -> list[int]:
    """The k with each connected component isomorphic to S^k, in component order.

    Exponent 0 stands for the one-element structure.  Raises, naming the
    first component that matches nothing, so a successful return is a proof
    that d is a disjoint union of semilattice powers.  Each component is
    checked in d's own ids, in time linear in the relation, with no copy of
    it and no power of S built.

    In S^k, whose ids are the ranks of bit tuples, x <= m exactly when
    (x, m, x) is a tuple, and bit j of x is 0 exactly when x lies below the
    j-th coatom, the element with only bit j clear.  So a component B of
    n = 2^k elements needs k coatoms m (the elements with exactly two upper
    bounds), and phi(x) sets bit j when x is not below the j-th of them.
    If phi is injective on B and phi(c) = phi(a) & phi(b) for every tuple
    (a, b, c) of B, phi is an injective homomorphism onto S^k, so B has at
    most n^2 tuples, and with exactly n^2 it maps B's relation onto S^k's:
    phi is an isomorphism, and no associativity check is needed.
    Conversely an isomorphism carries the coatoms of S^k to those of B, so
    it is phi for some order of the coatoms, and the check passes whenever
    one exists.  Once every component passes the first two checks, the
    count |R| = sum of n^2 gives each its n^2 tuples, so tuples are counted
    per component only to name a failure.
    """
    single_ternary_relation(d)
    triples = d.relations[d.symbols()[0]].tuples
    blocks = connected_components(d)
    # (x, y, x) says x <= y and joins x and y, so x's upper bounds lie in its block
    ups = Counter(x for x, _, z in triples if x == z)
    phi = [0] * d.size
    block_of = {x: i for i, block in enumerate(blocks) for x in block}
    failed = set()
    for i, block in enumerate(blocks):
        coatoms = [m for m in block if ups[m] == 2]
        if len(block) != 1 << len(coatoms):
            failed.add(i)
            continue
        for x in block:
            phi[x] = sum(1 << j for j, m in enumerate(coatoms) if (x, m, x) not in triples)
        if len(set(map(phi.__getitem__, block))) != len(block):
            failed.add(i)
    failed.update(block_of[a] for a, b, c in triples if phi[c] != phi[a] & phi[b])
    if failed or len(triples) != sum(len(block) ** 2 for block in blocks):
        counts = Counter(block_of[a] for a, _, _ in triples)
        failed.update(i for i, block in enumerate(blocks) if counts[i] != len(block) ** 2)
        raise StructureError(f"component {blocks[min(failed)]} is not a power of the semilattice")
    return [len(block).bit_length() - 1 for block in blocks]


class GadgetAnalysis(NamedTuple):
    input_exponents: tuple[int, ...]
    output_exponents: tuple[int, ...]

    def multiplicities(self) -> dict[int, int]:
        return dict(sorted(Counter(self.output_exponents).items()))


def analyze_gadget_components(d: RelationalStructure) -> GadgetAnalysis:
    """Verify d is a union of semilattice powers; read its transform's shape off d.

    The transform's component at a is S^j, 2^j = |up a| being the number of
    m with (a, m, a) in d, in the id order of a: the output exponents are
    read off d, with no hom search, no transform and no power of S built.

    Proof.  The input match proves every component of d is the meet graph
    {(x, y, x & y)} of some S^k.  A map from S, 0 -> a and 1 -> b, sends
    (0, 1, 0) to (a, b, a), so it is a homomorphism exactly when a <= b.  A
    map from Y sending 0, 1, 2, 3 to a, b, c, e preserves a meet graph
    exactly when it preserves every meet: a <= b, c, e and e = b & c, since
    b & e = e and c & e = e then follow.  So the legs (a, .) correspond to
    the filter up a, their triples form the meet graph of up a, and no
    triple joins legs with different values at 0.  The legs (a, .) are one
    component, as each (a, b) lies in the triple ((a, a), (a, b), (a, a)).
    In S^k, up x is S^(k - popcount x), by restriction to the bits clear in
    x, so its size 2^j gives j.  The transform lists legs lexicographically
    and orders components by their least leg, so the run of legs (a, .)
    is the a-th component.
    """
    before = match_components_to_powers(d)
    ups = Counter(x for x, _, z in d.relations[d.symbols()[0]].tuples if x == z)
    return GadgetAnalysis(tuple(before), tuple(ups[a].bit_length() - 1 for a in range(d.size)))
