"""The hom-set gadget: a ternary structure built on Hom(S, D).

Applying the transform to a disjoint union of semilattice powers yields
another disjoint union of semilattice powers; the analysis helpers verify
that shape and report the exponents with multiplicities.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .homsearch import hom_maps
from .semilat import single_ternary_relation
from .structures import (
    Homomorphism,
    Relation,
    RelationalStructure,
    StructureError,
    connected_components,
    one_element_structure,
    power,
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


@dataclass(frozen=True)
class ComponentMatch:
    component: RelationalStructure
    exponent: int  # k with component isomorphic to the k-th power; 0 = point
    iso: Homomorphism


def _power_iso(comp: RelationalStructure) -> tuple[int, ...] | None:
    """The lexicographically first isomorphism from comp onto S^k, or None.

    The criterion, and why it is exact, is in `match_components_to_powers`.
    """
    n = comp.size
    k = n.bit_length() - 1
    triples = comp.relations[comp.symbols()[0]].tuples
    if n != 1 << k or len(triples) != n * n:
        return None
    # (x, y, x) says x <= y; a coatom has two upper bounds, itself and the top
    ups = Counter(x for x, _, z in triples if x == z)
    coatoms = [m for m in range(n) if ups[m] == 2]
    if len(coatoms) != k:
        return None
    columns = sorted(tuple(int((x, m, x) not in triples) for x in range(n)) for m in coatoms)
    mapping = [0] * n
    for column in columns:  # the first column ends up most significant
        mapping = [2 * v + bit for v, bit in zip(mapping, column)]
    if len(set(mapping)) != n or any(mapping[c] != mapping[a] & mapping[b] for a, b, c in triples):
        return None
    return tuple(mapping)


def match_components_to_powers(d: RelationalStructure) -> list[ComponentMatch]:
    """Match every connected component against a power of the semilattice.

    Exponent 0 stands for the one-element structure.  Raises when some
    component matches nothing, so a successful return is a proof that d is
    a disjoint union of semilattice powers.

    Each component is read off its relation in time linear in it; there is
    no isomorphism search.  In S^k, whose ids are the ranks of bit tuples,
    x <= m exactly when (x, m, x) is a tuple, and bit j of x is 0 exactly
    when x lies below the coatom with only bit j clear.  So for a component
    with n = 2^k elements and n^2 tuples, each of its k coatoms m (the
    elements with exactly two upper bounds) gives a column, bit x set when
    x is not below m, and phi(x) reads the bits of x across the columns.

    The check is exact.  If phi is injective and phi(c) = phi(a) & phi(b)
    for every tuple (a, b, c), phi is an injective homomorphism onto S^k;
    with n^2 tuples on both sides it maps the relation onto S^k's, so it is
    an isomorphism, and no associativity check is needed.  Conversely an
    isomorphism carries the coatoms of S^k to those of the component, so
    every isomorphism is phi for some order of the columns, and the check
    passes whenever one exists.

    Sorting the columns ascending (compared from element 0), the first most
    significant, gives the lexicographically first isomorphism, the one
    `find_isomorphism` returns.  If another order gave a smaller map, let x
    be the first element and j the first position where the two differ;
    the orders agree on elements 0..x at every position before j.  The
    other order's j-th column agrees with the sorted one's before x and has
    a 0 at x where the sorted one has a 1.  Every column with its prefix
    over 0..x is smaller than the sorted j-th column, so sorting placed all
    of them before j; the other order placed as many there, hence all of
    them, its own j-th column included, which is a contradiction.
    """
    single_ternary_relation(d)
    symbol = d.symbols()[0]
    S = two_element_semilattice(symbol)
    # many components share an exponent; each power is built once
    power_of = functools.cache(lambda k: power(S, k))
    out = []
    decomposition = connected_components(d)
    for block, comp in zip(decomposition.partition, decomposition.induced):
        mapping = _power_iso(comp)
        if mapping is None:
            raise StructureError(f"component {block} is not a power of the semilattice")
        k = comp.size.bit_length() - 1
        target = power_of(k) if k else one_element_structure(symbol)
        out.append(ComponentMatch(comp, k, Homomorphism._trusted(comp, target, mapping)))
    return out


@dataclass(frozen=True)
class GadgetAnalysis:
    input_exponents: tuple[int, ...]
    output_exponents: tuple[int, ...]

    def multiplicities(self) -> dict[int, int]:
        return dict(sorted(Counter(self.output_exponents).items()))


def analyze_gadget_components(d: RelationalStructure) -> GadgetAnalysis:
    """Verify the transform of a union of semilattice powers is again one."""
    before = match_components_to_powers(d)
    after = match_components_to_powers(gadget_transform(d))
    return GadgetAnalysis(
        tuple(m.exponent for m in before), tuple(m.exponent for m in after)
    )
