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
    find_isomorphism,
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


def match_components_to_powers(d: RelationalStructure) -> list[ComponentMatch]:
    """Match every connected component against a power of the semilattice.

    Exponent 0 stands for the one-element structure.  Raises when some
    component matches nothing, so a successful return is a proof that d is
    a disjoint union of semilattice powers.
    """
    single_ternary_relation(d)
    symbol = d.symbols()[0]
    S = two_element_semilattice(symbol)
    # many components share an exponent; each power is built once
    power_of = functools.cache(lambda k: power(S, k))
    out = []
    decomposition = connected_components(d)
    for block, comp in zip(decomposition.partition, decomposition.induced):
        matched = None
        if comp.size == 1:
            iso = find_isomorphism(comp, one_element_structure(symbol))
            if iso is not None:
                matched = ComponentMatch(comp, 0, iso)
        else:
            k = comp.size.bit_length() - 1
            if (1 << k) == comp.size:
                iso = find_isomorphism(comp, power_of(k))
                if iso is not None:
                    matched = ComponentMatch(comp, k, iso)
        if matched is None:
            raise StructureError(f"component {block} is not a power of the semilattice")
        out.append(matched)
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


def diagonal_structure(n: int, symbol: str = "R") -> RelationalStructure:
    """The n-th power of the semilattice, the transform's fixed-point family."""
    if n < 1:
        raise StructureError(f"exponent must be >= 1, got {n}")
    return power(two_element_semilattice(symbol), n)
