import itertools
import random
from collections import Counter
from math import comb

import pytest

from hmkit.gadget import (
    analyze_gadget_components,
    gadget_transform,
    match_components_to_powers,
    y_structure,
)
from hmkit.homsearch import find_homs, is_homomorphism
from hmkit.semilat import is_partial_semilattice, largest_element, meet_lookup
from hmkit.structures import (
    Relation,
    RelationalStructure,
    StructureError,
    connected_components,
    disjoint_union,
    find_isomorphism,
    induced_substructure,
    power,
    two_element_semilattice,
)

from conftest import one_element_structure, random_structure, relabel, verify_witness


def test_y_structure_shape():
    y = y_structure()
    assert y.size == 4
    assert y.labels == ("d", "a", "b", "c")
    assert len(y.relations["R"].tuples) == 16
    assert meet_lookup(y, 1, 2) == 3
    assert meet_lookup(y, 1, 3) == 3
    assert all(meet_lookup(y, 0, v) == 0 for v in range(4))
    w = is_partial_semilattice(y)
    verify_witness(y, w)
    assert len(set(w.embedding)) == 4
    assert largest_element(y) is None  # two maximal elements


def test_gadget_transform_of_semilattice(S, point):
    e0 = gadget_transform(S)
    assert e0.size == 3
    assert e0.labels == ("(0,0)", "(0,1)", "(1,1)")
    assert e0.relations["R"].sorted_tuples() == [
        (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1), (2, 2, 2),
    ]
    assert e0.relations == {"R": Relation(3, frozenset({(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1), (2, 2, 2)}))}
    assert find_isomorphism(e0, disjoint_union([S, point])) is not None


def gadget_transform_reference(d):
    """The transform by its definition: each of the |Hom(S, d)|^3 triples
    sharing a value at 0 is checked as a map from Y."""
    symbol = d.symbols()[0]
    S = two_element_semilattice(symbol)
    Y = y_structure(symbol)
    homs = find_homs(S, d)
    labels = tuple(f"({d.label(h[0])},{d.label(h[1])})" for h in homs)
    triples = set()
    for (i, f), (j, g), (k, h) in itertools.product(enumerate(homs), repeat=3):
        if not (f[0] == g[0] == h[0]):
            continue
        combined = (f[0], f[1], g[1], h[1])
        if is_homomorphism(Y, d, combined).ok:
            triples.add((i, j, k))
    return RelationalStructure(len(homs), {symbol: Relation(3, frozenset(triples))}, labels)


def test_gadget_transform_matches_reference(S, point):
    inputs = [power(S, n) for n in range(1, 5)]
    inputs += [
        disjoint_union([S, point]),
        disjoint_union([power(S, 2), S]),
        disjoint_union([power(S, 2), power(S, 2)]),
    ]
    rng = random.Random(44)
    for _ in range(20):
        d = random_structure(rng, rng.randint(2, 5), {"R": 3}, rng.choice((0.3, 0.5, 0.7)))
        loops = frozenset((a, a, a) for a in range(d.size))
        inputs.append(RelationalStructure(d.size, {"R": Relation(3, d.relations["R"].tuples | loops)}))
    for d in inputs:
        got, want = gadget_transform(d), gadget_transform_reference(d)
        assert (got.size, got.labels, got.relations) == (want.size, want.labels, want.relations)


def test_gadget_transform_universe_is_hom_set(S):
    d = power(S, 2)
    out = gadget_transform(d)
    assert out.size == len(find_homs(S, d))


def test_gadget_transform_requires_single_ternary_relation(S):
    two = RelationalStructure(
        2, {"R": S.relations["R"], "E": Relation(2, {(0, 1)})}
    )
    with pytest.raises(StructureError, match="single relation"):
        gadget_transform(two)


def test_match_components_to_powers(S, point):
    assert match_components_to_powers(disjoint_union([S, point])) == [1, 0]

    with pytest.raises(StructureError, match="not a power"):
        match_components_to_powers(y_structure())


def test_match_rejects_wrong_size_component():
    # connected, 3 elements: can't be 2^k
    chain = RelationalStructure(
        3, {"R": Relation(3, {(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 0), (1, 2, 1)})}
    )
    with pytest.raises(StructureError, match="not a power"):
        match_components_to_powers(chain)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_analysis_multiplicities_are_binomial(S, n):
    analysis = analyze_gadget_components(power(S, n))
    assert analysis.input_exponents == (n,)
    assert analysis.multiplicities() == {k: comb(n, k) for k in range(n + 1)}


def test_analysis_respects_disjoint_unions(S):
    d = disjoint_union([power(S, 2), power(S, 2)])
    analysis = analyze_gadget_components(d)
    assert analysis.input_exponents == (2, 2)
    assert analysis.multiplicities() == {0: 2, 1: 4, 2: 2}


def test_analysis_of_point(point):
    analysis = analyze_gadget_components(point)
    assert analysis.input_exponents == (0,)
    # a single hom from S lands on the point; the transform is again a point
    assert analysis.output_exponents == (0,)


def test_one_element_structure_matches_exponent_zero(point, S):
    # the point fixture is S induced on its top, labels aside, that is S^0
    top = induced_substructure(S, [1])
    assert (point.size, point.relations) == (top.size, top.relations)
    assert analyze_gadget_components(point).input_exponents == (0,)


def power_or_point(S, k):
    return one_element_structure() if k == 0 else power(S, k)


def unions_of_powers(S, seed, count):
    """Seeded unions of S^0..S^3, relabelled so that their components' ids interleave."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        parts = [power_or_point(S, rng.randint(0, 3)) for _ in range(rng.randint(2, 4))]
        union = disjoint_union(parts)
        out.append(relabel(union, rng.sample(range(union.size), union.size)))
    return out


def test_match_builds_no_power(S, point, monkeypatch):
    import hmkit.gadget as gadget
    import hmkit.structures as structures

    inputs = [gadget_transform(power(S, 5)), disjoint_union([power(S, 2), power(S, 2), power(S, 3), point])]

    def refuse(*args, **kwargs):
        raise AssertionError("the match built a power of S")

    monkeypatch.setattr(structures, "power", refuse)
    monkeypatch.setattr(gadget, "power", refuse, raising=False)
    exponents = match_components_to_powers(inputs[0])
    assert len(exponents) == 32 and sorted(exponents) == sorted(5 - bin(x).count("1") for x in range(32))
    assert match_components_to_powers(inputs[1]) == [2, 2, 3, 0]


def test_match_equals_find_isomorphism(S, point):
    rng = random.Random(14)
    inputs = [point] + [power(S, k) for k in range(1, 7)]
    for _ in range(12):
        k = rng.randint(1, 5)
        inputs.append(relabel(power(S, k), rng.sample(range(1 << k), 1 << k)))
    for _ in range(6):
        parts = [power_or_point(S, rng.randint(0, 3)) for _ in range(rng.randint(2, 4))]
        union = disjoint_union(parts)
        inputs.append(relabel(union, rng.sample(range(union.size), union.size)))
    inputs += [gadget_transform(d) for d in inputs]
    checked = 0
    for d in inputs:
        blocks = connected_components(d)
        exponents = [len(block).bit_length() - 1 for block in blocks]
        assert match_components_to_powers(d) == exponents
        for block, k in zip(blocks, exponents):
            assert find_isomorphism(induced_substructure(d, block), power_or_point(S, k)) is not None
            checked += 1
    assert checked == 344


def corrupted_unions(S, seed, count):
    """Seeded unions of S^0..S^4, each with 0-2 tuples removed, added or
    given another value inside one part, relabelled at random."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        parts = [power_or_point(S, rng.randint(0, 4)) for _ in range(rng.randint(1, 4))]
        union = disjoint_union(parts)
        starts = list(itertools.accumulate([0] + [p.size for p in parts[:-1]]))
        triples = set(union.relations["R"].tuples)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(parts))
            start, n = starts[i], parts[i].size
            inside = sorted(t for t in triples if start <= t[0] < start + n)
            kind = rng.randrange(3)
            if kind == 0 and inside:
                triples.discard(rng.choice(inside))
            elif kind == 1:
                triples.add(tuple(start + rng.randrange(n) for _ in range(3)))
            elif inside:
                a, b, c = rng.choice(inside)
                triples.discard((a, b, c))
                triples.add((a, b, start + rng.randrange(n)))
        d = RelationalStructure(union.size, {"R": Relation(3, frozenset(triples))})
        out.append(relabel(d, rng.sample(range(d.size), d.size)))
    return out


def test_match_names_the_first_failing_component(S):
    powers = {n: power_or_point(S, n) for n in range(5)}
    seen = Counter()
    for d in corrupted_unions(S, 31, 1000):
        blocks = connected_components(d)
        matched = [
            len(b) in (1, 2, 4, 8, 16)
            and find_isomorphism(induced_substructure(d, b), powers[len(b).bit_length() - 1]) is not None
            for b in blocks
        ]
        if all(matched):
            assert match_components_to_powers(d) == [len(b).bit_length() - 1 for b in blocks]
            seen["union"] += 1
            continue
        first = matched.index(False)
        with pytest.raises(StructureError) as error:
            match_components_to_powers(d)
        assert str(error.value) == f"component {blocks[first]} is not a power of the semilattice"
        seen["a later component" if first else "the first component"] += 1
        seen["a later component fails too"] += False in matched[first + 1:]
    # over half fail, and a fair share fail in more than one component
    assert seen["union"] < 500 and min(seen.values()) >= 80, seen


def test_analysis_equals_the_materialised_transform(S, point):
    inputs = [point] + [power(S, k) for k in range(1, 8)] + unions_of_powers(S, 22, 40)
    for d in inputs:
        analysis = analyze_gadget_components(d)
        assert analysis.input_exponents == tuple(match_components_to_powers(d))
        assert analysis.output_exponents == tuple(match_components_to_powers(gadget_transform(d)))
    # most unions have a point component, and most have one whose ids are no run
    unions = [connected_components(d) for d in inputs[8:]]
    assert sum(any(len(b) == 1 for b in p) for p in unions) > 20
    assert sum(any(b[-1] - b[0] >= len(b) for b in p) for p in unions) > 30


def test_analysis_builds_no_transform(S, point, monkeypatch):
    import hmkit.gadget as gadget
    import hmkit.homsearch as homsearch
    import hmkit.structures as structures

    inputs = [point, power(S, 6), *unions_of_powers(S, 23, 10)]
    want = [analyze_gadget_components(d) for d in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("the analysis built a transform or a power")

    for module, name in ((gadget, "hom_maps"), (homsearch, "hom_maps"), (gadget, "gadget_transform"),
                         (structures, "power"), (gadget, "power")):
        monkeypatch.setattr(module, name, refuse, raising=False)
    assert [analyze_gadget_components(d) for d in inputs] == want


def non_powers(S):
    """Connected structures of 2^k elements that are no power of S, named and seeded."""
    chain = lambda n: RelationalStructure(n, {"R": Relation(3, frozenset(
        (a, b, min(a, b)) for a in range(n) for b in range(n)))})
    out = {"4-chain": chain(4), "8-chain": chain(8), "Y": y_structure()}
    # a table with two coatoms whose columns send every element to 3 = 3 & 3
    table = (0, 1, 1, 2, 1, 2, 3, 1, 2, 0, 3, 2, 3, 1, 0, 0)
    out["constant column map"] = RelationalStructure(4, {"R": Relation(3, frozenset(
        (a, b, table[4 * a + b]) for a in range(4) for b in range(4)))})
    rng = random.Random(15)
    for i in range(6):
        k = rng.randint(2, 4)
        d = relabel(power(S, k), rng.sample(range(1 << k), 1 << k))
        triples = sorted(d.relations["R"].tuples)
        # n^2 triples, one pair without a value and one with two
        a, b, c = rng.choice([t for t in triples if t[0] != t[1]])
        extra = rng.choice([(x, y, z ^ 1) for x, y, z in triples if (x, y) != (a, b) and x != y])
        out[f"non-functional {i}"] = RelationalStructure(
            d.size, {"R": Relation(3, (frozenset(triples) - {(a, b, c)}) | {extra})})
        # a meet fragment: the diagonal and a seeded part of the other meets
        kept = [t for t in triples if t[0] == t[1] or rng.random() < 0.7]
        out[f"fragment {i}"] = RelationalStructure(d.size, {"R": Relation(3, frozenset(kept))})
        # one meet of incomparable elements missing: the order, and so the coatoms, stay intact
        missing = rng.choice([t for t in triples if t[2] not in t[:2]])
        out[f"power less one meet {i}"] = RelationalStructure(
            d.size, {"R": Relation(3, frozenset(triples) - {missing})})
    return out


def test_match_rejects_non_powers_of_power_size(S):
    for name, d in non_powers(S).items():
        assert len(connected_components(d)) == 1, name
        with pytest.raises(StructureError, match="not a power"):
            match_components_to_powers(d)
        k = d.size.bit_length() - 1
        assert d.size == 1 << k and find_isomorphism(d, power(S, k)) is None, name
