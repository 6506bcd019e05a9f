import itertools
import random
from collections import Counter, deque

import pytest

from hmkit import semilat
from hmkit.homsearch import OperationTable, find_homs
from hmkit.semilat import (
    DecompositionError,
    PartialSemilatticeWitness,
    ProductDecomposition,
    Refusal,
    classify_meet_operation,
    decompose_product_hom,
    is_partial_semilattice,
    largest_element,
    meet_lookup,
    single_ternary_relation,
)
from hmkit.structures import (
    Homomorphism,
    Relation,
    RelationalStructure,
    SignatureMismatch,
    SizeLimitExceeded,
    StructureError,
    product,
    product_tuples,
    rank,
)

from conftest import iterated_meet, verify_witness


def reflexive_triples(n):
    return {(a, a, a) for a in range(n)}


def ternary(n, triples):
    return RelationalStructure(n, {"R": Relation(3, frozenset(triples))})


def congruence_reference(s):
    """Reference decision by the 2^n congruence; True or the Refusal.

    Takes the non-empty subsets of the universe under union, generates the
    congruence identifying {a} u {b} with {c} for each triple (a,b,c), and
    accepts iff no two singletons merge.  Exponential; small n only.
    """
    rel = single_ternary_relation(s)
    n = s.size
    for a in range(n):
        if (a, a, a) not in rel.tuples:
            return Refusal("not reflexive", (a,))
    defined = {}
    for a, b, c in rel.sorted_tuples():
        if (a, b) in defined and defined[(a, b)] != c:
            return Refusal("not functional", (a, b, defined[(a, b)], c))
        defined[(a, b)] = c

    full = (1 << n) - 1
    parent = list(range(full + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = deque(((1 << a) | (1 << b), 1 << c) for (a, b), c in sorted(defined.items()))
    while queue:
        x, y = queue.popleft()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        for c in range(1, full + 1):
            if x | c != y | c:
                queue.append((x | c, y | c))

    roots = [find(1 << a) for a in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if roots[i] == roots[j]:
                return Refusal("congruence merges elements", (i, j))
    return True


def random_relation(rng):
    """A relation on at most 7 points: often a meet fragment, often not.

    Fragments come from random subsets of {0..3} under intersection; the
    rest are random triples.  Either kind may lose a loop or gain a
    conflicting triple.
    """
    n = rng.randint(1, 7)
    if rng.random() < 0.5:
        sets = [rng.randrange(16) for _ in range(n)]
        triples = {
            (a, b, sets.index(sets[a] & sets[b]))
            for a in range(n)
            for b in range(n)
            if sets[a] & sets[b] in sets and rng.random() < 0.7
        }
    else:
        density = rng.choice((0.1, 0.3, 0.6))
        triples = {(a, b, rng.randrange(n)) for a in range(n) for b in range(n) if a != b and rng.random() < density}
    triples |= reflexive_triples(n)
    if rng.random() < 0.1:
        triples.discard((a := rng.randrange(n), a, a))
    if rng.random() < 0.1:
        triples.add((rng.randrange(n), rng.randrange(n), rng.randrange(n)))
    return ternary(n, triples)


def test_single_ternary_relation(S):
    assert single_ternary_relation(S).arity == 3
    two = RelationalStructure(
        1, {"R": Relation(3, frozenset()), "Q": Relation(3, frozenset())}
    )
    with pytest.raises(StructureError, match="single relation"):
        single_ternary_relation(two)
    binary = RelationalStructure(1, {"R": Relation(2, frozenset())})
    with pytest.raises(StructureError, match="ternary"):
        single_ternary_relation(binary)


def test_meet_lookup(S):
    assert meet_lookup(S, 0, 1) == 0
    assert meet_lookup(S, 1, 1) == 1
    partial = RelationalStructure(2, {"R": Relation(3, frozenset(reflexive_triples(2)))})
    assert meet_lookup(partial, 0, 1) is None
    broken = RelationalStructure(
        2, {"R": Relation(3, frozenset({(0, 1, 0), (0, 1, 1)}))}
    )
    with pytest.raises(StructureError, match="non-functional"):
        meet_lookup(broken, 0, 1)


def test_meet_lookup_checks_ids_then_relation_and_names_the_two_least():
    # the id range is checked before the relation, and three values for one
    # pair name the two least
    three = ternary(4, {(1, 2, 3), (1, 2, 0), (1, 2, 2), (0, 0, 0)})
    with pytest.raises(StructureError, match=r"^non-functional relation: \(1,2,0\) and \(1,2,2\) both present$"):
        meet_lookup(three, 1, 2)
    assert meet_lookup(three, 0, 0) == 0 and meet_lookup(three, 2, 1) is None
    two = RelationalStructure(2, {"R": Relation(3, frozenset()), "Q": Relation(3, frozenset())})
    with pytest.raises(StructureError, match=r"^id 2 not in universe of size 2$"):
        meet_lookup(two, 0, 2)
    with pytest.raises(StructureError, match="single relation"):
        meet_lookup(two, 0, 1)
    # a wide chain answers from its n candidate triples
    n = 150
    chain = ternary(n, {(a, b, min(a, b)) for a in range(n) for b in range(n)})
    assert [meet_lookup(chain, a, b) for a, b in ((0, 149), (149, 75), (100, 100))] == [0, 75, 100]


def test_iterated_meet(S, chain3):
    """The fold oracle of the decomposition tests."""
    assert iterated_meet(S, [1, 1, 0]) == 0
    assert iterated_meet(chain3, [2, 1, 2]) == 1
    partial = RelationalStructure(2, {"R": Relation(3, frozenset(reflexive_triples(2)))})
    assert iterated_meet(partial, [0, 1]) is None


def test_largest_element(S, chain3):
    assert largest_element(S) == 1
    assert largest_element(chain3) == 2
    partial = RelationalStructure(2, {"R": Relation(3, frozenset(reflexive_triples(2)))})
    assert largest_element(partial) is None


def test_largest_element_rejects_two_tops():
    triples = {(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0)}
    s = RelationalStructure(2, {"R": Relation(3, frozenset(triples))})
    with pytest.raises(StructureError, match="multiple largest"):
        largest_element(s)


def largest_elements_reference(s):
    """Every t with (a, t, a) and (t, a, a) in the relation for every a, by
    one membership test per triple."""
    rel = single_ternary_relation(s).tuples
    return [t for t in range(s.size) if all((a, t, a) in rel and (t, a, a) in rel for a in range(s.size))]


def test_largest_element_matches_the_brute_force_oracle():
    """Seeded relations with 0, 1 or 2 planted tops, some with one triple
    dropped, and the empty universe: None, the one top, or the two tops
    named in the error."""
    rng = random.Random(43)
    structures = [ternary(0, ())]
    for _ in range(600):
        n = rng.randint(1, 6)
        triples = {(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))}
        for t in rng.sample(range(n), rng.randint(0, min(n, 2))):
            triples |= {(a, t, a) for a in range(n)} | {(t, a, a) for a in range(n)}
        if rng.random() < 0.3:
            triples.discard(rng.choice(sorted(triples or {(0, 0, 0)})))
        structures.append(ternary(n, triples))
    seen = Counter()
    for s in structures:
        tops = largest_elements_reference(s)
        if len(tops) > 1:
            with pytest.raises(StructureError) as info:
                largest_element(s)
            assert str(info.value) == f"multiple largest elements {tops}; relation not functional"
        else:
            assert largest_element(s) == (tops[0] if tops else None)
        seen[min(len(tops), 2), s.size == 0] += 1
    assert seen[0, True] == 1 and min(seen[k, False] for k in range(3)) >= 100, seen


def test_is_partial_semilattice_accepts_full_meet(S, chain3):
    for s in (S, chain3):
        w = is_partial_semilattice(s)
        assert isinstance(w, PartialSemilatticeWitness)
        verify_witness(s, w)


def test_is_partial_semilattice_accepts_incomparable_pair():
    pair = RelationalStructure(2, {"R": Relation(3, frozenset(reflexive_triples(2)))})
    w = is_partial_semilattice(pair)
    assert isinstance(w, PartialSemilatticeWitness)
    # the ambient semilattice must supply the missing meet
    assert len(set(w.embedding)) == 2
    verify_witness(pair, w)


def test_is_partial_semilattice_refusals():
    not_reflexive = RelationalStructure(2, {"R": Relation(3, frozenset({(0, 0, 0)}))})
    r = is_partial_semilattice(not_reflexive)
    assert isinstance(r, Refusal) and r.reason == "not reflexive"

    # the refusal names the least non-functional pair and its two least values
    for n, extra, detail in [
        (2, {(0, 1, 0), (0, 1, 1)}, (0, 1, 0, 1)),
        (3, {(1, 2, 2), (1, 2, 1), (1, 2, 0), (2, 0, 1), (2, 0, 0)}, (1, 2, 0, 1)),
    ]:
        non_functional = RelationalStructure(n, {"R": Relation(3, frozenset(reflexive_triples(n) | extra))})
        assert is_partial_semilattice(non_functional) == Refusal("not functional", detail)

    # 0 meet 1 = 0 and 1 meet 0 = 1 cannot embed: commutativity merges 0 and 1
    merging = RelationalStructure(
        2, {"R": Relation(3, frozenset(reflexive_triples(2) | {(0, 1, 0), (1, 0, 1)}))}
    )
    r = is_partial_semilattice(merging)
    assert isinstance(r, Refusal) and r.reason == "congruence merges elements"


def test_is_partial_semilattice_has_no_size_cap():
    antichain = ternary(13, reflexive_triples(13))
    w = is_partial_semilattice(antichain)
    assert isinstance(w, PartialSemilatticeWitness)
    verify_witness(antichain, w)

    chain = ternary(150, {(a, b, min(a, b)) for a in range(150) for b in range(150)})
    assert isinstance(is_partial_semilattice(chain), PartialSemilatticeWitness)

    # 40 <= 41 <= ... <= 97 <= 40 collapses the whole stretch; (40, 41) is first
    cycle = reflexive_triples(150) | {(i, i + 1, i) for i in range(40, 97)} | {(97, 40, 97)}
    assert is_partial_semilattice(ternary(150, cycle)) == Refusal("congruence merges elements", (40, 41))


def test_is_partial_semilattice_matches_congruence_oracle():
    rng = random.Random(2024)
    verdicts = {}
    for _ in range(2000):
        s = random_relation(rng)
        expected = congruence_reference(s)
        got = is_partial_semilattice(s)
        if expected is True:
            assert isinstance(got, PartialSemilatticeWitness)
            verify_witness(s, got)
        else:
            assert got == expected
        key = "accepted" if expected is True else expected.reason
        verdicts[key] = verdicts.get(key, 0) + 1
    assert min(verdicts.get(k, 0) for k in (
        "accepted", "not reflexive", "not functional", "congruence merges elements"
    )) >= 100, verdicts


def test_verify_witness_rejects_bad_embeddings(chain3):
    w = is_partial_semilattice(chain3)
    verify_witness(chain3, w)
    h = list(w.embedding)
    with pytest.raises(StructureError, match="not injective"):
        verify_witness(chain3, PartialSemilatticeWitness((h[0], h[0], h[2])))
    with pytest.raises(StructureError, match="outside ambient"):
        verify_witness(chain3, PartialSemilatticeWitness((h[0], h[1], 1 << 3)))
    with pytest.raises(StructureError, match="outside ambient"):
        verify_witness(chain3, PartialSemilatticeWitness((-1, h[1], h[2])))
    # 0 lies below 1, so h(1) is inside h(0); dropping it breaks 0 meet 1 = 0
    tampered = (h[0] ^ h[1], h[1], h[2])
    assert len(set(tampered)) == 3
    with pytest.raises(StructureError, match=r"does not realize triple \(0,1,0\)"):
        verify_witness(chain3, PartialSemilatticeWitness(tampered))


def test_is_partial_semilattice_empty_universe():
    empty = RelationalStructure(0, {"R": Relation(3, frozenset())})
    with pytest.raises(StructureError):
        is_partial_semilattice(empty)


def test_decompose_identity_meet(S):
    decomposition = decompose_product_hom([S, S], S, (0, 0, 0, 1))
    assert not decomposition.is_constant
    assert list(decomposition.coordinate_maps) == [(0, 1), (0, 1)]


def test_decompose_constant(S):
    decomposition = decompose_product_hom([S, S], S, (0, 0, 0, 0))
    assert decomposition.is_constant
    assert decomposition.constant_value == 0


def test_decompose_second_coordinate(S, chain3):
    # drop the chain coordinate entirely
    mapping = tuple(b for a in range(3) for b in range(2))
    decomposition = decompose_product_hom([chain3, S], S, mapping)
    assert list(decomposition.coordinate_maps) == [(1, 1, 1), (0, 1)]


def test_decompose_rejects_wrong_shapes(S):
    # unusable input is a plain StructureError, raised before any verdict
    # work; test_cli runs every kind of it through the library and the CLI
    with pytest.raises(StructureError, match="^empty factor list$") as info:
        decompose_product_hom([], S, (0,))
    assert not isinstance(info.value, DecompositionError)
    for mapping, bad in (((0, 2, -1, 1), 2), ((0, 0, float("nan"), 1), "nan")):
        with pytest.raises(StructureError, match=rf"^map value {bad} not in target universe of size 2$"):
            decompose_product_hom([S, S], S, mapping)
    other = RelationalStructure(2, {"Q": S.relations["R"]})
    with pytest.raises(SignatureMismatch, match="^target and factors have different signatures$"):
        decompose_product_hom([S, other], S, (0, 0, 0, 1))
    # a map that is no homomorphism is a verdict
    with pytest.raises(DecompositionError, match=r"not a homomorphism: R tuple \(1, 2, 0\) maps to \(1, 1, 0\)"):
        decompose_product_hom([S, S], S, (0, 1, 1, 1))


def test_decompose_max_tuples_bounds_the_work_done(S):
    # S x S x S has 8 elements and 4^3 = 64 tuples
    points = list(itertools.product(range(2), repeat=3))
    # an accepted map folds its coordinate images and never walks the
    # product, so it passes at any bound
    meet = tuple(a & b & c for a, b, c in points)
    decomposition = decompose_product_hom([S, S, S], S, meet, max_tuples=1)
    assert list(decomposition.coordinate_maps) == [(0, 1)] * 3
    first = tuple(a for a, _, _ in points)
    decomposition = decompose_product_hom([S, S, S], S, first, max_tuples=1)
    assert list(decomposition.coordinate_maps) == [(0, 1), (1, 1), (1, 1)]
    # the meet of 12 factors: 4^12 combinations of coordinate images, 16
    # million, where the fold keeps at most 2^3 target triples
    meet12 = tuple(int(i == 4095) for i in range(4096))
    decomposition = decompose_product_hom([S] * 12, S, meet12, max_tuples=1)
    assert list(decomposition.coordinate_maps) == [(0, 1)] * 12
    # a failing map walks the product tuples to name its least failing one,
    # here the 2nd walked of 64
    broken = (1,) + meet[1:]
    with pytest.raises(SizeLimitExceeded, match="^product walk needs > 1 tuples$"):
        decompose_product_hom([S, S, S], S, broken, max_tuples=1)
    with pytest.raises(DecompositionError, match="not a homomorphism"):
        decompose_product_hom([S, S, S], S, broken, max_tuples=2)


PARTIAL3 = ternary(3, reflexive_triples(3) | {(a, 2, a) for a in range(3)} | {(2, a, a) for a in range(3)})
# a fragment of the subsets of {0,1} under intersection: 0 = {}, 1 and 2 the
# singletons, 3 = {0,1}; beyond the top's meets only 1 meet 2 is given
SQUARE = ternary(4, reflexive_triples(4) | {(a, 3, a) for a in range(4)} | {(3, a, a) for a in range(4)}
                 | {(1, 2, 0)})


def decompose_reference(factors, target, mapping, tops):
    """`Homomorphism(product(factors), target, mapping)`, then the meet
    decomposition checked point by point on the built product."""
    f = Homomorphism(product(factors), target, mapping)
    if len(factors) != len(tops):
        raise DecompositionError("one top element required per factor")
    for i, (h, t) in enumerate(zip(factors, tops)):
        if largest_element(h) != t:
            raise DecompositionError(f"factor {i}: {t} is not its largest element")
    if len(set(f.mapping)) <= 1:
        return ProductDecomposition(f.mapping[0], ())
    sizes = [h.size for h in factors]
    maps = []
    for i, h in enumerate(factors):
        vals = [f.mapping[rank(tops[:i] + [x] + tops[i + 1:], sizes)] for x in range(h.size)]
        try:
            maps.append(Homomorphism(h, target, tuple(vals)).mapping)
        except StructureError as exc:
            raise DecompositionError(f"coordinate map {i} is not a homomorphism: {exc}") from exc
    for idx, coords in enumerate(itertools.product(*(range(n) for n in sizes))):
        expected = iterated_meet(target, [m[c] for m, c in zip(maps, coords)])
        if expected is None:
            raise DecompositionError(f"iterated meet undefined at point {coords}")
        if expected != f.mapping[idx]:
            raise DecompositionError(
                f"meet identity fails at {coords}: meet gives {expected}, f gives {f.mapping[idx]}"
            )
    return ProductDecomposition(None, tuple(maps))


def outcome(decompose, *args):
    try:
        return decompose(*args)
    except StructureError as exc:
        return str(exc)


def test_decompose_matches_product_reference(S, chain3, point):
    """decompose_product_hom accepts, refuses and decomposes as building the
    product, checking the map on it and decomposing does."""
    pool = [(S, 1), (chain3, 2), (point, 0), (PARTIAL3, 2), (SQUARE, 3)]
    rng = random.Random(23)
    seen = Counter()
    for _ in range(60):
        picked = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        factors, tops = [h for h, _ in picked], [t for _, t in picked]
        target = rng.choice((S, chain3))
        p = product(factors)
        maps = find_homs(p, target, limit=6)
        maps += [tuple(rng.randrange(target.size) for _ in range(p.size)) for _ in range(4)]
        for mapping in list(maps):
            spot = rng.randrange(p.size)
            maps.append(mapping[:spot] + ((mapping[spot] + 1) % target.size,) + mapping[spot + 1:])
        for mapping in maps:
            expected = outcome(decompose_reference, factors, target, mapping, tops)
            assert outcome(decompose_product_hom, factors, target, mapping) == expected
            if isinstance(expected, ProductDecomposition):
                seen["constant" if expected.is_constant else "meet"] += 1
            else:
                seen["not a homomorphism" if "not a homomorphism" in expected else expected] += 1
    assert min(seen["constant"], seen["meet"], seen["not a homomorphism"]) >= 50, seen


def boolean_fragment(rng, n, dim):
    """n points of the Boolean lattice 2^dim, its top (id 0) among them, with
    every meet that lands inside the set: a partial semilattice whose
    largest element is 0."""
    top = (1 << dim) - 1
    points = [top] + rng.sample(range(top), n - 1)
    index = {p: i for i, p in enumerate(points)}
    return ternary(n, {(i, j, index[a & b]) for (i, a), (j, b) in itertools.product(enumerate(points), repeat=2)
                       if a & b in index})


def test_decompose_matches_product_reference_on_fragment_chains(S):
    """Chains of 2-4 meet fragments of Boolean lattices into S, shaped like
    the decompositions of the psl benchmark workload: every hom the search
    finds, and copies with 1-3 entries changed, into S and into S with
    (0, 1, 1) added.  The result, or a DecompositionError with the message
    the reference raises."""
    nonfunctional = ternary(2, single_ternary_relation(S).tuples | {(0, 1, 1)})
    rng = random.Random(41)
    seen = Counter()
    for _ in range(16):
        k = rng.randint(2, 4)
        factors = [boolean_fragment(rng, rng.randint(2, 4 if k < 4 else 3), 3) for _ in range(k)]
        homs = find_homs(product(factors), S, limit=8)
        changed = []
        for mapping in homs:
            spots = rng.sample(range(len(mapping)), min(len(mapping), rng.randint(1, 3)))
            changed.append(tuple(1 - v if i in spots else v for i, v in enumerate(mapping)))
        for target in (S, nonfunctional):
            for mapping in homs + changed:
                expected = outcome(decompose_reference, factors, target, mapping, [0] * k)
                try:
                    got = decompose_product_hom(factors, target, mapping)
                except StructureError as exc:
                    got = (type(exc), str(exc))
                if isinstance(expected, ProductDecomposition):
                    assert got == expected
                    seen["constant" if expected.is_constant else "meet"] += 1
                else:
                    assert got == (DecompositionError, expected)
                    seen[expected.split(":")[0]] += 1
                seen[k] += 1
    assert min(seen.values()) >= 20 and len(seen) == 7, seen


def test_decompose_names_the_first_failing_point_before_a_later_non_functional_meet(S, monkeypatch):
    """The bulk meet-identity check folds every point before it looks for a
    failure, so a non-functional pair it meets is not raised ahead of an
    earlier point that fails.  A homomorphism passes the identity wherever
    its meets are functional (each fold step is the image of a product
    tuple), so a patched meet table makes the failures: 0 meet 1 gives 1,
    which first fails the meet map of S^3 at (0, 0, 1), and 1 meet 0 is
    non-functional, which the walk in id order meets only at (0, 1, 0)."""
    meet = tuple(a & b & c for a, b, c in itertools.product(range(2), repeat=3))
    table = {(0, 0): 0, (0, 1): 1, (1, 0): (0, 1), (1, 1): 1}
    monkeypatch.setattr(semilat, "_meet_table", lambda s: table)
    with pytest.raises(DecompositionError, match=r"^meet identity fails at \(0, 0, 1\): meet gives 1, f gives 0$"):
        decompose_product_hom([S, S, S], S, meet)
    # with 0 meet 1 right, the non-functional pair is the first failure
    table[0, 1] = 0
    with pytest.raises(DecompositionError, match=r"^non-functional relation: \(1,0,0\) and \(1,0,1\) both present$"):
        decompose_product_hom([S, S, S], S, meet)


def meet_identity_holds(factors, target, mapping, tops):
    """f equals, at every point, the iterated meet of its values on the faces through the tops."""
    sizes = [h.size for h in factors]
    faces = [[mapping[rank(tops[:i] + [x] + tops[i + 1:], sizes)] for x in range(h.size)] for i, h in enumerate(factors)]
    try:
        return all(
            iterated_meet(target, [m[c] for m, c in zip(faces, coords)]) == mapping[idx]
            for idx, coords in enumerate(itertools.product(*(range(n) for n in sizes)))
        )
    except StructureError:  # a non-functional target
        return False


def test_decompose_matches_product_reference_on_other_targets(S, chain3, point):
    """Into targets that are no semilattice, partial, non-functional or not
    reflexive, the check on the coordinate images still accepts, refuses and
    decomposes as the built product does at the factors' own tops.  Maps
    that are meets of random coordinate maps hold the meet identity without
    being homomorphisms, so the image check decides them."""
    nonfunctional = ternary(2, single_ternary_relation(S).tuples | {(0, 1, 1)})
    nonreflexive = ternary(3, single_ternary_relation(chain3).tuples - {(1, 1, 1)})
    targets = [(PARTIAL3, 2), (SQUARE, 3), (nonfunctional, 1), (nonreflexive, 2)]
    pool = [(S, 1), (chain3, 2), (point, 0), (PARTIAL3, 2), (SQUARE, 3)]
    rng = random.Random(29)
    seen = Counter()
    for _ in range(60):
        picked = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        factors, tops = [h for h, _ in picked], [t for _, t in picked]
        target, top = rng.choice(targets)
        p = product(factors)
        maps = find_homs(p, target, limit=4)
        maps += [tuple(rng.randrange(target.size) for _ in range(p.size)) for _ in range(2)]
        rel = single_ternary_relation(target).tuples
        for _ in range(6):
            # fold random coordinate maps, top on each factor's top, with the least meet the target offers
            coordinate_maps = [[top if x == t else rng.randrange(target.size) for x in range(h.size)] for h, t in picked]
            mapping = []
            for coords in itertools.product(*(range(h.size) for h in factors)):
                acc = coordinate_maps[0][coords[0]]
                for m, c in zip(coordinate_maps[1:], coords[1:]):
                    acc = min((z for x, y, z in rel if (x, y) == (acc, m[c])), default=top)
                mapping.append(acc)
            maps.append(tuple(mapping))
        for mapping in list(maps):
            spot = rng.randrange(p.size)
            maps.append(mapping[:spot] + ((mapping[spot] + 1) % target.size,) + mapping[spot + 1:])
        for mapping in maps:
            expected = outcome(decompose_reference, factors, target, mapping, tops)
            assert outcome(decompose_product_hom, factors, target, mapping) == expected
            if isinstance(expected, ProductDecomposition):
                seen["constant" if expected.is_constant else "meet"] += 1
            elif "not a homomorphism" in expected:
                seen["image check" if meet_identity_holds(factors, target, mapping, tops) else "no hom"] += 1
            else:
                seen[expected.split(":")[0]] += 1
    assert min(seen["constant"], seen["meet"], seen["no hom"]) >= 20, seen
    assert seen["image check"] >= 50, seen


def least_failing_tuple_reference(factors, target, mapping):
    """The "not a homomorphism" message for the least product tuple whose
    image leaves the target, by `min` over every product tuple, or None."""
    rel = single_ternary_relation(target).tuples
    image = lambda t: tuple(mapping[v] for v in t)
    bad = min((t for t in product_tuples(factors, "R") if image(t) not in rel), default=None)
    return None if bad is None else f"not a homomorphism: R tuple {bad} maps to {image(bad)}"


def test_decompose_names_the_least_failing_tuple(S, chain3, point):
    """A map that is no homomorphism is refused at its least failing product
    tuple, the one the `min` walk over all of them finds, over 1-3 factors."""
    nonfunctional = ternary(2, single_ternary_relation(S).tuples | {(0, 1, 1)})
    pool = [S, chain3, point, PARTIAL3, SQUARE]
    rng = random.Random(37)
    seen = Counter()
    for _ in range(150):
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        target = rng.choice((S, chain3, PARTIAL3, nonfunctional))
        p = product(factors)
        homs = find_homs(p, target, limit=3)
        maps = [tuple(rng.randrange(target.size) for _ in range(p.size)) for _ in range(2)]
        for mapping in homs + maps:
            spot = rng.randrange(p.size)
            maps.append(mapping[:spot] + ((mapping[spot] + 1) % target.size,) + mapping[spot + 1:])
        for mapping in maps:
            expected = least_failing_tuple_reference(factors, target, mapping)
            if expected is None:
                continue
            assert outcome(decompose_product_hom, factors, target, mapping) == expected
            seen[len(factors)] += 1
            seen["past the first tuple"] += f"tuple {min(product_tuples(factors, 'R'))} " not in expected
    assert min(seen.values()) >= 100, seen


def test_a_homomorphism_that_fails_a_check_gets_that_checks_error(S, monkeypatch):
    """On a homomorphism into a functional target every check passes (each
    meet the bulk check and the fold take is the image of a product tuple),
    so a meet table patched to be empty drives the branch: the point walk's
    message is raised, since the map passes the product walk, while a map
    that is no homomorphism is named at its least failing tuple."""
    monkeypatch.setattr(semilat, "_meet_table", lambda s: {})
    with pytest.raises(DecompositionError, match=r"^iterated meet undefined at point \(0, 0\)$"):
        decompose_product_hom([S, S], S, (0, 0, 0, 1))  # the meet map S^2 -> S
    with pytest.raises(DecompositionError, match=r"^not a homomorphism: R tuple \(1, 2, 0\) maps to \(1, 1, 0\)$"):
        decompose_product_hom([S, S], S, (0, 1, 1, 1))  # the join map
    monkeypatch.undo()
    assert decompose_product_hom([S, S], S, (0, 0, 0, 1)).coordinate_maps == ((0, 1), (0, 1))


def test_classify_refuses_a_table_whose_coordinates_have_no_meet():
    # xnor is 0 at (0, 1) and at (1, 0), so both positions are found as meet
    # coordinates, but xnor(0, 0) = 1 is not their meet; and (0, 0, 1, 0)
    # finds position 1 only, but is 0 at (1, 1)
    for values in ((1, 0, 0, 1), (0, 0, 1, 0)):
        assert classify_meet_operation(OperationTable(2, 2, values)) is None
    assert classify_meet_operation(OperationTable(2, 2, (0, 0, 0, 1))).describe() == "Meet({1,2})"


def test_every_hom_off_a_product_decomposes(S, chain3):
    factors = [chain3, S]
    prod = product(factors)
    for f in find_homs(prod, S):
        decomposition = decompose_product_hom(factors, S, f)
        if decomposition.is_constant:
            continue
        maps = decomposition.coordinate_maps
        for idx, coords in enumerate(itertools.product(range(3), range(2))):
            values = [m[c] for m, c in zip(maps, coords)]
            assert iterated_meet(S, values) == f[idx]


def test_coordinate_maps_pass_the_validating_constructor(S, chain3, point):
    """decompose_product_hom returns its coordinate maps as bare mapping
    tuples, proved by the fold; the validating constructor accepts each one
    as a map from its factor into the target, on seeded products of 1-3
    factors."""
    pool = [(S, 1), (chain3, 2), (point, 0), (PARTIAL3, 2), (SQUARE, 3)]
    rng = random.Random(29)
    checked = Counter()
    for _ in range(80):
        picked = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        factors = [h for h, _ in picked]
        target = rng.choice((S, chain3))
        for f in find_homs(product(factors), target, limit=8):
            try:
                decomposition = decompose_product_hom(factors, target, f)
            except DecompositionError:
                continue
            for h, m in zip(factors, decomposition.coordinate_maps):
                Homomorphism(h, target, m)
                checked[len(factors)] += 1
    assert min(checked.values()) >= 50, checked


def test_classify_meet_operation(meet_table, majority_table):
    cls = classify_meet_operation(meet_table)
    assert cls.meet_coordinates == {1, 2}
    assert cls.describe() == "Meet({1,2})"

    const = classify_meet_operation(OperationTable(2, 2, (1, 1, 1, 1)))
    assert const.constant_value == 1
    assert const.describe() == "Constant(1)"

    assert classify_meet_operation(majority_table) is None
    assert classify_meet_operation(OperationTable(1, 2, (1, 0))) is None

    with pytest.raises(StructureError):
        classify_meet_operation(OperationTable(1, 3, (0, 1, 2)))


def test_classify_single_coordinate_projection():
    p = OperationTable(3, 2, tuple(args[2] for args in itertools.product(range(2), repeat=3)))
    cls = classify_meet_operation(p)
    assert cls.meet_coordinates == {3}


def classify_reference(values, arity):
    """Constant(v), Meet(coordinates) or None, by comparing the table with each
    constant and with the meet of each nonempty coordinate set, computed by
    `itertools.product` and `min`."""
    args = list(itertools.product((0, 1), repeat=arity))
    for v in (0, 1):
        if values == (v,) * len(args):
            return f"Constant({v})"
    for k in range(1, arity + 1):
        for coords in itertools.combinations(range(arity), k):
            if values == tuple(min(a[i] for i in coords) for a in args):
                return "Meet({" + ",".join(str(i + 1) for i in coords) + "})"
    return None


def test_classify_meet_operation_matches_the_product_reference():
    """Every 0/1 table of arity 0-3; at arity 4 every meet, each with one value
    flipped, and seeded random tables."""
    tables = [values for n in range(4) for values in itertools.product((0, 1), repeat=2**n)]
    args4 = list(itertools.product((0, 1), repeat=4))
    for k in range(1, 5):
        for coords in itertools.combinations(range(4), k):
            meet = [min(a[i] for i in coords) for a in args4]
            tables.append(tuple(meet))
            for r in range(16):
                tables.append(tuple(meet[:r] + [1 - meet[r]] + meet[r + 1:]))
    rng = random.Random(61)
    tables += [tuple(rng.randint(0, 1) for _ in range(16)) for _ in range(500)]
    found = Counter()
    for values in tables:
        arity = len(values).bit_length() - 1
        cls = classify_meet_operation(OperationTable(arity, 2, values))
        want = classify_reference(values, arity)
        assert (cls and cls.describe()) == want, values
        found[want is None, arity] += 1
    assert all(found[refused, arity] for refused in (False, True) for arity in range(1, 5)), found
