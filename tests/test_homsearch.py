import itertools
import random
from collections import Counter
from operator import itemgetter

import pytest

from hmkit.gadget import y_structure
from hmkit.homsearch import (
    OperationTable,
    _plan,
    _support_table,
    _symmetric_pairs,
    count_homs,
    find_homs,
    find_retraction,
    hom_maps,
    is_homomorphism,
    operation_from_json,
    polymorphisms,
)
from hmkit.structures import (
    Homomorphism,
    Relation,
    RelationalStructure,
    SignatureMismatch,
    StructureError,
    disjoint_union,
    find_isomorphism,
    power,
)

from conftest import brute_force_homs, random_structure, relabel


def test_find_homs_lex_order(S):
    homs = find_homs(S, S)
    assert homs == [(0, 0), (0, 1), (1, 1)]


def test_find_homs_nonconstant(S):
    homs = find_homs(S, S, nonconstant_only=True)
    assert homs == [(0, 1)]


def test_find_homs_limit(S):
    homs = find_homs(S, S, limit=2)
    assert homs == [(0, 0), (0, 1)]


def test_hom_maps_pinned(S):
    assert list(hom_maps(S, S, {0: 1 << 1})) == [(1, 1)]
    with pytest.raises(StructureError, match="pin"):
        next(hom_maps(S, S, {0: 1 << 9}))


def test_find_homs_signature_mismatch(S):
    other = RelationalStructure(2, {"Q": Relation(3, frozenset())})
    with pytest.raises(SignatureMismatch):
        find_homs(S, other)


def test_find_homs_matches_brute_force_under_every_option():
    rng = random.Random(41)
    nonempty = 0
    for _ in range(200):
        signature = {sym: rng.randint(1, 3) for sym in rng.sample("EFR", rng.randint(1, 2))}
        src = random_structure(rng, rng.randint(0, 5), signature)
        tgt = random_structure(rng, rng.randint(0, 5), signature)
        every = brute_force_homs(src, tgt)
        nonempty += bool(every)
        for limit, nonconstant in itertools.product((0, 1, 3), (False, True)):
            want = [m for m in every if not nonconstant or len(set(m)) > 1]
            got = find_homs(src, tgt, limit=limit, nonconstant_only=nonconstant)
            assert got == (want[:limit] if limit else want), (src, tgt, limit, nonconstant)
        if src.size and tgt.size:
            for pinned in (
                {rng.randrange(src.size): rng.randrange(tgt.size)},
                {v: rng.randrange(tgt.size) for v in rng.sample(range(src.size), min(2, src.size))},
            ):
                want = [m for m in every if all(m[k] == v for k, v in pinned.items())]
                assert list(hom_maps(src, tgt, {k: 1 << v for k, v in pinned.items()})) == want, (src, tgt, pinned)
        assert count_homs(src, tgt) == len(every)
    assert nonempty >= 80


def test_hom_maps_initial_domains_filter_the_lexicographic_list():
    rng = random.Random(43)
    for _ in range(100):
        signature = {sym: rng.randint(1, 3) for sym in rng.sample("EFR", rng.randint(1, 2))}
        src = random_structure(rng, rng.randint(1, 5), signature)
        tgt = random_structure(rng, rng.randint(1, 5), signature)
        domains = {v: rng.randrange(1 << tgt.size) for v in rng.sample(range(src.size), rng.randint(1, src.size))}
        for injective in (False, True):
            want = [
                m for m in brute_force_homs(src, tgt)
                if all(domains.get(v, -1) >> w & 1 for v, w in enumerate(m)) and (not injective or len(set(m)) == len(m))
            ]
            assert list(hom_maps(src, tgt, domains, injective)) == want
    S = RelationalStructure(2, {"R": Relation(1, frozenset())})
    for bad in ({2: 1}, {0: 4}, {0: -1}):
        with pytest.raises(StructureError, match="pin"):
            next(hom_maps(S, S, bad))


def closed_under(rel, swaps):
    """`rel` with every image under the given position transpositions added."""
    tuples, todo = set(rel.tuples), list(rel.tuples)
    while todo:
        t = todo.pop()
        for i, j in swaps:
            u = list(t)
            u[i], u[j] = u[j], u[i]
            if tuple(u) not in tuples:
                tuples.add(tuple(u))
                todo.append(tuple(u))
    return Relation(rel.arity, frozenset(tuples))


def symmetric_structure(rng, size, arity, swaps, density=None):
    s = random_structure(rng, size, {"R": arity}, density)
    return RelationalStructure(size, {"R": closed_under(s.relations["R"], swaps)})


# (arity, transpositions the target relation is closed under, the pairs that
# closure must show): a symmetric pair at arity 2 and 3, three mutually
# symmetric positions at arity 3 and 4, and positions 0 and 2 only
SYMMETRIES = [
    (2, [(0, 1)], [(0, 1)]),
    (3, [(0, 1)], [(0, 1)]),
    (3, [(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)]),
    (4, [(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)]),
    (3, [(0, 2)], [(0, 2)]),
]


@pytest.mark.parametrize("arity, swaps, pairs", SYMMETRIES)
def test_hom_maps_into_symmetric_targets_match_brute_force(arity, swaps, pairs):
    """Source tuples that a target symmetry exchanges share one check; every
    entry point still returns brute force's maps in its order."""
    rng = random.Random(47 + 10 * arity + len(swaps))
    nonempty = 0
    for k in range(40):
        tgt = symmetric_structure(rng, rng.randint(1, 4), arity, swaps)
        assert set(pairs) <= set(_symmetric_pairs(tgt.relations["R"]))
        size = rng.randint(0, 5 if arity < 4 else 4)
        # sources: random, symmetric under the same swaps, or under others
        if k % 3 == 0:
            src = random_structure(rng, size, {"R": arity})
        else:
            src = symmetric_structure(rng, size, arity, swaps if k % 3 == 1 else [(0, arity - 1)])
        every = brute_force_homs(src, tgt)
        nonempty += len(every) > 1
        assert list(hom_maps(src, tgt)) == every, (src, tgt)
        for limit, nonconstant in itertools.product((0, 1, 3), (False, True)):
            want = [m for m in every if not nonconstant or len(set(m)) > 1]
            assert find_homs(src, tgt, limit=limit, nonconstant_only=nonconstant) == (want[:limit] if limit else want)
        assert count_homs(src, tgt) == len(every)
        if src.size:
            domains = {v: rng.randrange(1 << tgt.size) for v in rng.sample(range(src.size), rng.randint(1, src.size))}
            for injective in (False, True):
                want = [
                    m for m in every
                    if all(domains.get(v, -1) >> w & 1 for v, w in enumerate(m)) and (not injective or len(set(m)) == len(m))
                ]
                assert list(hom_maps(src, tgt, domains, injective)) == want, (src, tgt, domains, injective)
    assert nonempty >= 10


def support_table_reference(rel, holes):
    """The support table built one target tuple at a time: values at the
    positions outside `holes` -> bitmask of the values c such that c at
    every position in `holes` completes a tuple of `rel`."""
    rest = [i for i in range(rel.arity) if i not in holes]
    read = itemgetter(*rest) if rest else (lambda t: ())
    table = {}
    for t in rel.tuples:
        c = t[holes[0]]
        if all(t[i] == c for i in holes):
            key = read(t)
            table[key] = table.get(key, 0) | (1 << c)
    return table


def transposed(t, i, j):
    u = list(t)
    u[i], u[j] = u[j], u[i]
    return tuple(u)


def plan_reference(source, target, domain):
    """The search plan built one source tuple at a time, with its own
    symmetry test: per level the (hole, reader, support table) checks in
    sorted-tuple order; a constant tuple narrows `domain` in place."""
    checks = [[] for _ in range(source.size)]
    tables = {}
    for sym in source.symbols():
        rel, tgt = source.relations[sym], target.relations[sym]
        pairs = [
            (i, j) for i, j in itertools.combinations(range(rel.arity), 2)
            if all(transposed(t, i, j) in tgt.tuples for t in tgt.tuples)
        ]
        for t in sorted(rel.tuples):
            if any(t[i] > t[j] and transposed(t, i, j) in rel.tuples for i, j in pairs):
                continue
            elems = sorted(set(t))
            hole = elems[-1]
            holes = tuple(k for k, v in enumerate(t) if v == hole)
            if (sym, holes) not in tables:
                tables[sym, holes] = support_table_reference(tgt, holes)
            table = tables[sym, holes]
            if len(elems) == 1:
                domain[hole] &= table.get((), 0)
            else:
                checks[elems[-2]].append((hole, itemgetter(*(v for v in t if v != hole)), table))
    return checks


def plan_pairs(S, point, chain3):
    """(source, target) pairs: the fixtures, powers of S into S and into
    themselves, chain3^3, Y^2, and seeded structures of arity 1-4 with
    empty relations, constant tuples and symmetric targets."""
    Y = y_structure()
    for a, b in itertools.product((S, point, chain3, Y), repeat=2):
        yield a, b
    for n in range(1, 6):
        yield power(S, n), S
        yield power(S, n), power(S, n)
        yield S, power(S, n)
    yield power(chain3, 3), chain3
    yield power(Y, 2), Y
    rng = random.Random(53)
    for k in range(200):
        signature = {sym: rng.randint(1, 4) for sym in rng.sample("EFR", rng.randint(1, 3))}
        src = random_structure(rng, rng.randint(0, 6), signature)
        if k % 2:
            # a target closed under some transpositions, so the filter drops tuples
            size, rels = rng.randint(1, 4), {}
            for sym, arity in signature.items():
                swaps = rng.sample(list(itertools.combinations(range(arity), 2)), min(arity - 1, 2))
                rels[sym] = closed_under(random_structure(rng, size, {sym: arity}).relations[sym], swaps)
            tgt = RelationalStructure(size, rels)
        else:
            tgt = random_structure(rng, rng.randint(0, 4), signature)
        yield src, tgt


def test_plan_matches_the_per_tuple_reference(S, point, chain3):
    """Bulk support tables, the bulk symmetric filter and the grouped checks
    give the per-tuple plan: equal tables, and per level the reference's
    checks merged by (elements read, table) in first-occurrence order, with
    the same holes in the same order."""
    rng = random.Random(59)
    dropped = narrowed = 0
    for src, tgt in plan_pairs(S, point, chain3):
        for sym in tgt.symbols():
            rel = tgt.relations[sym]
            for k in range(1, rel.arity + 1):
                for holes in itertools.combinations(range(rel.arity), k):
                    assert _support_table(rel, holes) == support_table_reference(rel, holes), (rel, holes)
        full = (1 << tgt.size) - 1
        start = [rng.randint(0, full) if rng.random() < 0.3 else full for _ in range(src.size)]
        got_domain, want_domain = list(start), list(start)
        got, want = _plan(src, tgt, got_domain), plan_reference(src, tgt, want_domain)
        assert got_domain == want_domain, (src, tgt)
        # read from the identity map, a reader returns the elements it reads
        ids = list(range(src.size))
        merged = []
        for level in want:
            groups = {}  # the reference caches one table per relation and holes
            for hole, read, table in level:
                groups.setdefault((read(ids), id(table)), (read(ids), table, []))[2].append(hole)
            merged.append([(elems, table, tuple(holes)) for elems, table, holes in groups.values()])
        assert [[(read(ids), table, holes) for read, table, holes in level] for level in got] == merged, (src, tgt)
        nonconstant = sum(len(set(t)) > 1 for r in src.relations.values() for t in r.tuples)
        dropped += sum(map(len, want)) < nonconstant
        narrowed += want_domain != start
    assert dropped > 50 and narrowed > 50


def backtrack_homs(src, tgt):
    """Reference: the maps in lexicographic order, each tuple checked in
    full once its highest element is assigned; no forward checking and no
    symmetry."""
    by_top = [[] for _ in range(src.size)]
    for sym, rel in src.relations.items():
        for t in rel.tuples:
            by_top[max(t)].append((t, tgt.relations[sym].tuples))
    out, mapping = [], []

    def extend():
        if len(mapping) == src.size:
            out.append(tuple(mapping))
            return
        for v in range(tgt.size):
            mapping.append(v)
            if all(tuple(mapping[x] for x in t) in allowed for t, allowed in by_top[len(mapping) - 1]):
                extend()
            mapping.pop()

    extend()
    return out


def test_polymorphisms_of_the_meet_structures_match_references(S, chain3):
    Y = y_structure()
    for s in (S, chain3):
        assert backtrack_homs(power(s, 2), s) == brute_force_homs(power(s, 2), s)
    # S's polymorphisms are the two constants and the meets of nonempty coordinate sets
    for n in range(1, 9):
        args = list(itertools.product(range(2), repeat=n))
        meets = [tuple(min(a[i] for i in c) for a in args) for k in range(1, n + 1) for c in itertools.combinations(range(n), k)]
        want = sorted(meets + [(0,) * 2**n, (1,) * 2**n])
        assert [t.values for t in polymorphisms(S, n)] == want
        assert len(want) == 2**n + 1
    for s, n, count in ((chain3, 2, 46), (chain3, 3, 244), (Y, 2, 379)):
        tables = [t.values for t in polymorphisms(s, n)]
        assert tables == backtrack_homs(power(s, n), s)
        assert len(tables) == count


def test_symmetric_pairs(S, chain3):
    assert _symmetric_pairs(S.relations["R"]) == [(0, 1)]
    assert _symmetric_pairs(chain3.relations["R"]) == [(0, 1)]
    assert _symmetric_pairs(y_structure().relations["R"]) == [(0, 1)]
    assert _symmetric_pairs(Relation(2, frozenset({(0, 1)}))) == []
    non_functional = {(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)}
    assert _symmetric_pairs(Relation(3, frozenset(non_functional))) == []
    even = frozenset(t for t in itertools.product(range(2), repeat=4) if sum(t) % 2 == 0)
    assert _symmetric_pairs(Relation(4, even)) == list(itertools.combinations(range(4), 2))
    # no tuple to break a symmetry: every pair, which drops nothing a check would catch
    assert _symmetric_pairs(Relation(3, frozenset())) == [(0, 1), (0, 2), (1, 2)]
    assert _symmetric_pairs(Relation(1, frozenset({(0,)}))) == []


def test_find_homs_of_empty_structures():
    empty = RelationalStructure(0, {"R": Relation(2, frozenset())})
    one = RelationalStructure(1, {"R": Relation(2, frozenset())})
    assert find_homs(empty, empty) == [()]
    assert find_homs(empty, one) == [()]
    assert find_homs(one, empty) == []


def test_find_homs_with_an_empty_source_tuple_match_brute_force():
    """A source relation of arity 0 holding () admits the maps exactly when
    the target's holds () too, on empty and nonempty universes."""
    with_empty, without = Relation(0, frozenset({()})), Relation(0, frozenset())
    for n, m in itertools.product(range(3), repeat=2):
        for src_rel, tgt_rel in itertools.product((with_empty, without), repeat=2):
            src = RelationalStructure(n, {"P": src_rel, "R": Relation(2, frozenset({(0, 1)} if n > 1 else ()))})
            tgt = RelationalStructure(m, {"P": tgt_rel, "R": Relation(2, frozenset(itertools.product(range(m), repeat=2)))})
            want = brute_force_homs(src, tgt)
            assert find_homs(src, tgt) == want, (n, m, src_rel, tgt_rel)
            assert (want == []) == (m == 0 < n or src_rel.tuples > tgt_rel.tuples)


def test_find_homs_has_no_recursion_limit():
    n = 1500
    path = RelationalStructure(n, {"E": Relation(2, frozenset((i, i + 1) for i in range(n - 1)))})
    cycle = RelationalStructure(2, {"E": Relation(2, frozenset({(0, 1), (1, 0)}))})
    assert find_homs(path, cycle) == [
        tuple(i % 2 for i in range(n)),
        tuple((i + 1) % 2 for i in range(n)),
    ]


def test_count_homs(S, chain3):
    assert count_homs(S, S) == 3
    # maps from the chain meet graph into S are the monotone 0/1 labelings
    assert count_homs(chain3, S) == 4


def test_is_homomorphism_reports_first_failure(S):
    result = is_homomorphism(S, S, (1, 0))
    assert not result.ok
    assert result.symbol == "R"
    assert result.source_tuple == (0, 1, 0)
    assert result.image_tuple == (1, 0, 1)
    assert is_homomorphism(S, S, (0, 0)).ok


def test_is_homomorphism_rejects_malformed(S):
    with pytest.raises(StructureError):
        is_homomorphism(S, S, (0,))
    with pytest.raises(StructureError):
        is_homomorphism(S, S, (0, 5))


def test_find_retraction(S, point):
    big = disjoint_union([S, point])
    pair = find_retraction(big, S)
    assert pair is not None
    into, onto = pair
    assert [onto[v] for v in into] == [0, 1]
    # the extra point must land on an idempotent element
    assert onto[2] in (0, 1)


def test_find_retraction_none(S, point):
    spread = RelationalStructure(
        2, {"R": Relation(3, frozenset({(0, 0, 0), (1, 1, 1)}))}
    )
    # S cannot embed: the only non-diagonal triple has nowhere to go
    assert find_retraction(spread, S) is None
    assert find_retraction(point, S) is None


def find_retraction_reference(big, small):
    """Every homomorphism small -> big, injective ones kept in order, each
    tried with its values pinned for a left inverse."""
    for beta in find_homs(small, big):
        if len(set(beta)) != small.size:
            continue
        alpha = next(hom_maps(big, small, {img: 1 << x for x, img in enumerate(beta)}), None)
        if alpha is not None:
            return beta, alpha
    return None


def test_find_retraction_matches_reference(S):
    rng = random.Random(43)
    powers = {n: power(S, n) for n in range(1, 5)}
    pairs = []
    for n, big in powers.items():
        perm = list(range(big.size))
        rng.shuffle(perm)
        for m in range(1, min(n, 2) + 1):
            pairs += [(big, powers[m]), (relabel(big, perm), powers[m])]
    pairs.append((powers[2], random_structure(rng, 3, {"R": 3}, 0.4)))
    found = 0
    for big, small in pairs:
        pair = find_retraction(big, small)
        assert pair == find_retraction_reference(big, small)
        found += pair is not None
    assert found == len(pairs) - 1


def test_found_maps_pass_the_validating_constructor(S, point, chain3):
    """The searches return bare mapping tuples, proved by the search alone;
    the validating constructor accepts every one, the inverse of every
    isomorphism too, and each retraction undoes its coretraction."""
    rng = random.Random(53)
    fixtures = [S, point, chain3, disjoint_union([S, point]), power(S, 2), power(S, 3)]
    pairs = [(a, b) for a in fixtures for b in fixtures]
    for _ in range(150):
        signature = {sym: rng.randint(1, 3) for sym in rng.sample("EFR", rng.randint(1, 2))}
        a = random_structure(rng, rng.randint(0, 5), signature)
        perm = list(range(a.size))
        rng.shuffle(perm)
        pairs += [(a, random_structure(rng, rng.randint(0, 5), signature)), (a, relabel(a, perm))]
    seen = Counter()
    for a, b in pairs:
        for limit, nonconstant in itertools.product((0, 1, 3), (False, True)):
            for m in find_homs(a, b, limit=limit, nonconstant_only=nonconstant):
                Homomorphism(a, b, m)
                seen["hom"] += 1
        iso = find_isomorphism(a, b)
        if iso is not None:
            Homomorphism(a, b, iso)
            Homomorphism(b, a, tuple(sorted(range(a.size), key=iso.__getitem__)))
            seen["iso"] += 1
        pair = find_retraction(a, b)
        if pair is not None:
            into, onto = pair
            Homomorphism(b, a, into)
            Homomorphism(a, b, onto)
            assert tuple(onto[v] for v in into) == tuple(range(b.size))
            seen["retraction"] += 1
    assert min(seen.values()) >= 100, seen


def test_operation_table_row_major():
    t = OperationTable(2, 3, tuple(min(a, b) for a in range(3) for b in range(3)))
    assert t.apply(2, 1) == 1
    assert t.apply(0, 2) == 0
    assert t.is_idempotent()
    with pytest.raises(StructureError):
        t.apply(1)
    with pytest.raises(StructureError):
        t.apply(1, 3)


def test_operation_table_validation():
    with pytest.raises(StructureError):
        OperationTable(2, 2, (0, 0, 0))
    with pytest.raises(StructureError):
        OperationTable(1, 2, (0, 2))
    # the first value out of range is named, whichever end it is out at
    for values, first in (((0, 5, -1, 4), 5), ((1, -1, 9, 0), -1), ((3, 3, 3, 4), 4)):
        with pytest.raises(StructureError, match=rf"^table value {first} out of range for size 4$"):
            OperationTable(1, 4, values)


def test_operation_graph_is_the_meet_structure(S, meet_table):
    graph = {(a, b, meet_table.apply(a, b)) for a, b in itertools.product(range(2), repeat=2)}
    assert graph == S.relations["R"].tuples


def test_projection_and_constant():
    p = OperationTable(3, 2, tuple(args[1] for args in itertools.product(range(2), repeat=3)))
    assert p.apply(0, 1, 0) == 1
    assert p.is_idempotent()
    c = OperationTable(2, 3, (2,) * 9)
    assert c.apply(0, 1) == 2
    assert not c.is_idempotent()


def test_operation_json_round_trip(meet_table):
    doc = {"arity": 2, "size": 2, "values": [0, 0, 0, 1]}
    assert operation_from_json(doc) == meet_table
    with pytest.raises(StructureError):
        operation_from_json({"arity": 2, "size": 2})
    with pytest.raises(StructureError):
        operation_from_json({"arity": 2, "size": 2, "values": [0, 0, 0, 1], "x": 1})


def test_polymorphisms_are_power_homs(S):
    tables = polymorphisms(S, 2)
    homs = find_homs(power(S, 2), S)
    assert [t.values for t in tables] == homs
    assert len(tables) == 5
    with pytest.raises(StructureError):
        polymorphisms(S, 0)


def test_polymorphisms_nonconstant(S):
    nonconstant = [t for t in polymorphisms(S, 2) if len(set(t.values)) > 1]
    assert len(nonconstant) == 3
