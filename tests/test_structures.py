import itertools
import json
import math
import random

import pytest

from hmkit.structures import (
    Homomorphism,
    Relation,
    RelationalStructure,
    SignatureMismatch,
    SizeLimitExceeded,
    StructureError,
    connected_components,
    disjoint_union,
    find_isomorphism,
    induced_substructure,
    is_reflexive,
    load_structure,
    power,
    product,
    rank,
    structure_from_json,
    structure_to_json,
    two_element_semilattice,
)

from hmkit.homsearch import find_homs, hom_maps

from conftest import directed_cycles, image_structure, kernel, random_structure, relabel


def test_semilattice_structure_is_the_meet_graph(S):
    assert S.size == 2
    assert S.relations["R"].tuples == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)}
    assert S.labels == ("0", "1")
    assert is_reflexive(S)


def test_one_element_structure(point):
    assert point.size == 1
    assert point.relations["R"].tuples == {(0, 0, 0)}
    assert is_reflexive(point)


def test_validate_rejects_bad_tuples():
    def load(arity, tuples):
        return structure_from_json({"universe": ["a", "b"], "relations": {"R": {"arity": arity, "tuples": tuples}}})

    with pytest.raises(StructureError, match="arity mismatch"):
        load(3, [[0, 1]])
    with pytest.raises(StructureError, match="out of range"):
        load(3, [[0, 1, 5]])
    with pytest.raises(StructureError, match="arity must be a positive integer"):
        load(0, [])


def test_labels_default_to_ids(S):
    bare = RelationalStructure(2, {"R": Relation(3, frozenset())})
    assert bare.label(1) == "1"
    assert S.label(1) == "1"


def binary_projection(s):
    """All 2-coordinate projections of every relation, as a binary structure;
    a relation of arity below 2 has none and is refused."""
    rels = {}
    for sym in s.symbols():
        rel = s.relations[sym]
        if rel.arity < 2:
            raise StructureError(f"relation {sym} has arity {rel.arity} < 2; binary projection undefined")
        for i, j in itertools.combinations(range(rel.arity), 2):
            rels[f"{sym}{{{i + 1},{j + 1}}}"] = Relation(2, frozenset((t[i], t[j]) for t in rel.tuples))
    return RelationalStructure(s.size, rels, s.labels)


def test_binary_projection_symbols(S):
    """The projections that connected_components_reference joins along."""
    proj = binary_projection(S)
    assert proj.symbols() == ["R{1,2}", "R{1,3}", "R{2,3}"]
    # projecting the meet graph onto coordinates (1,3) gives the order relation
    assert proj.relations["R{1,3}"].tuples == {(0, 0), (1, 0), (1, 1)}


def test_binary_projection_rejects_unary():
    s = RelationalStructure(2, {"P": Relation(1, frozenset({(0,)}))})
    with pytest.raises(StructureError, match="arity 1 < 2; binary projection undefined"):
        connected_components(s)


def test_connected_components(S, point):
    u = disjoint_union([S, point, S])
    assert connected_components(u) == ((0, 1), (2,), (3, 4))
    assert connected_components(S) == ((0, 1),)


def connected_components_reference(s):
    """Union over binary-projection edges."""
    parent = list(range(s.size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    proj = binary_projection(s) if s.relations else s
    for rel in proj.relations.values():
        for a, b in rel.tuples:
            union(a, b)

    blocks: dict[int, list[int]] = {}
    for v in range(s.size):
        blocks.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(b)) for _, b in sorted(blocks.items()))


def test_connected_components_matches_reference():
    rng = random.Random(10)
    split = whole = 0
    for size in range(10):
        for _ in range(30):
            rels = {}
            # symbols in unsorted insertion order; some relations empty
            for sym in rng.sample("QPR", rng.randint(0, 2)):
                arity = rng.randint(2, 4)
                count = rng.randint(0, 2 * size) if size else 0
                tuples = frozenset(tuple(rng.randrange(size) for _ in range(arity)) for _ in range(count))
                rels[sym] = Relation(arity, tuples)
            s = RelationalStructure(size, rels)
            want = connected_components_reference(s)
            assert connected_components(s) == want
            split += len(want) > 1
            whole += len(want) == 1
    assert split > 100 and whole > 50

    unary = RelationalStructure(3, {"R": Relation(3, frozenset({(0, 1, 2)})), "P": Relation(1, frozenset({(0,)}))})
    with pytest.raises(StructureError, match="arity 1") as got_error:
        connected_components(unary)
    with pytest.raises(StructureError) as want_error:
        connected_components_reference(unary)
    assert str(got_error.value) == str(want_error.value)


def connected_components_bfs(s):
    """Blocks by breadth-first search: elements that share a tuple are
    neighbours; each block is found from its least element."""
    neighbours = [set() for _ in range(s.size)]
    for rel in s.relations.values():
        for t in rel.tuples:
            for v in t:
                neighbours[v].update(t)
    seen, blocks = [False] * s.size, []
    for v in range(s.size):
        if seen[v]:
            continue
        seen[v], block, queue = True, [], [v]
        while queue:
            a = queue.pop(0)
            block.append(a)
            for b in sorted(neighbours[a]):
                if not seen[b]:
                    seen[b] = True
                    queue.append(b)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


class CountingTuples(frozenset):
    """A tuple set that counts the tuples read from it."""

    read = 0

    def __iter__(self):
        for t in super().__iter__():
            self.read += 1
            yield t


def test_connected_components_match_bfs_and_stop_at_one_block(S, point):
    """Seeded one-block structures (relabeled powers of S, dense random
    structures) and many-block ones (shuffled unions, sparse random
    structures) get the BFS blocks in the BFS order; a structure that is one
    block before its last tuple is not read to the end."""
    rng = random.Random(61)
    one = many = 0
    for k in range(120):
        kind = k % 4
        if kind == 0:
            n = rng.randint(1, 6)
            s = relabel(power(S, n), rng.sample(range(2**n), 2**n))
        elif kind == 1:
            parts = [power(S, rng.randint(1, 3)) if rng.random() < 0.7 else point for _ in range(rng.randint(2, 4))]
            u = disjoint_union(parts)
            s = relabel(u, rng.sample(range(u.size), u.size))
        else:
            size = rng.randint(1, 12)
            density = 0.5 if kind == 2 else 0.02
            s = random_structure(rng, size, {sym: rng.randint(2, 4) for sym in rng.sample("QPR", rng.randint(1, 2))}, density)
        want = connected_components_bfs(s)
        assert connected_components(s) == want, s
        one += len(want) == 1
        many += len(want) > 1
    assert one >= 60 and many >= 40

    S5 = power(S, 5)
    tuples = CountingTuples(S5.relations["R"].tuples)
    assert connected_components(RelationalStructure(S5.size, {"R": Relation(3, tuples)})) == (tuple(range(32)),)
    assert 0 < tuples.read < len(tuples) // 4


def test_product_ranks_are_lexicographic(S):
    p = product([S, S])
    assert p.size == 4
    # (0,1) has rank 1, (1,0) has rank 2; the meet of the two is (0,0) at rank 0
    assert (1, 2, 0) in p.relations["R"].tuples
    assert p.labels == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    assert power(S, 2).relations == p.relations


def test_product_tuple_count(S):
    p = product([S, S])
    assert len(p.relations["R"].tuples) == 16


def product_reference(structures):
    """The direct product's relations, each tuple ranked position by position."""
    sizes = [s.size for s in structures]
    rels = {}
    for sym, rel in structures[0].relations.items():
        out = set()
        for combo in itertools.product(*(s.relations[sym].sorted_tuples() for s in structures)):
            out.add(tuple(rank([t[i] for t in combo], sizes) for i in range(rel.arity)))
        rels[sym] = Relation(rel.arity, frozenset(out))
    return rels


def test_product_matches_positionwise_ranks():
    rng = random.Random(7)
    empty = 0  # random_structure leaves a relation empty with probability 1/4
    for _ in range(150):
        factors = rng.randint(1, 4)
        signature = {sym: rng.randint(1, 3) for sym in rng.sample("EFR", rng.randint(1, 3))}
        max_size = 3 if factors < 3 else 2
        structures = [random_structure(rng, rng.randint(1, max_size), signature) for _ in range(factors)]
        p = product(structures)
        assert p.size == math.prod(s.size for s in structures)
        assert p.relations == product_reference(structures)
        empty += sum(not rel.tuples for rel in p.relations.values())
    assert empty > 0


def test_product_signature_mismatch(S):
    other = RelationalStructure(2, {"Q": Relation(3, frozenset())})
    with pytest.raises(SignatureMismatch):
        product([S, other])


def test_power_validates_exponent(S):
    with pytest.raises(StructureError):
        power(S, 0)


def test_size_limit(S):
    with pytest.raises(SizeLimitExceeded):
        power(S, 4, max_tuples=10)


def test_disjoint_union_offsets_and_labels(S, point):
    u = disjoint_union([S, point])
    assert u.size == 3
    assert (2, 2, 2) in u.relations["R"].tuples
    assert u.labels == ("0:0", "0:1", "1:0")


def test_induced_substructure(S):
    sub = induced_substructure(S, [1])
    assert sub.size == 1
    assert sub.relations["R"].tuples == {(0, 0, 0)}
    with pytest.raises(StructureError):
        induced_substructure(S, [5])


def test_homomorphism_validation(S):
    Homomorphism(S, S, (0, 1))
    with pytest.raises(StructureError, match="not a homomorphism"):
        Homomorphism(S, S, (1, 0))
    with pytest.raises(StructureError):
        Homomorphism(S, S, (0,))
    with pytest.raises(StructureError):
        Homomorphism(S, S, (0, 7))
    assert Homomorphism(S, S, (0, 0)).mapping[1] == 0


def test_structures_and_homomorphisms_are_hashable(S):
    r, e = Relation(3, frozenset({(0, 0, 0), (1, 1, 1)})), Relation(2, frozenset({(0, 1)}))
    a = RelationalStructure(2, {"R": r, "E": e})
    b = RelationalStructure(2, {"E": (2, [(0, 1)]), "R": (3, [(1, 1, 1), (0, 0, 0)])})
    assert list(a.relations) != list(b.relations)
    assert a == b and hash(a) == hash(b)
    assert len({S, structure_from_json(structure_to_json(S))}) == 1
    homs = find_homs(S, S)
    assert len(set(homs)) == len(homs) == 3


def test_image_and_kernel(S):
    const = Homomorphism(S, S, (0, 0))
    img = image_structure(const)
    assert img.size == 1
    assert img.relations["R"].tuples == {(0, 0, 0)}
    assert kernel(const) == ((0, 1),)
    assert kernel(Homomorphism(S, S, (0, 1))) == ((0,), (1,))


def test_find_isomorphism(S, point):
    flipped = RelationalStructure(
        2, {"R": Relation(3, frozenset({(1, 1, 1), (1, 0, 1), (0, 1, 1), (0, 0, 0)}))}
    )
    iso = find_isomorphism(S, flipped)
    assert iso is not None
    assert iso == (1, 0)
    assert find_isomorphism(S, point) is None


def test_find_isomorphism_needs_matching_tuple_counts(S):
    smaller = RelationalStructure(2, {"R": Relation(3, frozenset({(0, 0, 0), (1, 1, 1)}))})
    assert find_isomorphism(S, smaller) is None


def find_isomorphism_reference(a, b):
    """Recursive backtracking over injective maps in lexicographic order; the
    first whose tuples hold both ways is the isomorphism."""
    if a.signature() != b.signature() or a.size != b.size:
        return None
    for sym in a.symbols():
        if len(a.relations[sym].tuples) != len(b.relations[sym].tuples):
            return None
    occurrences = {v: [] for v in range(a.size)}
    for sym in a.symbols():
        for t in a.relations[sym].sorted_tuples():
            for v in set(t):
                occurrences[v].append((sym, t))
    mapping = [None] * a.size
    used = [False] * b.size

    def consistent(v):
        for sym, t in occurrences[v]:
            if all(mapping[w] is not None for w in t):
                if tuple(mapping[w] for w in t) not in b.relations[sym].tuples:
                    return False
        return True

    def extend(v):
        if v == a.size:
            inv = [0] * b.size
            for x, y in enumerate(mapping):
                inv[y] = x
            for sym in b.symbols():
                for t in b.relations[sym].tuples:
                    if tuple(inv[w] for w in t) not in a.relations[sym].tuples:
                        return None
            return tuple(mapping)
        for w in range(b.size):
            if used[w]:
                continue
            mapping[v], used[w] = w, True
            if consistent(v):
                found = extend(v + 1)
                if found is not None:
                    return found
            mapping[v], used[w] = None, False
        return None

    return extend(0)


def find_isomorphism_unpruned(a, b):
    """The search without incidence-profile domains: the first injective
    homomorphism, behind the size and tuple-count guards."""
    if a.signature() != b.signature() or a.size != b.size:
        return None
    for sym in a.symbols():
        if len(a.relations[sym].tuples) != len(b.relations[sym].tuples):
            return None
    return next(hom_maps(a, b, injective=True), None)


def incidence_profiles_reference(s):
    """Per element, tuples holding it at each position of each relation, counted one by one."""
    return [
        tuple(sum(t[i] == v for t in s.relations[sym].tuples) for sym in s.symbols() for i in range(s.relations[sym].arity))
        for v in range(s.size)
    ]


def moved_tuple_pairs(rng):
    """Seeded random structures, each against a relabelled copy and against
    that copy with one tuple of one relation moved: same size and tuple counts."""
    pairs = []
    for _ in range(60):
        signature = {sym: rng.randint(1, 3) for sym in rng.sample("EFR", rng.randint(1, 2))}
        a = random_structure(rng, rng.randint(0, 6), signature)
        perm = list(range(a.size))
        rng.shuffle(perm)
        b = relabel(a, perm)
        pairs.append((a, b))
        sym = rng.choice(sorted(signature))
        rel = b.relations[sym]
        absent = sorted(set(itertools.product(range(b.size), repeat=rel.arity)) - rel.tuples)
        if rel.tuples and absent:
            moved = (rel.tuples - {rng.choice(sorted(rel.tuples))}) | {rng.choice(absent)}
            pairs.append((a, RelationalStructure(b.size, {**b.relations, sym: Relation(rel.arity, moved)})))
    return pairs


def test_find_isomorphism_matches_reference(S):
    rng = random.Random(42)
    pairs = []
    for n in (1, 2, 3):
        perm = list(range(2**n))
        rng.shuffle(perm)
        pairs.append((power(S, n), relabel(power(S, n), perm)))
    pairs += moved_tuple_pairs(rng)
    isomorphic = 0
    for a, b in pairs:
        iso = find_isomorphism(a, b)
        want = find_isomorphism_reference(a, b)
        assert iso == want == find_isomorphism_unpruned(a, b)
        isomorphic += want is not None
    assert 60 < isomorphic < len(pairs)


def test_profile_pruning_keeps_the_unpruned_search_result(S):
    """Profile domains change no answer: the same map, or None, as the
    unpruned search, also where the profiles prune nothing."""
    rng = random.Random(24)
    pairs = []
    for n, copies in ((4, 3), (5, 2)):
        for _ in range(copies):
            perm = list(range(2**n))
            rng.shuffle(perm)
            pairs.append((power(S, n), relabel(power(S, n), perm)))
    six = directed_cycles(6)
    perm = list(range(6))
    rng.shuffle(perm)
    # every element of a directed cycle has one tuple at each position
    assert len(set(incidence_profiles_reference(six))) == 1
    pairs += [(six, directed_cycles(3, 3)), (six, relabel(six, perm))]
    empty = RelationalStructure(0, {"E": Relation(2, frozenset())})
    bare = RelationalStructure(3, {})
    pairs += [(empty, empty), (RelationalStructure(0, {}),) * 2, (bare, bare), (bare, RelationalStructure(2, {}))]
    found = [find_isomorphism(a, b) for a, b in pairs]
    assert found == [find_isomorphism_unpruned(a, b) for a, b in pairs]
    assert [iso is not None for iso in found] == [True] * 5 + [False, True, True, True, True, False]
    assert found[-4] == () and found[-2] == (0, 1, 2)


def test_profile_mismatch_runs_no_search(monkeypatch):
    import hmkit.homsearch as homsearch

    pairs = [
        (a, b)
        for a, b in moved_tuple_pairs(random.Random(42))
        if sorted(incidence_profiles_reference(a)) != sorted(incidence_profiles_reference(b))
    ]
    assert len(pairs) >= 10

    def refuse(*args, **kwargs):
        raise AssertionError("a profile mismatch ran the search")

    monkeypatch.setattr(homsearch, "hom_maps", refuse)
    assert all(find_isomorphism(a, b) is None for a, b in pairs)


def test_json_round_trip(S, tmp_path):
    doc = structure_to_json(S)
    again = structure_from_json(doc)
    assert again.relations == S.relations
    assert again.labels == S.labels

    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert load_structure(str(path)).relations == S.relations


def test_json_rejects_malformed():
    with pytest.raises(StructureError, match="unknown top-level"):
        structure_from_json({"universe": [], "extra": 1})
    with pytest.raises(StructureError, match="list of strings"):
        structure_from_json({"universe": [0, 1]})
    base = {"universe": ["a", "b"]}
    with pytest.raises(StructureError, match="duplicate"):
        structure_from_json(
            {**base, "relations": {"R": {"arity": 1, "tuples": [[0], [0]]}}}
        )
    with pytest.raises(StructureError, match="out of range"):
        structure_from_json(
            {**base, "relations": {"R": {"arity": 1, "tuples": [[9]]}}}
        )
    with pytest.raises(StructureError, match="arity"):
        structure_from_json(
            {**base, "relations": {"R": {"arity": 2, "tuples": [[0]]}}}
        )
    with pytest.raises(StructureError):
        structure_from_json([1, 2])


def structure_from_json_reference(data: dict) -> RelationalStructure:
    """Parse the structure file format; rejects unknown keys and malformed entries."""
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
        if type(arity) is not int or arity < 1:
            raise StructureError(f"relation {sym}: arity must be a positive integer")
        if not isinstance(tuples, list):
            raise StructureError(f"relation {sym}: 'tuples' must be a list")
        seen: set[tuple[int, ...]] = set()
        for raw in tuples:
            if not isinstance(raw, list) or not all(type(v) is int for v in raw):
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


def _corrupt(rng, tuples, size):
    """One seeded defect in a list of tuples, or none."""
    kind = rng.choice(["none", "none", "duplicate", "range", "negative", "length", "float", "bool", "not a list"])
    if kind == "none" or not tuples:
        return "none"
    i = rng.randrange(len(tuples))
    t = tuples[i]
    if kind == "duplicate":
        tuples.insert(rng.randrange(len(tuples) + 1), list(t))
    elif kind in ("range", "negative", "float", "bool"):
        j = rng.randrange(len(t))
        t[j] = {"range": size + rng.randrange(3), "negative": -1 - rng.randrange(3), "float": float(t[j]), "bool": True}[kind]
    elif kind == "length" and rng.random() < 0.5:
        t.append(0)
    elif kind == "length":
        t.pop()
    else:
        tuples[i] = rng.choice([tuple(t), "0", 0, None, {"0": 0}])
    return kind


def test_structure_from_json_matches_its_tuple_by_tuple_reference():
    rng = random.Random(20)
    kinds = set()
    for _ in range(3000):
        size = rng.randrange(0, 4)
        relations = {}
        for sym in rng.sample("RST", rng.randrange(0, 3)):
            arity = rng.randrange(1, 4)
            tuples = [[rng.randrange(size) for _ in range(arity)] for _ in range(rng.randrange(6))] if size else []
            tuples = [list(t) for t in dict.fromkeys(map(tuple, tuples))]
            kinds.add(_corrupt(rng, tuples, size))
            relations[sym] = {"arity": arity, "tuples": tuples}
        doc = {"universe": [str(i) for i in range(size)], "relations": relations}
        outcomes = []
        for parse in (structure_from_json, structure_from_json_reference):
            try:
                outcomes.append(parse(doc))
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], doc
    assert len(kinds) == 8
    # a JSON boolean is no integer, as an id or as an arity
    for relation, message in (
        ({"arity": 2, "tuples": [[True, 0]]}, r"relation R: tuple \[True, 0\] must be a list of integers"),
        ({"arity": True, "tuples": [[0]]}, "relation R: arity must be a positive integer"),
    ):
        doc = {"universe": ["0", "1"], "relations": {"R": relation}}
        for parse in (structure_from_json, structure_from_json_reference):
            with pytest.raises(StructureError, match=f"^{message}$"):
                parse(doc)


@pytest.mark.parametrize(
    "combine, message",
    [(product, "product of empty list"), (disjoint_union, "disjoint union of empty list")],
)
def test_combining_no_structures_is_refused(combine, message):
    with pytest.raises(StructureError, match=f"^{message}$"):
        combine([])
