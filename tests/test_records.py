"""Record semantics: the library's records compare, hash, normalise and
refuse bad input by value, and a term too deep to hash fails in Python."""

import os
import random
import subprocess
import sys

import pytest

from hmkit.freecons import ConsistentLabelingFound, FiniteAlgebra, hm_evidence
from hmkit.gadget import analyze_gadget_components
from hmkit.homsearch import OperationTable, find_homs
from hmkit.identlang import Application, Identity, SLLabeling, TermSystem, Variable, parse, saturate
from hmkit.semilat import decompose_product_hom, is_partial_semilattice
from hmkit.structures import (
    Homomorphism,
    Relation,
    RelationalStructure,
    SignatureMismatch,
    StructureError,
    disjoint_union,
    power,
)

from conftest import MAJORITY_SYSTEM, MALTSEV_SYSTEM, directed_cycles, random_structure


def assert_value_semantics(build, variants, hashable=True):
    """Two calls of build() give distinct, equal records with equal hashes
    (or, for a record holding a dict, none), and every variant is unequal."""
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    for v in variants:
        assert a != v and v != a and not a == v


def seeded_structures(n=60):
    rng = random.Random(31)
    return [random_structure(rng, rng.randint(1, 4), {"E": 2, "T": 3}) for _ in range(n)]


def test_structures_and_relations_compare_by_value(small_corpus):
    for s in small_corpus + seeded_structures():
        for sym, r in s.relations.items():
            flipped = r.tuples ^ {(0,) * r.arity}
            variants = [Relation(r.arity + 1, r.tuples), Relation(r.arity, flipped)]
            assert_value_semantics(lambda: Relation(r.arity, frozenset(r.tuples)), variants)
        rels = dict(s.relations)
        sym, r = next(iter(rels.items()))
        labels = tuple(f"v{i}" for i in range(s.size))
        variants = [
            RelationalStructure(s.size + 1, rels, s.labels),
            RelationalStructure(s.size, rels, None if s.labels else labels),
            RelationalStructure(s.size, {k: v for k, v in rels.items() if k != sym}, s.labels),
            RelationalStructure(s.size, rels | {sym: Relation(r.arity, r.tuples ^ {(0,) * r.arity})}, s.labels),
        ]
        assert_value_semantics(lambda: RelationalStructure(s.size, dict(rels), s.labels and list(s.labels)), variants)


def test_structure_hash_ignores_relation_order():
    for s in seeded_structures():
        turned = RelationalStructure(s.size, dict(reversed(s.relations.items())), s.labels)
        assert list(turned.relations) == list(reversed(list(s.relations)))
        assert turned == s and hash(turned) == hash(s)


def test_homomorphisms_compare_by_value(small_corpus, S, point, chain3):
    structures = small_corpus + seeded_structures(12)
    for src in structures:
        for tgt in structures:
            if src.signature() != tgt.signature():
                continue
            maps = find_homs(src, tgt, limit=4)
            for m in maps:
                variants = [Homomorphism(src, tgt, other) for other in maps if other != m]
                assert_value_semantics(lambda: Homomorphism(src, tgt, list(m)), variants)
    # one mapping tuple between other endpoints
    unlabeled = RelationalStructure(1, point.relations)
    variants = [Homomorphism(unlabeled, S, (0,)), Homomorphism(point, chain3, (0,))]
    assert_value_semantics(lambda: Homomorphism(point, S, (0,)), variants)


def test_operation_tables_compare_by_value():
    rng = random.Random(7)
    for _ in range(200):
        arity, size = rng.randint(0, 3), rng.randint(1, 3)
        values = [rng.randrange(size) for _ in range(size**arity)]
        variants = [OperationTable(arity, size + 1, values + [0] * ((size + 1) ** arity - len(values)))]
        if size > 1:
            variants.append(OperationTable(arity, size, [(values[0] + 1) % size] + values[1:]))
        if arity >= 2:
            variants.append(OperationTable(1, len(values), values))
        assert_value_semantics(lambda: OperationTable(arity, size, list(values)), variants)


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Variable(rng.choice("xyz"))
    symbol = rng.choice("fg")
    return Application(symbol, [random_term(rng, depth - 1) for _ in range(2 if symbol == "f" else 1)])


def test_terms_and_identities_compare_by_value():
    terms = [random_term(random.Random(seed), 4) for seed in range(150)]
    for seed, t in enumerate(terms):
        variants = [u for u in terms if str(u) != str(t)][:8]
        if isinstance(t, Application):
            variants += [Application("h", t.args), Application(t.symbol, t.args + (Variable("x"),))]
        else:
            variants.append(Variable(t.name + "'"))
        assert_value_semantics(lambda: random_term(random.Random(seed), 4), variants)
        rhs = terms[(seed + 1) % len(terms)]
        variants = [Identity(u, rhs) for u in variants] + [Identity(t, u) for u in terms[:8] if str(u) != str(rhs)]
        assert_value_semantics(lambda: Identity(random_term(random.Random(seed), 4), rhs), variants)


def test_systems_and_labelings_compare_by_value():
    for text in (MAJORITY_SYSTEM, MALTSEV_SYSTEM, "ops: f/2\nidempotent: f\nf(x,y) = f(y,x)\n"):
        s = saturate(parse(text))
        variants = [
            TermSystem(s.declarations | {"q": 1}, s.identities, s.idempotent),
            TermSystem(s.declarations, s.identities[:-1], s.idempotent),
            TermSystem(s.declarations, s.identities, s.idempotent | {"q"}),
        ]
        assert_value_semantics(lambda: saturate(parse(text)), variants, hashable=False)
    variants = [SLLabeling({"f": (1,), "g": (1,)}), SLLabeling({"f": (1, 2)})]
    assert_value_semantics(lambda: SLLabeling({"f": [2, 1], "g": (1,)}), variants, hashable=False)


def test_reports_compare_by_value(S, meet_algebra, bare_algebra):
    rng = random.Random(5)
    ternaries = [random_structure(rng, rng.randint(1, 4), {"R": 3}) for _ in range(40)]
    results = [is_partial_semilattice(t) for t in ternaries]
    for t, result in zip(ternaries, results):
        assert_value_semantics(lambda: is_partial_semilattice(t), [r for r in results if r != result][:5])
    maps = find_homs(power(S, 2), S)
    decompositions = [decompose_product_hom([S, S], S, m) for m in maps]
    for m, d in zip(maps, decompositions):
        assert_value_semantics(lambda: decompose_product_hom([S, S], S, m), [e for e in decompositions if e is not d])
    shapes = [power(S, 1), power(S, 2), disjoint_union([S, power(S, 2)])]
    analyses = [analyze_gadget_components(d) for d in shapes]
    for d, a in zip(shapes, analyses):
        assert_value_semantics(lambda: analyze_gadget_components(d), [b for b in analyses if b is not a])
    found = hm_evidence(meet_algebra)
    variants = [hm_evidence(bare_algebra), ConsistentLabelingFound(found.labeling, found.max_arity + 1)]
    assert_value_semantics(lambda: hm_evidence(meet_algebra), variants, hashable=False)


def test_records_normalise_on_construction(S):
    s = RelationalStructure(2, [("R", (3, [[0, 0, 0], [1, 1, 1]]))], ["a", "b"])
    assert type(s.relations) is dict and s.relations == {"R": Relation(3, frozenset({(0, 0, 0), (1, 1, 1)}))}
    assert s.labels == ("a", "b")
    table = OperationTable(1, 2, [1, 0])
    assert table.values == (1, 0)
    operations = {"n": table}
    a = FiniteAlgebra(2, operations, ["0", "1"])
    operations["m"] = table
    assert a.operations == {"n": table} and a.labels == ("0", "1")
    assert Homomorphism(S, S, [0, 1]).mapping == (0, 1)
    x, y = Variable("x"), Variable("y")
    assert Application("f", [x, y]).args == (x, y)
    system = TermSystem([("f", 2)], [Identity(Application("f", (x, x)), x)], {"f"})
    assert system.declarations == {"f": 2} and type(system.identities) is tuple and system.idempotent == frozenset({"f"})
    assert SLLabeling({"f": [2, 1]}).sigma == {"f": (1, 2)}


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda S: OperationTable(-1, 2, ()), StructureError, "arity must be >= 0, got -1"),
        (lambda S: OperationTable(2, 0, ()), StructureError, "size must be >= 1, got 0"),
        (lambda S: OperationTable(2, 2, (0, 1, 1)), StructureError, "table needs 4 values for arity 2, got 3"),
        (lambda S: OperationTable(1, 2, (0, 2)), StructureError, "table value 2 out of range for size 2"),
        (lambda S: OperationTable(1, 2, 5), TypeError, "'int' object is not iterable"),
        (lambda S: FiniteAlgebra(3, {"f": OperationTable(1, 2, (0, 1))}), StructureError, "operation f: size 2 != universe size 3"),
        (lambda S: FiniteAlgebra(3, {"f": OperationTable(1, 2, (0, 1))}, 7), TypeError, "'int' object is not iterable"),
        (lambda S: RelationalStructure(2, None), TypeError, "'NoneType' object is not iterable"),
        (lambda S: RelationalStructure(2, {"R": 5}), TypeError, "'int' object is not subscriptable"),
        (lambda S: RelationalStructure(2, {"R": (3, [5])}), TypeError, "'int' object is not iterable"),
        (lambda S: RelationalStructure(2, {}, 7), TypeError, "'int' object is not iterable"),
        (lambda S: Homomorphism(S, S, (1, 0)), StructureError, "not a homomorphism: R tuple (0, 1, 0) maps to (1, 0, 1)"),
        (lambda S: Homomorphism(S, S, (0,)), StructureError, "map has 1 entries for universe of size 2"),
        (lambda S: Homomorphism(S, S, (0, 7)), StructureError, "map value 7 not in target universe of size 2"),
        (lambda S: Homomorphism(S, directed_cycles(2), (0, 0)), SignatureMismatch, "endpoints have different signatures"),
        (lambda S: Homomorphism(S, S, 3), TypeError, "'int' object is not iterable"),
    ],
)
def test_construction_errors(S, build, error, message):
    with pytest.raises(error) as info:
        build(S)
    assert type(info.value) is error and str(info.value) == message


def test_hashing_a_too_deep_term_raises_recursion_error():
    """Terms hash in Python, so a chain too deep for the interpreter's stack
    raises RecursionError; hashed as nested tuples, in C, it would crash."""
    script = (
        "from hmkit.identlang import Application, Identity, Variable\n"
        "deep = Variable('x')\n"
        "for _ in range(200_000):\n"
        "    deep = Application('f', (deep,))\n"
        "try:\n"
        "    hash(Identity(deep, Variable('x')))\n"
        "except RecursionError:\n"
        "    print('RecursionError')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "RecursionError\n"), done.stderr
