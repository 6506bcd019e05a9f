import functools
import itertools
import json
import math
import operator
import random
import sys
from collections import Counter
from typing import Callable, Sequence

import pytest

from hmkit.freecons import (
    FAIL,
    PASS,
    CertifiedHM,
    CheckResult,
    ConsistentLabelingFound,
    FiniteAlgebra,
    FreeAlgebra,
    FreeBundle,
    IllDefinedOperation,
    LabelingRefutation,
    VerificationReport,
    algebra_from_json,
    apply_unary,
    build_bundle,
    bundle_summary,
    compute_H,
    default_evidence_arity,
    free_algebra,
    free_structure,
    hm_evidence,
    load_algebra,
    verify_certificate,
    verify_claims,
    verify_lemma22,
    variable_names,
    _batches,
    _close,
    _count_shaped_extensions,
    _is_constant_or_projection,
    _quotient_tables,
    _refute_window,
    _separating_translation,
    _shape_table,
)
from hmkit.homsearch import OperationTable, hom_maps, polymorphisms
from hmkit.identlang import (
    Application,
    Identity,
    SLLabeling,
    Term,
    Variable,
    all_labelings,
    holds_in,
    sigma_varset,
)
from hmkit.semilat import (
    DecompositionError,
    PartialSemilatticeWitness,
    decompose_product_hom,
    is_partial_semilattice,
    largest_element,
)
from hmkit.structures import (
    DEFAULT_MAX_TUPLES,
    Homomorphism,
    RelationalStructure,
    SizeLimitExceeded,
    StructureError,
    disjoint_union,
    find_isomorphism,
    induced_substructure,
    power,
    product,
    rank,
    two_element_semilattice,
)

from conftest import algebra_doc, image_structure, kernel, one_element_structure, report_lines


def closure_reference(seeds, algebras, max_elements):
    """Slow oracle for the closure engine: full rounds through OperationTable.apply,
    with algebras[c] acting at coordinate c.

    Every round re-evaluates every argument tuple over the elements known at
    its start, symbols in sorted order, so the ids and first derivations are
    fixed by the round structure alone.  Raises SizeLimitExceeded once more
    than max_elements elements are found.  Returns (elements, derivations).
    """
    elements, derivations, index = [], [], {}

    def intern(t, derivation):
        if t not in index:
            if len(elements) >= max_elements:
                raise SizeLimitExceeded(f"closure exceeded {max_elements} elements")
            index[t] = len(elements)
            elements.append(t)
            derivations.append(derivation)

    for j, seed in enumerate(seeds):
        intern(seed, ("var", j))
    while True:
        size_before = len(elements)
        for sym in algebras[0].symbols():
            tables = [alg.operations[sym] for alg in algebras]
            for args in itertools.product(range(size_before), repeat=tables[0].arity):
                value = tuple(
                    table.apply(*(elements[e][c] for e in args)) for c, table in enumerate(tables)
                )
                intern(value, (sym, args))
        if len(elements) == size_before:
            return elements, derivations


def free_algebra_reference(a, k, max_elements):
    """(elements, derivations, generators, table values) of the rank-k free algebra."""
    assignments = list(itertools.product(range(a.size), repeat=k))
    projections = [tuple(assign[j] for assign in assignments) for j in range(k)]
    elements, derivations = closure_reference(projections, [a] * len(assignments), max_elements)
    index = {t: i for i, t in enumerate(elements)}
    tables = {}
    for sym in a.symbols():
        table = a.operations[sym]
        tables[sym] = tuple(
            index[tuple(table.apply(*(elements[e][c] for e in args)) for c in range(len(assignments)))]
            for args in itertools.product(range(len(elements)), repeat=table.arity)
        )
    return tuple(elements), tuple(derivations), tuple(index[p] for p in projections), tables


# Slow oracle for the labeling fixpoint: every pick of every tuple, variable
# sets as frozensets, results through OperationTable.apply, and representatives
# built by recursion, so it needs derivations shallower than the recursion limit.
def refute_labeling_reference(
    labeling: SLLabeling, max_arity: int, free_at: Callable[[int], FreeAlgebra]
) -> LabelingRefutation | None:
    """Search free algebras of growing rank for an identity the labeling breaks.

    Every element tracks the variable sets achievable by its term
    representations under the labeling; two distinct sets on one element
    give a violated identity.  free_at(j) gives the rank-j free algebra.
    """
    for j in range(1, max_arity + 1):
        free = free_at(j)
        names = variable_names(j)
        rep = [None] * free.algebra.size

        def rep_term(e: int) -> Term:
            if rep[e] is None:
                d = free.derivations[e]
                if d[0] == "var":
                    rep[e] = Variable(names[d[1]])
                else:
                    rep[e] = Application(d[0], tuple(rep_term(arg) for arg in d[1]))
            return rep[e]

        varsets: list[dict[frozenset[str], Term]] = [dict() for _ in range(free.algebra.size)]
        for g, gid in enumerate(free.generators):
            varsets[gid][frozenset({names[g]})] = Variable(names[g])

        changed = True
        while changed:
            changed = False
            known = [e for e in range(free.algebra.size) if varsets[e]]
            for sym in free.algebra.symbols():
                table = free.algebra.operations[sym]
                coords = labeling.sigma[sym]
                for args in itertools.product(known, repeat=table.arity):
                    result = table.apply(*args)
                    labeled_sets = [sorted(varsets[args[i - 1]], key=sorted) for i in coords]
                    for pick in itertools.product(*labeled_sets):
                        union = frozenset().union(*pick)
                        if union in varsets[result]:
                            continue
                        terms = []
                        chosen = dict(zip(coords, pick))
                        for pos in range(1, table.arity + 1):
                            if pos in chosen:
                                terms.append(varsets[args[pos - 1]][chosen[pos]])
                            else:
                                terms.append(rep_term(args[pos - 1]))
                        varsets[result][union] = Application(sym, tuple(terms))
                        changed = True

        for e in range(free.algebra.size):
            if len(varsets[e]) >= 2:
                (vs1, t1), (vs2, t2) = sorted(varsets[e].items(), key=lambda kv: sorted(kv[0]))[:2]
                return LabelingRefutation(labeling, j, t1, t2, vs1, vs2)
    return None


# Oracle for the evidence search: the search as it was before the labelings
# of a window shared one closure per rank, with one pair closure per labeling
# and rank from `close_with_stop`, the closure engine with the stop hook it
# had then.  The code is that code, with new names and without its
# docstrings and comments.


def close_with_stop(seeds, algebras, max_elements, stop):
    elements, derivations, index = [], [], {}

    def add(t, derivation):
        if len(elements) >= max_elements:
            raise SizeLimitExceeded(f"closure exceeded {max_elements} elements")
        index[t] = len(elements)
        elements.append(t)
        derivations.append(derivation)
        return stop(t)

    for j, seed in enumerate(seeds):
        if seed not in index and add(seed, ("var", j)):
            return elements, derivations, index
    whole = math.prod(alg.size for alg in algebras)
    old = 0
    while old < len(elements) < whole:
        new = len(elements)
        for sym in algebras[0].symbols():
            tables = [alg.operations[sym] for alg in algebras]
            for prefix, first, batch in _batches(tables, elements, old, new):
                unseen = map(operator.not_, map(index.__contains__, batch))
                for i in itertools.compress(itertools.count(), unseen):
                    if add(batch[i], (sym, prefix + (first + i,) if tables[0].arity else ())):
                        return elements, derivations, index
                if len(elements) == whole:
                    return elements, derivations, index
        old = new
    return elements, derivations, index


@functools.cache
def union_table(arity, coords):
    picks = itertools.product((0, 1), repeat=arity)
    return OperationTable(arity, 2, tuple(int(any(p[i - 1] for i in coords)) for p in picks))


def derived_terms(derivations, names, ids):
    needed, stack = set(ids), list(ids)
    while stack:
        sym, arg = derivations[stack.pop()]
        if sym != "var":
            stack.extend(set(arg) - needed)
            needed.update(arg)
    terms = {}
    for e in sorted(needed):
        sym, arg = derivations[e]
        terms[e] = Variable(names[arg]) if sym == "var" else Application(sym, tuple(map(terms.__getitem__, arg)))
    return [terms[e] for e in ids]


def refute_labeling(a, labeling, max_arity, max_tuples):
    bits = FiniteAlgebra(2, {sym: union_table(t.arity, labeling.sigma[sym]) for sym, t in a.operations.items()})
    for j in range(2, max_arity + 1):
        names = variable_names(j)
        assignments = list(itertools.product(range(a.size), repeat=j))
        width = len(assignments)
        seeds = [tuple(assign[g] for assign in assignments) + tuple(int(h == g) for h in range(j)) for g in range(j)]
        first = {}

        def collides(t):
            return first.setdefault(t[:width], t) != t

        elements, derivations, index = close_with_stop(seeds, [a] * width + [bits] * j, max_tuples, collides)
        lhs, rhs = first[elements[-1][:width]], elements[-1]
        if lhs == rhs:
            continue
        lhs_term, rhs_term = derived_terms(derivations, names, (index[lhs], len(elements) - 1))
        lhs_varset, rhs_varset = (frozenset(n for n, b in zip(names, t[width:]) if b) for t in (lhs, rhs))
        return LabelingRefutation(labeling, j, lhs_term, rhs_term, lhs_varset, rhs_varset)
    return None


def hm_evidence_reference(a, max_arity=None, max_tuples=DEFAULT_MAX_TUPLES, refute=refute_labeling):
    if not a.is_idempotent():
        raise StructureError("evidence search requires an idempotent algebra")
    if a.size < 1:
        raise StructureError("empty universe")
    m = default_evidence_arity(a) if max_arity is None else max_arity
    if m < 1:
        raise StructureError(f"arity bound must be >= 1, got {m}")
    declarations = {sym: a.operations[sym].arity for sym in a.symbols()}
    refutations = []
    for labeling in all_labelings(declarations):
        refutation = refute(a, labeling, m, max_tuples)
        if refutation is None:
            return ConsistentLabelingFound(labeling, m)
        refutations.append(refutation)
    return CertifiedHM(m, tuple(refutations))


def evidence_outcome(search, *args):
    """The whole result of an evidence search as plain data: every
    refutation's labeling, arity, sides as text and variable sets, the
    survivor, or the type and message of the exception raised."""
    try:
        evidence = search(*args)
    except (StructureError, SizeLimitExceeded) as exc:
        return "raised", type(exc), str(exc)
    if isinstance(evidence, ConsistentLabelingFound):
        return "survivor", evidence.labeling, evidence.max_arity
    return "certified", evidence.max_arity, [
        (r.labeling, r.arity, str(r.lhs), str(r.rhs), r.lhs_varset, r.rhs_varset) for r in evidence.refutations
    ]


def random_algebra(rng, size):
    """One or two operations of arity 0-3 with uniformly drawn tables."""
    operations = {}
    for sym in "fg"[: rng.randint(1, 2)]:
        arity = rng.randint(0, 3)
        operations[sym] = OperationTable(
            arity, size, tuple(rng.randrange(size) for _ in range(size**arity))
        )
    return FiniteAlgebra(size, operations)


def outcome(build):
    try:
        return build()
    except SizeLimitExceeded:
        return "size limit"


def test_finite_algebra_validates_sizes(meet_table):
    with pytest.raises(StructureError):
        FiniteAlgebra(3, {"meet": meet_table})
    a = FiniteAlgebra(2, {"meet": meet_table})
    assert a.symbols() == ["meet"]
    assert a.is_idempotent()


def test_algebra_json_round_trip(meet_algebra, tmp_path):
    doc = algebra_doc(meet_algebra)
    again = algebra_from_json(doc)
    assert again.size == 2 and again.operations == meet_algebra.operations

    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    assert load_algebra(str(path)).operations == meet_algebra.operations

    with pytest.raises(StructureError, match="unknown"):
        algebra_from_json({**doc, "extra": 1})
    with pytest.raises(StructureError, match="universe size"):
        algebra_from_json({"universe": ["a"], "operations": doc["operations"]})


def test_free_algebra_on_meet(meet_algebra):
    fa = free_algebra(meet_algebra, 2)
    assert fa.algebra.size == 3
    assert fa.algebra.labels == ("x", "y", "meet(x,y)")
    assert fa.generators == (0, 1)
    assert fa.elements[2] == (0, 0, 0, 1)
    assert fa.algebra.operations["meet"].is_idempotent()


def test_free_algebra_rank_one_is_unary_terms(meet_algebra, lattice_algebra):
    assert free_algebra(meet_algebra, 1).algebra.size == 1
    assert free_algebra(lattice_algebra, 1).algebra.size == 1


def test_free_algebra_majority_matches_clone_oracle(majority_algebra):
    """The rank-3 free algebra is the set of monotone self-dual operations."""
    fa = free_algebra(majority_algebra, 3)
    points = list(itertools.product((0, 1), repeat=3))

    def monotone(t):
        return all(
            t[i] <= t[j]
            for i, p in enumerate(points)
            for j, q in enumerate(points)
            if all(a <= b for a, b in zip(p, q))
        )

    def self_dual(t):
        index = {p: i for i, p in enumerate(points)}
        return all(
            t[i] == 1 - t[index[tuple(1 - a for a in p)]] for i, p in enumerate(points)
        )

    oracle = {
        t for t in itertools.product((0, 1), repeat=8) if monotone(t) and self_dual(t)
    }
    assert set(fa.elements) == oracle
    assert fa.algebra.size == 4


def test_free_algebra_evaluates_constants_in_the_first_round(meet_table):
    a = FiniteAlgebra(2, {"c": OperationTable(0, 2, (1,)), "meet": meet_table})
    fa = free_algebra(a, 1)
    assert fa.elements == ((0, 1), (1, 1))
    assert fa.derivations == (("var", 0), ("c", ()))
    assert fa.algebra.labels == ("x", "c()")


def test_free_algebra_bound_counts_elements_found():
    chain = FiniteAlgebra(3, {"meet": OperationTable(2, 3, tuple(min(x, y) for x in range(3) for y in range(3)))})
    fa = free_algebra(chain, 3)
    assert fa.algebra.size == 7
    assert fa.algebra.labels[-1] == "meet(x,meet(y,z))"
    with pytest.raises(SizeLimitExceeded):
        free_algebra(chain, 3, max_tuples=5)
    assert free_algebra(chain, 3, max_tuples=7).elements == fa.elements


def agree_on_free_algebra(a, k, bound):
    """free_algebra and the reference agree; returns whether the bound was hit."""
    expected = outcome(lambda: free_algebra_reference(a, k, bound))

    def engine():
        fa = free_algebra(a, k, bound)
        tables = {sym: t.values for sym, t in fa.algebra.operations.items()}
        return fa.elements, fa.derivations, fa.generators, tables

    assert outcome(engine) == expected
    return expected == "size limit"


def agree_on_free_structure(a, bound):
    """free_structure's triples and unary term operations agree with the
    reference closures; returns whether the bound was hit."""

    def reference():
        elements, _, (x, y), tables = free_algebra_reference(a, 2, bound)
        n = len(elements)
        free = FiniteAlgebra(
            n, {sym: OperationTable(a.operations[sym].arity, n, v) for sym, v in tables.items()}
        )
        seeds = [(x, x, x), (x, y, x), (y, x, x), (y, y, y)]
        triples = closure_reference(seeds, [free] * 3, bound)[0]
        unary = closure_reference([tuple(range(a.size))], [a] * a.size, bound)[0]
        return frozenset(triples), tuple(unary)

    def engine():
        bundle = free_structure(a, bound)
        return bundle.structure.relations["R"].tuples, bundle.unary_ops

    expected = outcome(reference)
    assert outcome(engine) == expected
    return expected == "size limit"


def test_free_algebra_matches_closure_reference():
    """Seeded draws: sizes 1-3, ranks 1-3 (1-2 at size 3), arities 0-3."""
    rng = random.Random(31)
    hit = []
    for _ in range(60):
        size = rng.randint(1, 3)
        k = rng.randint(1, 2 if size == 3 else 3)
        hit.append(agree_on_free_algebra(random_algebra(rng, size), k, 20))
    assert any(hit) and not all(hit)


def test_free_structure_matches_closure_reference():
    """Seeded draws: sizes 1-3, arities 0-3; triples and unary term operations."""
    rng = random.Random(32)
    hit = [agree_on_free_structure(random_algebra(rng, rng.randint(1, 3)), 20) for _ in range(30)]
    assert any(hit) and not all(hit)


def test_larger_closures_match_closure_reference():
    """Seeded idempotent binary algebras on 2-3 elements under a larger bound."""
    rng = random.Random(33)
    hit = []
    for _ in range(12):
        size = rng.randint(2, 3)
        values = [rng.randrange(size) for _ in range(size * size)]
        for b in range(size):
            values[b * size + b] = b
        a = FiniteAlgebra(size, {"f": OperationTable(2, size, tuple(values))})
        hit.append(agree_on_free_algebra(a, 2, 120))
        hit.append(agree_on_free_structure(a, 120))
    assert any(hit) and not all(hit)


def whole_power_draws():
    """Seeded idempotent 2-element algebras with one or two ternary operations."""
    rng = random.Random(41)
    return [
        FiniteAlgebra(2, {sym: idempotent_table(rng, 2, 3) for sym in "fg"[: rng.randint(1, 2)]})
        for _ in range(12)
    ]


def test_closures_that_fill_the_power_match_closure_reference():
    filled = []
    for a in whole_power_draws():
        bundle = free_structure(a)
        free = bundle.free
        elements, derivations, (x, y), tables = free_algebra_reference(a, 2, 64)
        assert (free.elements, free.derivations) == (elements, derivations)
        assert {sym: t.values for sym, t in free.algebra.operations.items()} == tables
        seeds = [(x, x, x), (x, y, x), (y, x, x), (y, y, y)]
        triples, triple_derivations = closure_reference(seeds, [free.algebra] * 3, 64)
        assert _close(seeds, [free.algebra] * 3, 64)[:2] == (triples, triple_derivations)
        assert bundle.structure.relations["R"].tuples == frozenset(triples)
        assert bundle.unary_ops == tuple(closure_reference([(0, 1)], [a] * 2, 64)[0])
        filled.append(len(triples) == free.algebra.size**3)
    assert any(filled) and not all(filled)


def test_closure_with_stop_is_the_prefix_ending_at_the_first_stop():
    # one algebra per coordinate: a draw at the four assignments of x, y and
    # another table of the same signature at two more coordinates
    rng = random.Random(42)
    seeds = [(0, 0, 1, 1, 0, 1), (0, 1, 0, 1, 1, 0)]
    for a in whole_power_draws():
        b = FiniteAlgebra(
            2, {sym: OperationTable(t.arity, 2, tuple(rng.randrange(2) for _ in t.values)) for sym, t in a.operations.items()}
        )
        algebras = [a] * 4 + [b] * 2
        elements, derivations = closure_reference(seeds, algebras, 64)
        assert _close(seeds, algebras, 64)[:2] == (elements, derivations)
        # the stop hook of the evidence oracle: k = 0 and 1 stop at a seed,
        # and each prefix fits a bound of its own size
        for k, t in enumerate(elements):
            prefix = elements[: k + 1]
            index = {u: i for i, u in enumerate(prefix)}
            assert close_with_stop(seeds, algebras, k + 1, lambda u, t=t: u == t) == (prefix, derivations[: k + 1], index)


def test_closure_that_fills_the_power_skips_its_closing_round(monkeypatch):
    import hmkit.freecons as freecons

    bundles = [free_structure(a) for a in whole_power_draws()]
    bundle = next(
        b for b in bundles if len(b.free.base.operations) == 1 and len(b.structure.relations["R"].tuples) == 64
    )
    a = bundle.free.base
    assert bundle.free.algebra.size == 4
    batches = freecons._batches
    yields = 0

    def counting(*args):
        nonlocal yields
        for batch in batches(*args):
            yields += 1
            yield batch

    monkeypatch.setattr(freecons, "_batches", counting)
    assert free_structure(a).structure == bundle.structure
    # full rounds end with a round over all 64 triples, whose argument
    # prefixes alone number 64 ** 2 for the one ternary operation
    assert yields < 64**2 // 8
    assert free_structure(a, 64).structure == bundle.structure
    with pytest.raises(SizeLimitExceeded):
        free_structure(a, 63)


def batches_reference(tables, elements, old, new):
    """_batches by OperationTable.apply, one argument tuple at a time in
    lexicographic order, grouped by the prefix before the last argument."""
    m = tables[0].arity
    if m == 0:
        return [((), 0, [tuple(t.apply() for t in tables)])] if old == 0 else []
    out = []
    for prefix in itertools.product(range(new), repeat=m - 1):
        lasts = [e for e in range(new) if max(prefix + (e,)) >= old]
        batch = [
            tuple(t.apply(*(elements[arg][c] for arg in prefix + (e,))) for c, t in enumerate(tables)) for e in lasts
        ]
        out.append((prefix, lasts[0] if lasts else old, batch))
    return out


def test_batches_match_reference():
    """Seeded tables of arities 0-4 at coordinates of sizes 3 and 2 side by
    side, as the evidence closure mixes algebra and bit coordinates."""
    rng = random.Random(43)
    for m in range(5):
        for _ in range(6):
            sizes = [3, 2] + [rng.choice((2, 3)) for _ in range(rng.randint(0, 3))]
            rng.shuffle(sizes)
            tables = [OperationTable(m, n, tuple(rng.randrange(n) for _ in range(n**m))) for n in sizes]
            new = rng.randint(1, (9, 9, 9, 6, 4)[m])
            elements = [tuple(rng.randrange(n) for n in sizes) for _ in range(new)]
            for old in sorted({0, 1, new // 2, new}):
                assert list(_batches(tables, elements, old, new)) == batches_reference(tables, elements, old, new)


def test_free_structure_semilattice_triples(meet_algebra):
    bundle = free_structure(meet_algebra)
    x, y = bundle.x, bundle.y
    m = 3 - x - y  # the third element
    expected = {
        (x, x, x), (x, y, x), (y, x, x), (y, y, y),
        (x, m, x), (m, x, x), (m, m, m), (m, m, x), (m, y, m), (y, m, m),
    }
    assert bundle.structure.relations["R"].tuples == expected
    assert len(bundle.unary_ops) == 1
    assert bundle.component_of == (0, 0, 0)


def test_free_structure_lattice(lattice_algebra):
    bundle = free_structure(lattice_algebra)
    assert bundle.free.algebra.size == 4
    assert len(bundle.unary_ops) == 1
    names = {bundle.element_name(e) for e in range(4)}
    assert names == {"x", "y", "meet(x,y)", "join(x,y)"}


def test_compute_H_and_collapse(meet_algebra):
    bundle = build_bundle(meet_algebra)
    comp = bundle.components[0]
    assert len(comp.homs) == 1
    assert comp.homs[0] == (0, 1, 0)
    assert bundle.K.size == 2
    assert bundle.quotient_map == (0, 1, 0)
    assert find_isomorphism(bundle.K, two_element_semilattice()) is not None
    assert _quotient_tables(bundle.free.algebra, bundle.quotient_map)["meet"].values == (0, 0, 0, 1)


def test_collapse_lattice_to_point(lattice_algebra):
    bundle = build_bundle(lattice_algebra)
    assert bundle.components[0].homs == ()
    assert bundle.K.size == 1
    assert all(not c.homs for c in bundle.components)


def test_apply_unary_and_generator_image(meet_algebra):
    bundle = build_bundle(meet_algebra)
    assert apply_unary(bundle, 0, bundle.x) == bundle.x
    assert bundle.generator_image(0, bundle.x) == bundle.quotient_map[bundle.x]


def test_bundle_summary_kernel(meet_algebra):
    bundle = build_bundle(meet_algebra)
    summary = bundle_summary(bundle)
    assert summary["free_size"] == 3
    assert summary["relation_size"] == 10
    assert summary["kernel"] == [["meet(x,y)", "x"], ["y"]]


def test_verify_lemma22_semilattice(meet_algebra):
    report = verify_lemma22(build_bundle(meet_algebra))
    assert report.passed
    assert [r.status for r in report.results] == ["pass"] * 6


def test_verify_lemma22_lattice_flags_item3(lattice_algebra):
    report = verify_lemma22(build_bundle(lattice_algebra))
    assert report.passed
    statuses = {r.name: r.status for r in report.results}
    assert statuses["item 3 (retract)"] == "hypothesis absent"
    for name, status in statuses.items():
        if name != "item 3 (retract)":
            assert status == "pass"


def test_verify_claims(meet_algebra, lattice_algebra, bare_algebra):
    for algebra in (meet_algebra, lattice_algebra, bare_algebra):
        report = verify_claims(build_bundle(algebra), 2)
        assert report.passed, report_lines(report)


def test_quotient_tables_reject_non_congruence(meet_algebra):
    fa = free_algebra(meet_algebra, 2)
    with pytest.raises(IllDefinedOperation):
        _quotient_tables(fa.algebra, (0, 0, 1))
    tables = _quotient_tables(fa.algebra, (0, 1, 1))
    assert tables["meet"].values == (0, 1, 1, 1)


def test_free_structure_rejects_empty_algebra():
    with pytest.raises(StructureError):
        free_structure(FiniteAlgebra(0, {}))


def test_default_evidence_arity(meet_algebra, majority_algebra, bare_algebra):
    assert default_evidence_arity(meet_algebra) == 2
    assert default_evidence_arity(majority_algebra) == 3
    assert default_evidence_arity(bare_algebra) == 2


def test_hm_evidence_majority(majority_algebra):
    evidence = hm_evidence(majority_algebra)
    assert isinstance(evidence, CertifiedHM)
    assert evidence.max_arity == 3
    assert len(evidence.refutations) == 7
    assert verify_certificate(majority_algebra, evidence)
    for r in evidence.refutations:
        assert isinstance(r, LabelingRefutation)
        # each refuting identity is valid in the algebra yet changes varsets
        assert holds_in(majority_algebra, Identity(r.lhs, r.rhs), majority_algebra.operations)
        assert sigma_varset(r.lhs, r.labeling) != sigma_varset(r.rhs, r.labeling)


def test_hm_evidence_builds_each_rank_once_and_only_when_reached(majority_algebra, monkeypatch):
    import hmkit.freecons as freecons

    rounds = freecons._rounds
    widths = []

    def counting(elements, algebras):
        widths.append(len(algebras))
        return rounds(elements, algebras)

    def no_free_algebra(*args):
        raise AssertionError("evidence built a free algebra")

    monkeypatch.setattr(freecons, "_rounds", counting)
    monkeypatch.setattr(freecons, "free_algebra", no_free_algebra)
    monkeypatch.setattr(freecons, "_close", no_free_algebra)
    # F_2 = {x, y}, so each labeling is refuted in the first round of its
    # rank-2 closure with 2 elements; its windows of 1, 2 and 4 labelings close
    # rank 2 once each (4 assignments), and rank 3 is never closed
    evidence = hm_evidence(majority_algebra, max_tuples=3)
    assert isinstance(evidence, CertifiedHM) and len(evidence.refutations) == 7
    assert widths == [2**2] * 3
    # a collision with max_tuples elements present would be the third pair
    with pytest.raises(SizeLimitExceeded, match="closure exceeded 2 elements"):
        hm_evidence(majority_algebra, max_tuples=2)


def test_hm_evidence_semilattice_survivor(meet_algebra):
    evidence = hm_evidence(meet_algebra)
    assert isinstance(evidence, ConsistentLabelingFound)
    assert evidence.labeling.sigma == {"meet": (1, 2)}
    assert evidence.max_arity == 2


def test_hm_evidence_bare_algebra_survives(bare_algebra):
    evidence = hm_evidence(bare_algebra)
    assert isinstance(evidence, ConsistentLabelingFound)
    assert evidence.labeling.sigma == {}


def test_hm_evidence_trivial_algebra_certifies():
    one = FiniteAlgebra(1, {})
    evidence = hm_evidence(one)
    assert isinstance(evidence, CertifiedHM)
    assert verify_certificate(one, evidence)
    # the two seed pairs already share their term operation
    (r,) = evidence.refutations
    assert (r.arity, r.lhs, r.rhs) == (2, Variable("x"), Variable("y"))


def test_hm_evidence_rejects_non_idempotent():
    const = FiniteAlgebra(2, {"c": OperationTable(1, 2, (0, 0))})
    with pytest.raises(StructureError, match="idempotent"):
        hm_evidence(const)
    with pytest.raises(StructureError, match="arity bound"):
        hm_evidence(FiniteAlgebra(2, {}), max_arity=0)
    with pytest.raises(StructureError, match="empty universe"):
        hm_evidence(FiniteAlgebra(0, {}))


def test_verify_certificate_rejects_tampering(majority_algebra):
    evidence = hm_evidence(majority_algebra)
    r = evidence.refutations[0]
    swapped = LabelingRefutation(
        r.labeling, r.arity, r.lhs, r.rhs, r.rhs_varset, r.lhs_varset
    )
    broken = CertifiedHM(evidence.max_arity, (swapped,) + evidence.refutations[1:])
    assert not verify_certificate(majority_algebra, broken)
    missing = CertifiedHM(evidence.max_arity, evidence.refutations[1:])
    assert not verify_certificate(majority_algebra, missing)


def test_verify_certificate_checks_the_sets_of_a_replayed_identity(majority_algebra):
    evidence = hm_evidence(majority_algebra)
    # m->{1,2,3} and m->{1,3} are refuted by one identity, x = m(x,x,y); the
    # second refutation's sets are checked on their own
    refutations = list(evidence.refutations)
    first, second = refutations[2], refutations[3]
    assert (first.labeling.sigma, second.labeling.sigma) == ({"m": (1, 2, 3)}, {"m": (1, 3)})
    assert (str(first.lhs), str(first.rhs)) == (str(second.lhs), str(second.rhs))
    refutations[3] = LabelingRefutation(
        second.labeling, second.arity, second.lhs, second.rhs, second.lhs_varset, frozenset("y")
    )
    assert verify_certificate(majority_algebra, evidence)
    assert not verify_certificate(majority_algebra, CertifiedHM(evidence.max_arity, tuple(refutations)))


def test_verify_certificate_replays_identities_that_print_alike(majority_algebra):
    """A refutation whose identity prints as an earlier valid one, but is
    made of other terms, is replayed on its own: a binary m at a variable
    named "x,x" prints as the ternary m(x,x,y), and so does a variable named
    "m(x,x,y)"."""
    evidence = hm_evidence(majority_algebra)
    refutations = list(evidence.refutations)
    valid, later = refutations[2], refutations[4]  # x = m(x,x,y) refutes m->{1,2,3}; then comes m->{2}
    x, y = Variable("x"), Variable("y")
    binary = Application("m", (Variable("x,x"), y))
    named = Variable("m(x,x,y)")
    assert str(binary) == str(named) == str(valid.rhs) and str(valid.lhs) == "x"
    # each alias carries its own labeled sets under m->{2}, so only its replay tells it apart
    refutations[4] = LabelingRefutation(later.labeling, later.arity, x, named, frozenset("x"), frozenset({"m(x,x,y)"}))
    assert not verify_certificate(majority_algebra, CertifiedHM(evidence.max_arity, tuple(refutations)))
    refutations[4] = LabelingRefutation(later.labeling, later.arity, x, binary, frozenset("x"), frozenset("y"))
    assert not verify_certificate(majority_algebra, CertifiedHM(evidence.max_arity, tuple(refutations)))
    # a symbol the algebra lacks is refused as well, not looked up
    unknown = Application("j", (x, x, y))
    refutations[4] = LabelingRefutation(later.labeling, later.arity, x, unknown, frozenset("x"), frozenset("y"))
    assert not verify_certificate(majority_algebra, CertifiedHM(evidence.max_arity, tuple(refutations)))


def test_verify_certificate_replays_deep_terms_without_recursion(majority_algebra):
    # m(t,x,x) = x for every t, and m->{1} reaches only the innermost y
    evidence = hm_evidence(majority_algebra)
    x, y = Variable("x"), Variable("y")
    deep = y
    for _ in range(3000):
        deep = Application("m", (deep, x, x))
    first = evidence.refutations[0]
    assert first.labeling.sigma == {"m": (1,)}
    refutations = (LabelingRefutation(first.labeling, 2, deep, x, frozenset("y"), frozenset("x")),) + evidence.refutations[1:]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert verify_certificate(majority_algebra, CertifiedHM(evidence.max_arity, refutations))
    finally:
        sys.setrecursionlimit(limit)


def idempotent_table(rng, size, arity):
    """A uniformly drawn table with a(a, ..., a) = a."""
    values = [rng.randrange(size) for _ in range(size**arity)]
    for a in range(size):
        values[sum(a * size**i for i in range(arity))] = a
    return OperationTable(arity, size, tuple(values))


def test_refute_labeling_matches_reference(majority_algebra, meet_algebra, lattice_algebra, bare_algebra):
    rng = random.Random(61)
    draws = [
        FiniteAlgebra(2, {sym: idempotent_table(rng, 2, rng.randint(2, 3)) for sym in "fg"[: rng.randint(1, 2)]})
        for _ in range(60)
    ]
    draws += [FiniteAlgebra(3, {"f": idempotent_table(rng, 3, 2)}) for _ in range(15)]
    algebras = [majority_algebra, meet_algebra, lattice_algebra, bare_algebra] + draws
    free_ats = {id(a): functools.cache(lambda j, a=a: free_algebra(a, j)) for a in algebras}
    refuted = 0
    for a in algebras:
        max_arity = default_evidence_arity(a)
        for labeling in all_labelings({sym: a.operations[sym].arity for sym in a.symbols()}):
            got = refute_labeling(a, labeling, max_arity, 10**6)
            want = refute_labeling_reference(labeling, max_arity, free_ats[id(a)])
            # refuted or not, and at which rank; the identities may differ
            assert (got is None, getattr(got, "arity", None)) == (want is None, getattr(want, "arity", None))
            if got is not None:
                assert holds_in(a, Identity(got.lhs, got.rhs), a.operations)
                lhs, rhs = sigma_varset(got.lhs, labeling), sigma_varset(got.rhs, labeling)
                assert (got.lhs_varset, got.rhs_varset) == (lhs, rhs) and lhs != rhs
                refuted += 1
    assert refuted > 100

    def verdict(evidence):
        if isinstance(evidence, ConsistentLabelingFound):
            return evidence
        return evidence.max_arity, [(r.labeling, r.arity) for r in evidence.refutations]

    evidence = [hm_evidence(a) for a in algebras]
    assert all(verify_certificate(a, e) for a, e in zip(algebras, evidence) if isinstance(e, CertifiedHM))

    def reference(a, labeling, max_arity, max_tuples):
        return refute_labeling_reference(labeling, max_arity, free_ats[id(a)])

    assert list(map(verdict, evidence)) == [verdict(hm_evidence_reference(a, refute=reference)) for a in algebras]


def test_hm_evidence_matches_the_search_one_labeling_at_a_time():
    # 1-3 elements, 0-3 idempotent operations of arity 1-3, arity bounds
    # 1-4, and max_tuples small enough for refusals or large enough to close
    rng = random.Random(26)
    kinds = Counter()
    for _ in range(500):
        size = rng.randint(1, 3)
        a = FiniteAlgebra(size, {f"f{i}": idempotent_table(rng, size, rng.randint(1, 3)) for i in range(rng.randint(0, 3))})
        args = (a, rng.randint(1, 4), rng.choice([rng.randint(1, 60), 3000]))
        got = evidence_outcome(hm_evidence, *args)
        assert got == evidence_outcome(hm_evidence_reference, *args)
        kinds[got[0]] += 1
        kinds["survived a closure of rank 3 or above"] += got[0] == "survivor" and got[2] >= 3
    assert kinds["raised"] > 30 and kinds["certified"] > 100 and kinds["survivor"] > 100
    assert kinds["survived a closure of rank 3 or above"] > 50


def test_hm_evidence_matches_the_reference_on_many_labelings():
    # five majority symbols: 16,807 labelings in windows of up to 8,192
    majority = OperationTable(3, 2, (0, 0, 0, 1, 0, 1, 1, 1))
    a = FiniteAlgebra(2, {f"m{i}": majority for i in range(5)})
    got = evidence_outcome(hm_evidence, a)
    assert len(got[2]) == 7**5
    assert got == evidence_outcome(hm_evidence_reference, a)


def test_refute_labeling_builds_deep_representatives_without_recursion(monkeypatch):
    import hmkit.freecons as freecons

    # Hand-built rounds of the term closure at rank 2 over a 2-element
    # algebra (the search reads only the batches and the seeds): element
    # e >= 2 is (e,), derived as f(e - 1, x), so the last of them nests
    # `depth` applications of f around y.  Under f -> {1} each of them has
    # the set {y}, and the final tuple f(y, deep) has the value of x, whose
    # set is {x}.
    depth = 3000
    n = depth + 2

    def hand_built(elements, algebras):
        for e in range(2, n):
            yield "f", 2, [((e - 1,), 0, [(e,)])]
        yield "f", 2, [((1,), n - 1, [elements[0]])]

    monkeypatch.setattr(freecons, "_rounds", hand_built)
    two = FiniteAlgebra(2, {"f": OperationTable(2, 2, (0, 0, 1, 1))})
    outcomes = [None]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        _refute_window(two, [SLLabeling({"f": (1,)})], 2, n + 1, outcomes)
    finally:
        sys.setrecursionlimit(limit)
    (r,) = outcomes
    assert (r.arity, r.lhs) == (2, Variable("x"))
    assert (r.lhs_varset, r.rhs_varset) == (frozenset("x"), frozenset("y"))
    assert r.rhs.symbol == "f" and r.rhs.args[0] == Variable("y")
    t, nested = r.rhs.args[1], 0
    while isinstance(t, Application):
        assert t.symbol == "f" and t.args[1] == Variable("x")
        t, nested = t.args[0], nested + 1
    assert (t, nested) == (Variable("y"), depth)


# --- claims verifier oracles -------------------------------------------------
#
# The claims verifier as it was before claim 4 was counted bit by bit: every
# shaped piece is enumerated on the whole product of powers, and collapsed
# elements are decoded by shifting their rank.  The functions below are
# copied verbatim apart from their names and from `collapsed_substructure`,
# which rebuilds each collapsed component from K; they read the bundle
# fields `psi`, `union_structure`, `offsets` and `image` and the methods
# `rank_of_kid` and `coords_of_kid`, which ReferenceBundle rebuilds as
# collapse once built them, and `upper_indices`, kept there since nothing
# in the library reads it.  One change in behaviour is known: where a
# restriction spans components, the reference stops the combination loop
# before claim 4, so claim 4 passes.


class ReferenceBundle(FreeBundle):
    """A collapsed bundle with the fields and methods the reference reads."""

    psi: Homomorphism | None = None  # free structure -> union_structure
    union_structure: RelationalStructure | None = None  # the union of the components' powers of S
    offsets: tuple[int, ...] | None = None
    image: tuple[int, ...] | None = None  # sorted union ids in the image

    def rank_of_kid(self, kid: int) -> tuple[int, int]:
        """(component index, coordinate rank) of a collapsed element."""
        assert self.image is not None and self.offsets is not None
        gid = self.image[kid]
        for u in range(len(self.offsets)):
            upper = self.offsets[u + 1] if u + 1 < len(self.offsets) else self.union_structure.size
            if self.offsets[u] <= gid < upper:
                return u, gid - self.offsets[u]
        raise StructureError(f"collapsed id {kid} outside all components")

    def coords_of_kid(self, kid: int) -> tuple[int, ...]:
        u, rank = self.rank_of_kid(kid)
        h = self.hom_count(u)
        return tuple((rank >> (h - 1 - c)) & 1 for c in range(h))

    def upper_indices(self) -> tuple[int, ...]:
        """Components with at least one non-constant homomorphism."""
        return tuple(u for u, c in enumerate(self.components) if c.homs)


def reference_bundle(bundle: FreeBundle) -> ReferenceBundle:
    """The bundle with the disjoint union of power(S, h) over its
    components, a point where h = 0, and the map psi of each element to
    its component's offset plus the rank of its homomorphism bits, built
    by the validating constructor."""
    summands = [power(bundle.semilattice, len(c.homs)) if c.homs else one_element_structure() for c in bundle.components]
    offsets = tuple(itertools.accumulate((s.size for s in summands[:-1]), initial=0))
    mapping = [0] * bundle.free.algebra.size
    for comp, offset in zip(bundle.components, offsets):
        h = len(comp.homs)
        for local, e in enumerate(comp.members):
            mapping[e] = offset + rank([hom[local] for hom in comp.homs], [2] * h)
    union = disjoint_union(summands)
    psi = Homomorphism(bundle.structure, union, tuple(mapping))
    ref = ReferenceBundle(*(getattr(bundle, name) for name in FreeBundle.__slots__))
    ref.psi, ref.union_structure, ref.offsets, ref.image = psi, union, offsets, tuple(sorted(set(mapping)))
    return ref


def collapsed_substructure(bundle: FreeBundle, u: int) -> RelationalStructure:
    return induced_substructure(bundle.K, bundle.components[u].kids)


def classify_into_coords_reference(
    bundle: ReferenceBundle, u: int, mapping: Sequence[int]
) -> tuple[str, int | None]:
    """Classify a map from a collapsed component into {0,1}.

    Returns ("constant", value), ("projection", coordinate) with the unique
    witnessing coordinate, or ("neither", None).
    """
    comp = bundle.components[u]
    values = list(mapping)
    if len(set(values)) <= 1:
        return "constant", values[0]
    h = len(comp.homs)
    witnesses = [
        c
        for c in range(h)
        if all(values[i] == bundle.coords_of_kid(kid)[c] for i, kid in enumerate(comp.kids))
    ]
    if len(witnesses) == 1:
        return "projection", witnesses[0]
    return "neither", None


def component_points_reference(bundle: ReferenceBundle, comb: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All points of the product of collapsed components, as kid tuples."""
    return list(itertools.product(*(bundle.components[u].kids for u in comb)))


def kid_component_reference(bundle: ReferenceBundle, kid: int) -> int:
    return bundle.rank_of_kid(kid)[0]


def verify_claims_reference(bundle: ReferenceBundle, max_arity: int = 2) -> VerificationReport:
    """Check the four polymorphism claims for arities 1..max_arity."""
    assert bundle.K is not None, "collapse must run first"
    S = bundle.semilattice
    results = []
    nU = len(bundle.components)
    upper = set(bundle.upper_indices())

    # Claim 1: each collapsed component is a partial semilattice whose
    # largest element is the image of u applied to the second generator
    ok, detail = True, ""
    for u in range(nU):
        sub = collapsed_substructure(bundle, u)
        witness = is_partial_semilattice(sub)
        if not isinstance(witness, PartialSemilatticeWitness):
            ok, detail = False, f"component {u} refused: {witness.reason}"
            break
        top = largest_element(sub)
        expected = bundle.components[u].kids.index(bundle.generator_image(u, bundle.y))
        if top != expected:
            ok, detail = False, f"component {u}: largest {top} != image of generator {expected}"
            break
    results.append(CheckResult("claim 1 (partial semilattices with tops)", PASS if ok else FAIL, detail))

    # Claim 2: triviality of a component is equivalent to the two generator
    # images agreeing; non-trivial ones induce the 2-element semilattice
    ok, detail = True, ""
    for u in range(nU):
        kx, ky = bundle.generator_image(u, bundle.x), bundle.generator_image(u, bundle.y)
        singleton = len(bundle.components[u].kids) == 1
        if singleton != (kx == ky):
            ok, detail = False, f"component {u}: size/agreement mismatch"
            break
        if not singleton:
            sub = induced_substructure(bundle.K, sorted({kx, ky}))
            if find_isomorphism(sub, S) is None:
                ok, detail = False, f"component {u}: generator pair does not induce the semilattice"
                break
    results.append(CheckResult("claim 2 (generator pair detects size)", PASS if ok else FAIL, detail))

    # Claims 3 and 4 quantify over polymorphisms of the image
    claim3_ok, claim3_detail = True, ""
    claim4_ok, claim4_detail = True, ""
    for arity in range(1, max_arity + 1):
        polys = polymorphisms(bundle.K, arity)
        combos = list(itertools.product(range(nU), repeat=arity))
        for f in polys:
            for comb in combos:
                points = component_points_reference(bundle, comb)
                values = [f.apply(*p) for p in points]
                targets = {kid_component_reference(bundle, v) for v in values}
                if len(targets) != 1:
                    claim3_ok = False
                    claim3_detail = f"arity {arity}: restriction spans components {sorted(targets)}"
                    break
                u = targets.pop()
                constant = len(set(values)) == 1

                # claim 3: each coordinate of the restriction factors as a
                # meet of single-coordinate projections
                if not constant and claim3_ok:
                    factors = [collapsed_substructure(bundle, ul) for ul in comb]
                    tops = [
                        bundle.components[ul].kids.index(bundle.generator_image(ul, bundle.y))
                        for ul in comb
                    ]
                    h = bundle.hom_count(u)
                    for c in range(h):
                        coord_values = [bundle.coords_of_kid(v)[c] for v in values]
                        try:
                            dec = decompose_product_hom(factors, S, coord_values, tops)
                        except (StructureError, DecompositionError) as exc:
                            claim3_ok, claim3_detail = False, f"arity {arity}: {exc}"
                            break
                        if dec.is_constant:
                            continue
                        projections = 0
                        for ell, cmap in enumerate(dec.coordinate_maps):
                            kind, _ = classify_into_coords_reference(bundle, comb[ell], cmap)
                            if kind == "projection":
                                if comb[ell] not in upper:
                                    claim3_ok = False
                                    claim3_detail = f"arity {arity}: projection on a trivial factor"
                                    break
                                projections += 1
                            elif kind == "constant" and cmap[0] == 1:
                                continue
                            else:
                                claim3_ok = False
                                claim3_detail = (
                                    f"arity {arity}: coordinate {c} factor {ell} is neither a"
                                    " projection nor constant 1"
                                )
                                break
                        if claim3_ok and projections == 0:
                            claim3_ok = False
                            claim3_detail = f"arity {arity}: non-constant map with no projection factor"
                        if not claim3_ok:
                            break

                # claim 4: the restriction extends to exactly one piece of
                # the declared shape on the full product of powers
                if claim4_ok:
                    count = count_shaped_extensions_reference(bundle, comb, points, values)
                    if count != 1:
                        claim4_ok = False
                        claim4_detail = f"arity {arity}, components {comb}: {count} extensions"
            if not (claim3_ok or claim4_ok):
                break
        if not (claim3_ok or claim4_ok):
            break
    results.append(CheckResult("claim 3 (meets of coordinate projections)", PASS if claim3_ok else FAIL, claim3_detail))
    results.append(CheckResult("claim 4 (unique shaped extension)", PASS if claim4_ok else FAIL, claim4_detail))
    return VerificationReport(tuple(results))


def count_shaped_extensions_reference(
    bundle: ReferenceBundle,
    comb: tuple[int, ...],
    points: list[tuple[int, ...]],
    values: list[int],
) -> int:
    """Count distinct shaped maps on the product of powers extending f.

    A shaped piece is either constant, or targets one non-trivial component
    with every coordinate given by a constant or a meet of projections onto
    chosen coordinates of non-trivial factors.  Pieces are deduplicated
    extensionally before counting.
    """
    hs = [bundle.hom_count(u) for u in comb]
    sizes = [1 << h for h in hs]
    G = bundle.union_structure
    assert G is not None and bundle.offsets is not None
    epoints = list(itertools.product(*(range(sz) for sz in sizes)))

    def coords_at(point: tuple[int, ...], ell: int) -> tuple[int, ...]:
        rank = point[ell]
        h = hs[ell]
        return tuple((rank >> (h - 1 - c)) & 1 for c in range(h))

    pieces: set[tuple[int, ...]] = set()
    for g in range(G.size):  # constant pieces
        pieces.add((g,) * len(epoints))

    positions = [ell for ell in range(len(comb)) if hs[ell] >= 1]
    for u in bundle.upper_indices():
        h_u = bundle.hom_count(u)
        choices: list[tuple] = [("const", 0), ("const", 1)]
        for r in range(1, len(positions) + 1):
            for subset in itertools.combinations(positions, r):
                for phis in itertools.product(*(range(hs[ell]) for ell in subset)):
                    choices.append(("meet", tuple(zip(subset, phis))))
        for combo in itertools.product(choices, repeat=h_u):
            piece = []
            for point in epoints:
                rank = 0
                for choice in combo:
                    if choice[0] == "const":
                        bit = choice[1]
                    else:
                        bit = min(coords_at(point, ell)[phi] for ell, phi in choice[1])
                    rank = (rank << 1) | bit
                piece.append(bundle.offsets[u] + rank)
            pieces.add(tuple(piece))

    # embed the restriction's domain into the product of powers
    dom_index = []
    for p in points:
        epoint = tuple(bundle.rank_of_kid(kid)[1] for kid in p)
        dom_index.append(epoints.index(epoint))
    fvals = [bundle.image[v] for v in values]

    count = 0
    for piece in sorted(pieces):
        if all(piece[di] == fv for di, fv in zip(dom_index, fvals)):
            count += 1
    return count


def claims_bundles() -> list[FreeBundle]:
    """Seeded bundles for the claims oracles, built afresh on each call:
    idempotent 3-element binary algebras (one component, up to 4
    homomorphisms), and non-idempotent 2- and 3-element algebras, whose
    several components include trivial ones.  Draws whose free algebra
    exceeds 300 elements are dropped."""
    rng = random.Random(47)
    algebras = [FiniteAlgebra(3, {"f": idempotent_table(rng, 3, 2)}) for _ in range(16)]
    algebras += [
        FiniteAlgebra(2, {"f": random_table(rng, 2, 2), "n": random_table(rng, 2, 1)}) for _ in range(10)
    ]
    algebras += [FiniteAlgebra(3, {"n": random_table(rng, 3, 1)}) for _ in range(6)]
    bundles = []
    for a in algebras:
        try:
            bundles.append(build_bundle(a, 300))
        except SizeLimitExceeded:
            pass
    return bundles


def random_table(rng, size, arity):
    return OperationTable(arity, size, tuple(rng.randrange(size) for _ in range(size**arity)))


def binary_algebra(values):
    return FiniteAlgebra(3, {"f": OperationTable(2, 3, values)})


# one component with 3 and one with 4 homomorphisms into the semilattice
THREE_HOMS = binary_algebra((0, 2, 0, 2, 1, 2, 2, 1, 2))
FOUR_HOMS = binary_algebra((0, 2, 2, 0, 1, 1, 0, 2, 2))


def test_collapse_decodes_every_element_once(meet_algebra, lattice_algebra, majority_algebra, bare_algebra):
    named = [build_bundle(a) for a in (meet_algebra, lattice_algebra, majority_algebra, bare_algebra)]
    for bundle in named + claims_bundles() + [build_bundle(THREE_HOMS), build_bundle(FOUR_HOMS)]:
        ref = reference_bundle(bundle)
        for u, comp in enumerate(bundle.components):
            for local, e in enumerate(comp.members):
                rank = 0  # the previous shift-or encoding, first homomorphism highest
                for hom in comp.homs:
                    rank = (rank << 1) | hom[local]
                assert ref.psi.mapping[e] == ref.offsets[u] + rank
        assert bundle.decode == tuple((ref.rank_of_kid(k)[0], ref.coords_of_kid(k)) for k in range(bundle.K.size))


def test_collapse_psi_is_the_validated_homomorphism(meet_algebra, lattice_algebra, majority_algebra, bare_algebra):
    """The reference builds psi into the union of powers with the validating
    constructor, the oracle, which accepts it on every fixture bundle and
    gives the same map again from its mapping."""
    named = [build_bundle(a) for a in (meet_algebra, lattice_algebra, majority_algebra, bare_algebra)]
    for bundle in named + claims_bundles() + [build_bundle(THREE_HOMS), build_bundle(FOUR_HOMS)]:
        ref = reference_bundle(bundle)
        assert ref.psi == Homomorphism(bundle.structure, ref.union_structure, ref.psi.mapping)


def test_compute_H_maps_pass_the_validating_constructor(meet_algebra, lattice_algebra, majority_algebra, bare_algebra):
    """compute_H keeps each component's maps into S as bare mapping tuples
    on local ids; the validating constructor accepts every one as a map
    from the component's induced substructure, and none is constant."""
    named = [build_bundle(a) for a in (meet_algebra, lattice_algebra, majority_algebra, bare_algebra)]
    checked = 0
    for bundle in named + claims_bundles() + [build_bundle(THREE_HOMS), build_bundle(FOUR_HOMS)]:
        for comp in bundle.components:
            sub = induced_substructure(bundle.structure, comp.members)
            for hom in comp.homs:
                Homomorphism(sub, bundle.semilattice, hom)
                assert len(set(hom)) > 1
                checked += 1
    assert checked >= 40, checked


def test_collapse_is_the_image_of_psi_in_the_union_of_powers(
    meet_algebra, lattice_algebra, majority_algebra, bare_algebra
):
    """collapse builds K without the union of semilattice powers: K (labels
    included), its kernel, decode, kids and collapsed components are those
    of the image of the reference psi."""
    named = [build_bundle(a) for a in (meet_algebra, lattice_algebra, majority_algebra, bare_algebra)]
    for bundle in named + claims_bundles() + [build_bundle(THREE_HOMS), build_bundle(FOUR_HOMS)]:
        ref = reference_bundle(bundle)
        image = image_structure(ref.psi)
        assert bundle.K == image and bundle.K.labels == image.labels
        kid_of = {g: k for k, g in enumerate(ref.image)}
        assert bundle.quotient_map == tuple(kid_of[g] for g in ref.psi.mapping)
        assert bundle_summary(bundle)["kernel"] == [
            sorted(bundle.element_name(e) for e in block) for block in kernel(ref.psi)
        ]
        assert bundle.decode == tuple((ref.rank_of_kid(k)[0], ref.coords_of_kid(k)) for k in range(image.size))
        for c in bundle.components:
            assert c.kids == tuple(sorted({kid_of[ref.psi.mapping[e]] for e in c.members}))
            assert c.collapsed == induced_substructure(image, c.kids)


def test_build_bundle_builds_no_power(monkeypatch):
    """collapse describes the union of semilattice powers and never builds
    it, so a product that refuses every size leaves build_bundle working."""
    import hmkit.structures as structures

    def refuse(*args, **kwargs):
        raise SizeLimitExceeded("product built")

    monkeypatch.setattr(structures, "product_size", refuse)
    with pytest.raises(SizeLimitExceeded):
        power(two_element_semilattice(), 1)
    assert [c.kids for c in build_bundle(THREE_HOMS).components] == [(0, 1, 2, 3)]
    assert [c.kids for c in build_bundle(FOUR_HOMS).components] == [(0, 1, 2, 3, 4)]


def shaped_restriction(rng, bundle, comb, points):
    """The values at the points of a randomly drawn shaped piece into a
    non-trivial component, as K ids, or None where it leaves K."""
    ref = reference_bundle(bundle)
    upper = ref.upper_indices()
    if not upper:
        return None
    u = rng.choice(upper)
    shapes = []
    for _ in range(ref.hom_count(u)):
        # per factor, no coordinate or one; no coordinate at all is a constant
        chosen = [(ell, rng.randrange(-1, ref.hom_count(w))) for ell, w in enumerate(comb) if ref.hom_count(w)]
        shapes.append([(ell, phi) for ell, phi in chosen if phi >= 0] or rng.randrange(2))
    kid_of = {(ref.rank_of_kid(k)[0], ref.coords_of_kid(k)): k for k in range(bundle.K.size)}
    values = []
    for p in points:
        bits = tuple(
            shape if isinstance(shape, int) else min(ref.coords_of_kid(p[ell])[phi] for ell, phi in shape)
            for shape in shapes
        )
        if (u, bits) not in kid_of:
            return None
        values.append(kid_of[u, bits])
    return values


def test_count_shaped_extensions_matches_reference():
    rng = random.Random(83)
    cases = []  # (bundle, comb, restrictions per kind)
    for bundle in claims_bundles() + [build_bundle(THREE_HOMS)]:
        top = max(bundle.hom_count(u) for u in range(len(bundle.components)))
        for arity in (1, 2) if top <= 2 else (1,):
            cases += [(bundle, comb, 6) for comb in itertools.product(range(len(bundle.components)), repeat=arity)]
    cases.append((build_bundle(FOUR_HOMS), (0,), 2))
    assert {len(comb) for _, comb, _ in cases} == {1, 2}
    seen: dict[int, int] = {}
    shaped = 0
    for bundle, comb, draws in cases:
        ref = reference_bundle(bundle)
        points = component_points_reference(ref, comb)
        shapes = _shape_table(bundle, comb, points)
        restrictions = []
        for _ in range(draws):
            restrictions.append([rng.randrange(bundle.K.size) for _ in points])
            kids = rng.choice(bundle.components).kids
            restrictions.append([rng.choice(kids) for _ in points])
            values = shaped_restriction(rng, bundle, comb, points)
            if values is not None:
                restrictions.append(values)
                shaped += 1
        for values in restrictions:
            want = count_shaped_extensions_reference(ref, comb, points, values)
            assert _count_shaped_extensions(bundle, shapes, values) == want, (comb, values)
            seen[want] = seen.get(want, 0) + 1
    assert shaped > 100
    assert {0, 1} <= set(seen)


def test_verify_claims_matches_reference(meet_algebra, lattice_algebra, majority_algebra, bare_algebra):
    named = [build_bundle(a) for a in (meet_algebra, lattice_algebra, majority_algebra, bare_algebra)]
    for bundle in named + claims_bundles() + [build_bundle(THREE_HOMS)]:
        top = max(bundle.hom_count(u) for u in range(len(bundle.components)))
        # arity-2 polymorphisms of a larger image are too many for the reference
        max_arity = 2 if top <= 2 and bundle.K.size <= 3 else 1
        report = verify_claims(bundle, max_arity)
        assert report_lines(report) == report_lines(verify_claims_reference(reference_bundle(bundle), max_arity))


def test_verify_claims_component_with_four_homomorphisms():
    bundle = build_bundle(FOUR_HOMS)
    assert [len(c.kids) for c in bundle.components] == [5]
    assert bundle.hom_count(0) == 4
    report = verify_claims(bundle, 1)
    assert report.passed, report_lines(report)


def column_failure_reference(
    bundle: FreeBundle,
    comb: tuple[int, ...],
    factors: list[RelationalStructure],
    tops: list[int],
    c: int,
    column: tuple[int, ...],
) -> str:
    """Why coordinate c of a non-constant restriction is no meet of
    single-coordinate projections, or "" when it is one.

    column is that coordinate's bit at each point, in rank order, of the
    product of the combination's collapsed components.
    """
    arity = len(comb)
    try:
        dec = decompose_product_hom(factors, bundle.semilattice, column, tops)
    except (StructureError, DecompositionError) as exc:
        return f"arity {arity}: {exc}"
    if dec.is_constant:
        return ""
    projections = 0
    for ell, cmap in enumerate(dec.coordinate_maps):
        if len(set(cmap)) > 1 and _is_constant_or_projection(bundle, comb[ell], cmap):
            if not bundle.hom_count(comb[ell]):
                return f"arity {arity}: projection on a trivial factor"
            projections += 1
        elif set(cmap) != {1}:
            return f"arity {arity}: coordinate {c} factor {ell} is neither a projection nor constant 1"
    if projections == 0:
        return f"arity {arity}: non-constant map with no projection factor"
    return ""


# components of sizes 2, 1, 2, 1; Hom(K^2, K) has about 4.5e14 members
COMPONENTS_2_1_2_1 = FiniteAlgebra(2, {"f": OperationTable(2, 2, (1, 1, 1, 1)), "n": OperationTable(1, 2, (1, 0))})


def test_shape_table_keys_are_the_columns_that_decompose_into_projections():
    rng = random.Random(29)
    bundles = claims_bundles() + [build_bundle(a) for a in (THREE_HOMS, FOUR_HOMS, COMPONENTS_2_1_2_1)]
    verdicts = Counter()  # (key of the table, decomposes) -> columns
    for bundle in bundles:
        for arity in (1, 2):
            for comb in itertools.product(range(len(bundle.components)), repeat=arity):
                factors = [bundle.components[u].collapsed for u in comb]
                tops = [bundle.components[u].kids.index(bundle.generator_image(u, bundle.y)) for u in comb]
                prod = product(factors)
                points = list(itertools.product(*(bundle.components[u].kids for u in comb)))
                shapes = _shape_table(bundle, comb, points)
                columns = set(shapes)
                for values in hom_maps(prod, bundle.K):
                    if len({bundle.decode[v][0] for v in values}) == 1:
                        columns.update(zip(*(bundle.decode[v][1] for v in values)))
                columns.update(tuple(rng.randrange(2) for _ in points) for _ in range(20))
                for column in sorted(columns):
                    failure = column_failure_reference(bundle, comb, factors, tops, 0, column)
                    assert (column in shapes) == (failure == ""), (comb, column, failure)
                    verdicts[column in shapes, failure == ""] += 1
    assert verdicts[True, True] > 500 and verdicts[False, False] > 500, verdicts


def test_verify_claims_names_the_first_coordinate_that_is_no_meet(monkeypatch):
    import hmkit.freecons as freecons

    bundle = build_bundle(FOUR_HOMS)
    assert [bundle.decode[k][1] for k in bundle.components[0].kids] == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 1, 1), (1, 1, 1, 1)
    ]
    calls = 0

    def with_one_restriction(source, target):
        nonlocal calls
        calls += 1
        yield (0, 1, 3, 2, 4)  # coordinate 0 is the projection 0, coordinate 1 reads 0,0,1,0,1

    monkeypatch.setattr(freecons, "hom_maps", with_one_restriction)
    assert report_lines(verify_claims(bundle, 1))[2:] == [
        "claim 3 (meets of coordinate projections): fail"
        " (arity 1, components (0,): coordinate 1 is not a meet of coordinate projections)",
        "claim 4 (unique shaped extension): fail (arity 1, components (0,): 0 extensions)",
    ]
    assert calls == 1


def test_verify_claims_runs_claim_4_on_spanning_restrictions(monkeypatch):
    import hmkit.freecons as freecons

    bundle = build_bundle(FiniteAlgebra(2, {"n": OperationTable(1, 2, (1, 0))}))
    assert [c.kids for c in bundle.components] == [(0, 1), (2, 3)]
    hom_maps = freecons.hom_maps
    calls = 0

    def with_spanning_map(source, target):
        nonlocal calls
        calls += 1
        yield from hom_maps(source, target)
        if calls == 1:  # the combination (0,)
            yield (2, 1)  # kid 0 -> kid 2, kid 1 fixed

    monkeypatch.setattr(freecons, "hom_maps", with_spanning_map)
    assert report_lines(verify_claims(bundle, 1))[2:] == [
        "claim 3 (meets of coordinate projections): fail (arity 1: restriction spans components [0, 1])",
        "claim 4 (unique shaped extension): fail (arity 1, components (0,): 0 extensions)",
    ]
    assert calls == 1


def combination_restrictions(bundle, comb):
    """Hom(prod K_u, K) for the combination, as mapping tuples."""
    return list(hom_maps(product([bundle.components[u].collapsed for u in comb]), bundle.K))


def test_hom_maps_on_a_combination_are_the_polymorphism_restrictions(
    meet_algebra, lattice_algebra, majority_algebra, bare_algebra
):
    named = [build_bundle(a) for a in (meet_algebra, lattice_algebra, majority_algebra, bare_algebra)]
    cases = {1: 0, 2: 0}  # combinations checked, per arity
    for bundle in named + claims_bundles() + [build_bundle(THREE_HOMS), build_bundle(FOUR_HOMS)]:
        for arity in (1, 2):
            combs = list(itertools.product(range(len(bundle.components)), repeat=arity))
            restrictions = [combination_restrictions(bundle, comb) for comb in combs]
            # K has as many polymorphisms as choices of one restriction per combination
            if math.prod(map(len, restrictions)) > 5000:
                continue
            polys = polymorphisms(bundle.K, arity)
            for comb, maps in zip(combs, restrictions):
                points = list(itertools.product(*(bundle.components[u].kids for u in comb)))
                assert len(set(maps)) == len(maps), comb
                assert set(maps) == {tuple(f.apply(*p) for p in points) for f in polys}, comb
                cases[arity] += 1
    assert cases == {1: 48, 2: 32}


def test_verify_claims_on_components_of_sizes_2_1_2_1(monkeypatch):
    import hmkit.freecons as freecons

    bundle = build_bundle(COMPONENTS_2_1_2_1)  # Hom(K^2, K) is huge; its restrictions are few
    assert [len(c.kids) for c in bundle.components] == [2, 1, 2, 1]
    counts = {
        arity: sum(len(combination_restrictions(bundle, comb)) for comb in itertools.product(range(4), repeat=arity))
        for arity in (1, 2)
    }
    assert counts[2] == 136
    count_shaped_extensions = freecons._count_shaped_extensions
    checked = 0  # claim 4 counts each restriction once while it passes

    def counting(*args):
        nonlocal checked
        checked += 1
        return count_shaped_extensions(*args)

    monkeypatch.setattr(freecons, "_count_shaped_extensions", counting)
    report = verify_claims(bundle, 2)
    assert report.passed, report_lines(report)
    assert checked == counts[1] + counts[2]


def test_verify_claims_refuses_an_arity_below_1(meet_algebra):
    bundle = build_bundle(meet_algebra)
    for max_arity in (0, -1):
        with pytest.raises(StructureError, match="arity must be >= 1"):
            verify_claims(bundle, max_arity)


def test_verify_lemma22_item5_names_the_first_separating_translation(meet_algebra):
    bundle = build_bundle(meet_algebra)
    bundle.quotient_map = (0, 0, 1)
    assert report_lines(verify_lemma22(bundle))[4] == (
        "item 5 (kernel is a congruence): fail (meet at position 1, parameters (0,): elements 0 and 1 separate)"
    )


def separating_translation_reference(bundle: FreeBundle) -> str:
    """Item 5 of verify_lemma22 as it was before its witness search became
    one helper, copied verbatim: the detail string, "" when it passes."""
    qmap = bundle.quotient_map
    classes: dict[int, list[int]] = {}
    for e, c in enumerate(qmap):
        classes.setdefault(c, []).append(e)
    ok, detail = True, ""
    falg = bundle.free.algebra
    for sym in falg.symbols():
        table = falg.operations[sym]
        m = table.arity
        for pos in range(m):
            for params in itertools.product(range(falg.size), repeat=m - 1):
                def translate(t: int) -> int:
                    args = params[:pos] + (t,) + params[pos:]
                    return table.apply(*args)

                for members in classes.values():
                    base = qmap[translate(members[0])]
                    for other in members[1:]:
                        if qmap[translate(other)] != base:
                            ok = False
                            detail = (
                                f"{sym} at position {pos + 1}, parameters {params}: "
                                f"elements {members[0]} and {other} separate"
                            )
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    return detail


def set_partitions(n):
    """Every partition of range(n) as a class-id tuple, classes numbered by first member."""
    if n == 0:
        yield ()
        return
    for head in set_partitions(n - 1):
        for c in range(max(head, default=-1) + 2):
            yield head + (c,)


def test_verify_lemma22_item5_matches_reference_on_every_quotient_map(lattice_algebra, majority_algebra):
    bundles = [build_bundle(a) for a in (lattice_algebra, majority_algebra)]
    bundles += [b for b in claims_bundles() if b.free.algebra.size <= 6]
    details = set()
    for bundle in bundles:
        for qmap in set_partitions(bundle.free.algebra.size):
            bundle.quotient_map = qmap
            want = separating_translation_reference(bundle)
            assert _separating_translation(bundle.free.algebra, qmap) == want
            details.add(want)
    assert len(details) > 50
