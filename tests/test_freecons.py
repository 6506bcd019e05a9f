import functools
import itertools
import json
import math
import operator
import random
import sys
from collections import Counter, deque
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
    LabelingRefutation,
    TwoElementWitness,
    VerificationReport,
    algebra_from_json,
    build_bundle,
    bundle_summary,
    collapse,
    compute_H,
    default_evidence_arity,
    free_algebra,
    free_structure,
    hm_evidence,
    load_algebra,
    verify_certificate,
    verify_claims,
    verify_lemma22,
    verify_witness,
    variable_names,
    _batches,
    _close,
    _grow,
    _ill_defined_operation,
    _refute_rank,
    _separating_translation,
    _shape_table,
    _two_element_witness,
)
from hmkit.homsearch import OperationTable, hom_maps, polymorphisms
from hmkit.identlang import (
    Application,
    Identity,
    SLLabeling,
    Term,
    Variable,
    holds_in,
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
    Relation,
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

from conftest import (
    algebra_doc,
    all_labelings,
    coordinate_sets,
    expand_cover,
    image_structure,
    kernel,
    labeled_variables,
    one_element_structure,
    report_lines,
)


def closure_reference(seeds, algebras, max_elements):
    """Slow oracle for the closure engine: full rounds of every operation at
    every argument tuple, with algebras[c] acting at coordinate c.

    Every round re-evaluates every argument tuple over the elements known at
    its start, symbols in sorted order, so the ids and first derivations are
    fixed by the round structure alone.  Raises SizeLimitExceeded once more
    than max_elements elements are found.  Returns (elements, derivations).
    The input is validated once, as OperationTable.apply would validate each
    argument: the algebras share one signature and every seed coordinate
    lies in its algebra's universe.  Values closed from those stay in it, so
    each is then read from its flat table at the row-major rank.
    """
    symbols = algebras[0].symbols()
    arities = [algebras[0].operations[sym].arity for sym in symbols]
    for alg in algebras:
        if alg.symbols() != symbols or [alg.operations[sym].arity for sym in symbols] != arities:
            raise StructureError("the algebras differ in signature")
    for seed in seeds:
        if len(seed) != len(algebras) or not all(0 <= v < alg.size for v, alg in zip(seed, algebras)):
            raise StructureError(f"seed {seed} not in the power")
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
        for sym in symbols:
            tables = [alg.operations[sym] for alg in algebras]
            for args in itertools.product(range(size_before), repeat=tables[0].arity):
                value = []
                for c, table in enumerate(tables):
                    rank = 0
                    for e in args:
                        rank = rank * table.size + elements[e][c]
                    value.append(table.values[rank])
                intern(tuple(value), (sym, args))
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


# Oracle for the evidence search: the search as it was before labelings
# shared one closure per rank, with one pair closure per labeling
# and rank from `close_with_stop`, the closure engine with the stop hook it
# had then, on `batches_by_coordinate`, the engine's batches as they were
# while they took one table per coordinate.  The code is that code, with new
# names and without its docstrings and comments; it shares no code with the
# engine it checks.


def batches_by_coordinate(tables, elements, old, new):
    m = tables[0].arity
    if m == 0:
        if old == 0:
            yield (), 0, [tuple(t.values[0] for t in tables)]
        return
    sizes = [t.size for t in tables]
    values = [t.values for t in tables]
    columns = list(zip(*elements[:new]))
    if m == 1:
        yield (), old, list(zip(*map(map, (vals.__getitem__ for vals in values), (col[old:new] for col in columns))))
        return
    for head in itertools.product(range(new), repeat=m - 2):
        base = [0] * len(columns)
        for e in head:
            base = [(o + v) * n for o, v, n in zip(base, elements[e], sizes)]
        stale = not head or max(head) < old
        for ends, first in ((range(old), old), (range(old, new), 0)) if stale else ((range(new), 0),):
            memos = [[None] * n for n in sizes]
            for end in ends:
                point = elements[end]
                mapped = list(map(list.__getitem__, memos, point))
                if None in mapped:
                    for memo, v, o, vals, n, col in zip(memos, point, base, values, sizes, columns):
                        if memo[v] is None:
                            memo[v] = list(map(vals[(o + v) * n : (o + v + 1) * n].__getitem__, col[first:new]))
                    mapped = list(map(list.__getitem__, memos, point))
                yield head + (end,), first, list(zip(*mapped))


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
            for prefix, first, batch in batches_by_coordinate(tables, elements, old, new):
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


# Oracle for the two-element witness: every ordered pair, every map onto
# {0, 1} and every coordinate set, with its own subuniverse loop; it shares no
# code with the witness search, the closure engine or `verify_witness`.


def labeling_witnesses_reference(a):
    """Each witnessed labeling, as one coordinate set per sorted symbol, with
    its first witness in the order pairs, then maps h by their bits."""
    symbols = a.symbols()
    witnesses = {}
    for x, y in itertools.permutations(range(a.size), 2):
        universe = {x, y}
        while True:
            grown = universe | {
                a.operations[sym].apply(*t) for sym in symbols for t in itertools.product(universe, repeat=a.operations[sym].arity)
            }
            if grown == universe:
                break
            universe = grown
        universe = tuple(sorted(universe))
        for bits in itertools.product((0, 1), repeat=len(universe)):
            h = dict(zip(universe, bits))
            if (h[x], h[y]) != (0, 1):
                continue
            # per symbol, every coordinate set under which it acts as a meet
            meets = [
                [
                    coords
                    for coords in coordinate_sets(a.operations[sym].arity)
                    if all(
                        h[a.operations[sym].apply(*t)] == min(h[t[i - 1]] for i in coords)
                        for t in itertools.product(universe, repeat=a.operations[sym].arity)
                    )
                ]
                for sym in symbols
            ]
            for labeling in itertools.product(*meets):
                witnesses.setdefault(labeling, TwoElementWitness((x, y), universe, bits, SLLabeling(dict(zip(symbols, labeling)))))
    return witnesses


def witness_reference(a):
    """The least labeling that some (a, b, h) witnesses, with its first
    witness, or None."""
    witnesses = labeling_witnesses_reference(a)
    return witnesses[min(witnesses)] if witnesses else None


def checked_witness_search(a):
    """`witness_reference(a)`, asserting on the way that the witness search
    gives each labeling up to the oracle's least witnessed one L, or every
    labeling when there is none, the oracle's answer: L its witness, every
    labeling before L None."""
    witnesses = labeling_witnesses_reference(a)
    for labeling in itertools.product(*(coordinate_sets(a.operations[sym].arity) for sym in a.symbols())):
        assert _two_element_witness(a, labeling) == witnesses.get(labeling)
        if labeling in witnesses:
            return witnesses[labeling]
    return None


def hm_evidence_reference(a, max_arity=None, max_tuples=DEFAULT_MAX_TUPLES, refute=refute_labeling):
    if not a.is_idempotent():
        raise StructureError("evidence search requires an idempotent algebra")
    if a.size < 1:
        raise StructureError("empty universe")
    m = default_evidence_arity(a) if max_arity is None else max_arity
    if m < 1:
        raise StructureError(f"arity bound must be >= 1, got {m}")
    witness = witness_reference(a)
    refutations = []
    for labeling in all_labelings(declarations(a)):
        if witness is not None and labeling == witness.labeling:  # it survives every rank, without a closure
            return ConsistentLabelingFound(labeling, m, witness)
        refutation = refute(a, labeling, m, max_tuples)
        if refutation is None:
            return ConsistentLabelingFound(labeling, m)
        refutations.append(refutation)
    return CertifiedHM(m, tuple(refutations))


def declarations(a):
    return {sym: a.operations[sym].arity for sym in a.symbols()}


def expanded(a, evidence):
    """A certificate with one refutation per labeling, as the search gave
    them before it returned covers: each entry under every labeling it
    holds, with the entry's own terms; anything else as it is."""
    if not isinstance(evidence, CertifiedHM):
        return evidence
    held = expand_cover(declarations(a), evidence.refutations)
    return evidence._replace(refutations=tuple(r._replace(labeling=labeling) for labeling, r in held))


def evidence_outcome(search, *args):
    """The whole result of an evidence search as plain data: every
    labeling's refutation (from the cover entry that holds it) as labeling,
    arity, sides as text and variable sets, the survivor, or the type and
    message of the exception raised."""
    try:
        evidence = expanded(args[0], search(*args))
    except (StructureError, SizeLimitExceeded) as exc:
        return "raised", type(exc), str(exc)
    if isinstance(evidence, ConsistentLabelingFound):
        return "survivor", evidence.labeling, evidence.max_arity, evidence.witness
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
    # from five generators on they are numbered; the free semilattice has 2^5 - 1 elements
    fa = free_algebra(meet_algebra, 5)
    assert fa.algebra.labels[:6] == ("x1", "x2", "x3", "x4", "x5", "meet(x1,x2)")
    assert fa.algebra.size == 31


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


def components_reference(a, elements, generators, unary):
    """Per unary term operation u of the list `unary` (tables over a's
    universe, in closure order), the rank-2 free elements whose diagonal is
    u and the ids of u(x) and u(y), by scanning every element."""
    index = {t: i for i, t in enumerate(elements)}
    diagonal = [b * a.size + b for b in range(a.size)]
    return tuple(
        (
            tuple(e for e, t in enumerate(elements) if tuple(t[d] for d in diagonal) == umap),
            tuple(index[tuple(umap[v] for v in elements[g])] for g in generators),
        )
        for umap in unary
    )


def bundle_components(bundle):
    return tuple((c.members, c.images) for c in bundle.components)


def agree_on_free_structure(a, bound):
    """free_structure's triples, and the members and generator images of its
    components, agree with the reference closures (the unary term
    operations by the rank-1 closure, in its order); returns whether the
    bound was hit."""

    def reference():
        elements, _, (x, y), tables = free_algebra_reference(a, 2, bound)
        n = len(elements)
        free = FiniteAlgebra(
            n, {sym: OperationTable(a.operations[sym].arity, n, v) for sym, v in tables.items()}
        )
        seeds = [(x, x, x), (x, y, x), (y, x, x), (y, y, y)]
        triples = closure_reference(seeds, [free] * 3, bound)[0]
        unary = closure_reference([tuple(range(a.size))], [a] * a.size, bound)[0]
        return frozenset(triples), components_reference(a, elements, (x, y), unary)

    def engine():
        bundle = free_structure(a, bound)
        return bundle.structure.relations["R"].tuples, bundle_components(bundle)

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
        assert _close(seeds, free.algebra, 64)[:2] == (triples, triple_derivations)
        assert bundle.structure.relations["R"].tuples == frozenset(triples)
        unary = closure_reference([(0, 1)], [a] * 2, 64)[0]
        assert bundle_components(bundle) == components_reference(a, elements, (x, y), unary)
        filled.append(len(triples) == free.algebra.size**3)
    assert any(filled) and not all(filled)


def test_closure_with_stop_is_the_prefix_ending_at_the_first_stop():
    # the evidence oracle mixes algebras: a draw at the four assignments of
    # x, y and another table of the same signature at two more coordinates
    rng = random.Random(42)
    seeds = [(0, 0, 1, 1, 0, 1), (0, 1, 0, 1, 1, 0)]
    for a in whole_power_draws():
        b = FiniteAlgebra(
            2, {sym: OperationTable(t.arity, 2, tuple(rng.randrange(2) for _ in t.values)) for sym, t in a.operations.items()}
        )
        algebras = [a] * 4 + [b] * 2
        elements, derivations = closure_reference(seeds, algebras, 64)
        assert close_with_stop(seeds, algebras, 64, lambda u: False)[:2] == (elements, derivations)
        # the stop hook of the evidence oracle: k = 0 and 1 stop at a seed,
        # and each prefix fits a bound of its own size
        for k, t in enumerate(elements):
            prefix = elements[: k + 1]
            index = {u: i for i, u in enumerate(prefix)}
            assert close_with_stop(seeds, algebras, k + 1, lambda u, t=t: u == t) == (prefix, derivations[: k + 1], index)


def test_closure_that_fills_the_power_skips_its_closing_round(monkeypatch):
    import hmkit.freecons as freecons

    a, bundle = next(
        (a, b)
        for a, b in ((a, free_structure(a)) for a in whole_power_draws())
        if len(a.operations) == 1 and len(b.structure.relations["R"].tuples) == 64
    )
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
    side, as the evidence oracle mixes algebra and bit coordinates, for the
    oracle's batches."""
    rng = random.Random(43)
    for m in range(5):
        for _ in range(6):
            sizes = [3, 2] + [rng.choice((2, 3)) for _ in range(rng.randint(0, 3))]
            rng.shuffle(sizes)
            tables = [OperationTable(m, n, tuple(rng.randrange(n) for _ in range(n**m))) for n in sizes]
            new = rng.randint(1, (9, 9, 9, 6, 4)[m])
            elements = [tuple(rng.randrange(n) for n in sizes) for _ in range(new)]
            for old in sorted({0, 1, new // 2, new}):
                got = list(batches_by_coordinate(tables, elements, old, new))
                assert got == batches_reference(tables, elements, old, new)


def test_engine_batches_match_reference():
    """Seeded tables of arities 0-4 and sizes 1-3, applied at 1-5
    coordinates, for the engine's batches; and at 3 coordinates under the
    mirror that swaps the first two, where the batches are the reference's
    whose argument prefix, mirrored id by id, is not smaller."""
    rng = random.Random(44)
    for m in range(5):
        for _ in range(6):
            n, width = rng.randint(1, 3), rng.randint(1, 5)
            table = OperationTable(m, n, tuple(rng.randrange(n) for _ in range(n**m)))
            new = rng.randint(1, (9, 9, 9, 6, 4)[m])
            elements = [tuple(rng.randrange(n) for _ in range(width)) for _ in range(new)]
            for old in sorted({0, 1, new // 2, new}):
                got = list(_batches(table, elements, old, new))
                assert got == batches_reference([table] * width, elements, old, new)
    for m in range(5):
        for _ in range(6):
            n = rng.randint(1, 3)
            table = OperationTable(m, n, tuple(rng.randrange(n) for _ in range(n**m)))
            elements, size = [], min(rng.randint(1, (9, 9, 9, 6, 4)[m]), n**3)
            while len(elements) < size:  # mirror-closed, each triple's swap right after it
                t = tuple(rng.randrange(n) for _ in range(3))
                if t not in elements:
                    elements += dict.fromkeys([t, (t[1], t[0], t[2])])
            new = len(elements)
            twins = [elements.index((t[1], t[0], t[2])) for t in elements]
            for old in sorted({0, 1, new // 2, new}):
                expected = [
                    batch
                    for batch in batches_reference([table] * 3, elements, old, new)
                    if batch[0] <= tuple(twins[e] for e in batch[0])
                ]
                assert list(_batches(table, elements, old, new, twins)) == expected


# The free structure's R closed over A itself, not over the free algebra's
# induced tables: it shares no code with the engine or with free_algebra.
def free_relation_reference(a: FiniteAlgebra, free: FreeAlgebra) -> frozenset:
    """R = Sg((x,x,x), (x,y,x), (y,x,x), (y,y,y)) as a set of free-algebra id triples.

    A triple of binary term operations is one tuple over A indexed by
    (coordinate, assignment of x and y), and A's tables act on it
    pointwise.  The tuple is held as bytes whose byte i is i * |A| plus the
    value at i, so an operation with every argument but the last fixed acts
    on the last as one bytes.translate.  A worklist takes the elements in
    order and evaluates each argument tuple once, when its newest argument
    is taken; each closed tuple is then read back as three free-algebra ids.
    """
    n = a.size
    assignments = list(itertools.product(range(n), repeat=2))
    x, y = (tuple(assign[j] for assign in assignments) for j in (0, 1))
    width = 3 * len(assignments)
    assert width * n <= 256

    def encode(t):
        return bytes(i * n + v for i, v in enumerate(t))

    elements = list(dict.fromkeys(map(encode, (x + x + x, x + y + x, y + x + x, y + y + y))))
    seen = set(elements)

    @functools.cache
    def translation(sym, head):  # the values of sym at head + (t,) for every t, as a byte table
        values, table = a.operations[sym].values, bytearray(range(256))
        for i in range(width):
            row = 0
            for e in head:
                row = row * n + elements[e][i] - i * n
            for v in range(n):
                table[i * n + v] = i * n + values[row * n + v]
        return bytes(table)

    k = 0
    while k < len(elements):
        for sym in a.symbols():
            m = a.operations[sym].arity
            if m == 0:
                found = [encode([a.operations[sym].values[0]] * width)] if k == 0 else []
            else:
                # heads below k with the last argument k, then heads holding k with every last argument up to k
                found = [elements[k].translate(translation(sym, h)) for h in itertools.product(range(k), repeat=m - 1)]
                for mask in range(1, 2 ** (m - 1)):
                    for head in itertools.product(*((k,) if mask >> p & 1 else range(k) for p in range(m - 1))):
                        table = translation(sym, head)
                        found.extend(t.translate(table) for t in elements[: k + 1])
            fresh = [t for t in dict.fromkeys(found) if t not in seen]
            seen.update(fresh)
            elements += fresh
        k += 1
    index = {t: e for e, t in enumerate(free.elements)}
    q = len(assignments)
    triples = set()
    for t in elements:
        flat = [b - i * n for i, b in enumerate(t)]
        triples.add(tuple(index[tuple(flat[c * q : (c + 1) * q])] for c in range(3)))
    return frozenset(triples)


THREE = FiniteAlgebra(3, {"f": OperationTable(2, 3, (0, 2, 0, 2, 1, 2, 2, 1, 2))})  # the CI's three.json


def test_free_structure_relation_matches_a_closure_over_A(meet_algebra, lattice_algebra, majority_algebra, bare_algebra):
    for a, size in ((meet_algebra, 10), (lattice_algebra, 25), (majority_algebra, 5), (bare_algebra, 4), (THREE, 384)):
        bundle = free_structure(a)
        assert bundle.structure.relations["R"].tuples == free_relation_reference(a, bundle.free)
        assert len(bundle.structure.relations["R"].tuples) == size


@pytest.mark.parametrize("first, built", [(0, 63), (1, 31)])
def test_free_structure_relation_matches_a_closure_over_A_on_two_element_ternary_algebras(first, built):
    """The 256 two-element algebras with one ternary operation, by the
    table's first value: R matches the reference on the 94 whose R has at
    most 44 triples, and a bound of 44 refuses the rest."""
    matched = 0
    for values in itertools.product(range(2), repeat=7):
        a = FiniteAlgebra(2, {"f": OperationTable(3, 2, (first, *values))})
        try:
            bundle = free_structure(a, 44)
        except SizeLimitExceeded:
            continue
        assert bundle.structure.relations["R"].tuples == free_relation_reference(a, bundle.free)
        matched += 1
    assert matched == built


def test_mirrored_relation_closure_evaluates_half_the_argument_pairs(monkeypatch):
    """On three.json, R's closure evaluates |R| (|R| + |Fix|) / 2 argument
    pairs under the swap of its first two coordinates, Fix being the swap's
    fixed triples, and |R|^2 without it; each triple's derivation gives it."""
    import hmkit.freecons as freecons

    batches = freecons._batches
    pairs = Counter()  # argument pairs by the number of arguments _batches was called with

    def counting(*args):
        for prefix, first, batch in batches(*args):
            pairs[len(args)] += len(batch)
            yield prefix, first, batch

    monkeypatch.setattr(freecons, "_batches", counting)
    bundle = free_structure(THREE)
    triples = bundle.structure.relations["R"].tuples
    assert (len(triples), sum(t[0] == t[1] for t in triples)) == (384, 30)
    # only R's closure passes a mirror, the fifth argument
    assert pairs[5] == 384 * (384 + 30) // 2 == 79_488

    free = bundle.free.algebra
    x, y = bundle.free.generators
    seeds = [(x, x, x), (x, y, x), (y, x, x), (y, y, y)]
    pairs.clear()
    assert frozenset(_close(seeds, free, DEFAULT_MAX_TUPLES)[0]) == triples
    assert pairs == {4: 384**2} and 384**2 == 147_456

    elements, derivations, _ = _close(seeds, free, DEFAULT_MAX_TUPLES, (1, 0, 2))
    for e, (t, (sym, args)) in enumerate(zip(elements, derivations)):
        if sym == "var":
            assert t == seeds[args]
        else:
            assert max(args, default=-1) < e
            assert t == tuple(free.operations[sym].apply(*(elements[arg][c] for arg in args)) for c in range(3))
        swapped = (t[1], t[0], t[2])
        assert swapped == t or swapped in elements[e - 1 : e + 2 : 2]  # a triple's mirror is next to it


def test_mirrored_closure_overflows_exactly_past_the_relation_size(meet_algebra, majority_algebra):
    """A bound of |R| - 1 refuses R and |R| builds it, whether the element
    that crosses the bound is a mirror (three.json, meet: the engine then
    stops one short, as a triple and its mirror are added together) or a
    triple the swap fixes (majority)."""
    for a, size, crossing_is_mirror in ((THREE, 384, True), (meet_algebra, 10, True), (majority_algebra, 5, False)):
        assert free_algebra(a, 2).algebra.size < size - 1  # so only R's closure can overflow
        with pytest.raises(SizeLimitExceeded, match=f"^closure exceeded {size - 1} elements$"):
            free_structure(a, size - 1)
        assert len(free_structure(a, size).structure.relations["R"].tuples) == size

        free = free_algebra(a, 2)
        x, y = free.generators
        seeds = [(x, x, x), (x, y, x), (y, x, x), (y, y, y)]
        last = _close(seeds, free.algebra, size, (1, 0, 2))[0][-1]
        assert (last[0] != last[1]) == crossing_is_mirror
        elements = []
        with pytest.raises(SizeLimitExceeded, match=f"^closure exceeded {size - 1} elements$"):
            deque(_grow(seeds, free.algebra, size - 1, elements, [], {}, (1, 0, 2)), maxlen=0)
        assert len(elements) == size - 1 - crossing_is_mirror


def test_mirrored_closure_refuses_seeds_its_mirror_does_not_fix(meet_algebra):
    with pytest.raises(ValueError, match="not closed under the mirror"):
        _close([(0, 0, 0), (0, 1, 0)], meet_algebra, 10, (1, 0, 2))
    seeds = [(0, 0, 0), (0, 1, 1), (1, 0, 1)]
    assert _close(seeds, meet_algebra, 10, (1, 0, 2))[0] == seeds + [(0, 0, 1)]


def test_free_structure_semilattice_triples(meet_algebra):
    bundle = free_structure(meet_algebra)
    x, y = bundle.free.generators
    m = 3 - x - y  # the third element
    expected = {
        (x, x, x), (x, y, x), (y, x, x), (y, y, y),
        (x, m, x), (m, x, x), (m, m, m), (m, m, x), (m, y, m), (y, m, m),
    }
    assert bundle.structure.relations["R"].tuples == expected
    assert len(bundle.components) == 1
    assert bundle.components[0].members == (0, 1, 2)


def test_free_structure_lattice(lattice_algebra):
    bundle = free_structure(lattice_algebra)
    assert bundle.free.algebra.size == 4
    assert len(bundle.components) == 1
    names = {bundle.free.algebra.labels[e] for e in range(4)}
    assert names == {"x", "y", "meet(x,y)", "join(x,y)"}


def test_compute_H_and_collapse(meet_algebra):
    bundle = build_bundle(meet_algebra)
    comp = bundle.components[0]
    assert len(comp.homs) == 1
    assert comp.homs[0] == (0, 1, 0)
    assert bundle.K.size == 2
    assert bundle.quotient_map == (0, 1, 0)
    assert find_isomorphism(bundle.K, two_element_semilattice()) is not None
    assert _ill_defined_operation(bundle.free.algebra, bundle.quotient_map) == ""
    assert quotient_values(bundle.free.algebra, bundle.quotient_map, "meet") == (0, 0, 0, 1)


def test_collapse_lattice_to_point(lattice_algebra):
    bundle = build_bundle(lattice_algebra)
    assert bundle.components[0].homs == ()
    assert bundle.K.size == 1
    assert all(not c.homs for c in bundle.components)


def test_component_images_are_the_generator_images(meet_algebra):
    bundle = build_bundle(meet_algebra)
    # the identity comes first
    assert bundle.components[0].images == bundle.free.generators
    bundle = build_bundle(FiniteAlgebra(2, {"n": OperationTable(1, 2, (1, 0))}))
    assert [c.members for c in bundle.components] == [(0, 1), (2, 3)]
    labels = bundle.free.algebra.labels
    assert [[labels[e] for e in c.images] for c in bundle.components] == [["x", "y"], ["n(x)", "n(y)"]]


def test_bundle_summary_kernel(meet_algebra):
    bundle = build_bundle(meet_algebra)
    summary = bundle_summary(bundle)
    assert summary["free_size"] == 3
    assert summary["relation_size"] == 10
    assert summary["kernel"] == [["meet(x,y)", "x"], ["y"]]


def test_the_pipeline_stages_leave_their_input_unchanged(meet_algebra, majority_algebra):
    """Each stage returns a new bundle; run one at a time, they give the
    fields build_bundle gives.  The meet algebra's one component has one
    homomorphism into S, the majority algebra's none."""
    for a, homs in ((meet_algebra, [1]), (majority_algebra, [0])):
        b = free_structure(a)
        h = compute_H(b)
        assert [c.homs for c in b.components] == [()] and [len(c.homs) for c in h.components] == homs
        k = collapse(h)
        assert (h.decode, h.quotient_map, h.K) == (None, None, None)
        assert all(c.kids == () and c.collapsed is None for c in h.components)
        whole = build_bundle(a)
        assert k == whole and k is not whole and k.free.algebra is not whole.free.algebra
        # a bundle is a named tuple holding a dict (the free algebra's index)
        with pytest.raises(TypeError):
            hash(k)


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


def quotient_values(falg, qmap, sym):
    """The table of sym on the kernel classes of qmap (ids 0, 1, ...), each
    evaluated at its classes' first members."""
    firsts = [qmap.index(c) for c in range(max(qmap) + 1)]
    table = falg.operations[sym]
    return tuple(qmap[table.apply(*args)] for args in itertools.product(firsts, repeat=table.arity))


def test_ill_defined_operation_names_a_non_congruence(meet_algebra):
    fa = free_algebra(meet_algebra, 2)
    assert _ill_defined_operation(fa.algebra, (0, 0, 1)) == (
        "operation meet at classes (0, 0): representatives give 0 but members (0, 1) give 1"
    )
    assert _ill_defined_operation(fa.algebra, (0, 1, 1)) == ""
    assert quotient_values(fa.algebra, (0, 1, 1), "meet") == (0, 1, 1, 1)


@pytest.mark.parametrize("k", [0, -1])
def test_free_algebra_needs_a_generator(meet_algebra, k):
    with pytest.raises(StructureError, match=f"^need at least one generator, got {k}$"):
        free_algebra(meet_algebra, k)


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
        assert labeled_variables(r.lhs, r.labeling) != labeled_variables(r.rhs, r.labeling)


def test_hm_evidence_builds_each_rank_once_and_only_when_reached(majority_algebra, monkeypatch):
    import hmkit.freecons as freecons

    grow = freecons._grow
    widths = []

    def counting(seeds, algebra, *rest):
        widths.append(len(seeds[0]))
        return grow(seeds, algebra, *rest)

    def no_free_algebra(*args):
        raise AssertionError("evidence built a free algebra")

    def no_close(*args):  # every evidence closure, the witness search's Sg(a, b) too, runs on _grow directly
        raise AssertionError("evidence closed a subpower outside its labeling closures")

    monkeypatch.setattr(freecons, "_grow", counting)
    monkeypatch.setattr(freecons, "free_algebra", no_free_algebra)
    monkeypatch.setattr(freecons, "_close", no_close)
    # F_2 = {x, y}, so each labeling is refuted in the first round of the
    # rank-2 closure with 2 elements; one closure of rank 2 (4 assignments)
    # serves all its labelings, and rank 3 is never closed, nor is a
    # witness looked for, as no labeling is left
    evidence = hm_evidence(majority_algebra, max_tuples=3)
    assert isinstance(evidence, CertifiedHM) and len(evidence.refutations) == 7
    assert widths == [2**2]
    # the same single closure serves the 16,807 labelings of five majority
    # symbols, whose cover holds the 7 prefixes of m0
    widths.clear()
    five = FiniteAlgebra(2, {f"m{i}": majority_algebra.operations["m"] for i in range(5)})
    evidence = hm_evidence(five, max_tuples=3)
    assert isinstance(evidence, CertifiedHM) and len(evidence.refutations) == 7
    assert len(expanded(five, evidence).refutations) == 7**5
    assert widths == [2**2]
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


def test_hm_evidence_certifies_a_signature_with_a_constant_by_no_refutation():
    # a constant has no coordinate set, so there is no labeling to refute
    constant = OperationTable(0, 1, (0,))
    alone = FiniteAlgebra(1, {"c": constant})
    beside = FiniteAlgebra(1, {"c": constant, "f": OperationTable(2, 1, (0,))})
    for a in (alone, beside):
        for m in (1, 2, 3):
            evidence = hm_evidence(a, m)
            assert evidence == CertifiedHM(m, ())
            assert verify_certificate(a, evidence)


def test_hm_evidence_rejects_non_idempotent():
    const = FiniteAlgebra(2, {"c": OperationTable(1, 2, (0, 0))})
    with pytest.raises(StructureError, match="idempotent"):
        hm_evidence(const)
    with pytest.raises(StructureError, match="arity bound"):
        hm_evidence(FiniteAlgebra(2, {}), max_arity=0)
    with pytest.raises(StructureError, match="empty universe"):
        hm_evidence(FiniteAlgebra(0, {}))


@pytest.mark.parametrize(
    "values, j, size",
    [
        ((0, 2, 0, 2, 1, 2, 2, 1, 2), 2, 14),
        ((0, 2, 0, 2, 1, 2, 2, 1, 2), 3, 768),
        ((0, 0, 0, 1, 1, 1, 2, 2, 2), 2, 2),  # the first projection: F_j holds the j projections
        ((0, 0, 0, 1, 1, 1, 2, 2, 2), 3, 3),
    ],
)
def test_closure_and_evidence_share_one_overflow_rule(values, j, size, monkeypatch):
    """The rank-j closure, free or under evidence, overflows exactly when
    max_tuples is below the size of F_j.  Each algebra here has a
    two-element witness for f -> {1}, its first labeling, which so needs no
    closure of its own and answers at any bound.  No input without a witness is known whose
    evidence search closes rank 3 for a live labeling, so at rank 3 the
    witness search is masked: the labeling is bounded evidence again and
    rides the closure to its end.  Rank 2 is shown without a mask by
    `test_evidence_without_a_witness_overflows_by_the_same_rule`."""
    import hmkit.freecons as freecons

    a = FiniteAlgebra(3, {"f": OperationTable(2, 3, values)})
    projections = list(zip(*itertools.product(range(3), repeat=j)))
    with pytest.raises(SizeLimitExceeded, match=f"^closure exceeded {size - 1} elements$"):
        _close(projections, a, size - 1)
    assert len(_close(projections, a, size)[0]) == size
    for bound in (-1, size - 1, size):
        evidence = hm_evidence(a, j, max_tuples=bound)
        assert evidence.labeling.sigma == {"f": (1,)} and verify_witness(a, evidence.witness)
    # a negative bound refuses the first seed
    with pytest.raises(SizeLimitExceeded, match="^closure exceeded -1 elements$"):
        _close(projections, a, -1)
    if j == 3:
        monkeypatch.setattr(freecons, "_two_element_witness", lambda a, labeling: None)
        with pytest.raises(SizeLimitExceeded, match=f"^closure exceeded {size - 1} elements$"):
            hm_evidence(a, j, max_tuples=size - 1)
        assert hm_evidence(a, j, max_tuples=size) == ConsistentLabelingFound(SLLabeling({"f": (1,)}), j)
        with pytest.raises(SizeLimitExceeded, match="^closure exceeded -1 elements$"):
            hm_evidence(a, j, max_tuples=-1)


def test_evidence_without_a_witness_overflows_by_the_same_rule():
    """hard.json has no two-element witness, so every labeling rides the
    rank-2 closure until it is refuted, the last after 470 pairs: 469
    overflow with the engine's message, 470 certify, and a negative bound
    refuses the first seed, as the reference search one labeling at a time
    does."""
    a = FiniteAlgebra(3, {"f": OperationTable(2, 3, (0, 1, 2, 2, 1, 1, 1, 0, 2))})
    assert checked_witness_search(a) is None
    for bound in (-1, 469):
        with pytest.raises(SizeLimitExceeded, match=f"^closure exceeded {bound} elements$"):
            hm_evidence(a, 2, max_tuples=bound)
    assert isinstance(hm_evidence(a, 2, max_tuples=470), CertifiedHM)
    for bound in (-1, 469, 470):
        assert evidence_outcome(hm_evidence, a, 2, bound) == evidence_outcome(hm_evidence_reference, a, 2, bound)


def test_engine_raises_its_overflow_after_yielding_the_cut_batch():
    """The batch that holds the (max_elements + 1)-th element is yielded cut
    there, and the engine raises when pulled again; a bound of the closure's
    size yields every batch whole."""
    a = FiniteAlgebra(3, {"f": OperationTable(2, 3, (0, 2, 0, 2, 1, 2, 2, 1, 2))})
    projections = list(zip(*itertools.product(range(3), repeat=2)))
    for bound in (-1, 0, 1, 2, 5, 13):
        elements, batches = [], []
        steps = _grow(projections, a, bound, elements, [], {})
        with pytest.raises(SizeLimitExceeded, match=f"^closure exceeded {bound} elements$"):
            for *_, batch, ids, added in steps:
                batches.append((len(ids), len(batch)))
        assert all(i == b for i, b in batches[:-1]) and batches[-1][0] < batches[-1][1]
        assert len(elements) == max(bound, 0)
    elements, batches = [], []
    for *_, batch, ids, added in _grow(projections, a, 14, elements, [], {}):
        batches.append((len(ids), len(batch)))
    assert all(i == b for i, b in batches) and len(elements) == 14


def test_verify_certificate_returns_false_for_a_malformed_certificate(majority_algebra):
    """A certificate that is no CertifiedHM, or whose refutations are no
    tuple, is refused rather than raising."""
    evidence = hm_evidence(majority_algebra)
    for bad in (None, ("x",), tuple(evidence), evidence._replace(refutations=5), evidence._replace(refutations=None)):
        assert verify_certificate(majority_algebra, bad) is False, bad
    assert verify_certificate(majority_algebra, evidence) is True


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
    # every refutation is found at rank 2 of 3; a claimed arity out of 2..3,
    # or a bound below it, is refused, and so is a malformed one
    assert {r.arity for r in evidence.refutations} == {2} and evidence.max_arity == 3
    for k in (0, len(evidence.refutations) - 1):
        for bad in (99, 4, 1, 0, -2, "2", None, 2.0, True):
            r = evidence.refutations[k]._replace(arity=bad)
            refutations = evidence.refutations[:k] + (r,) + evidence.refutations[k + 1:]
            assert verify_certificate(majority_algebra, CertifiedHM(evidence.max_arity, refutations)) is False, bad
    for bad in (1, 0, None, "3", 3.0):
        assert verify_certificate(majority_algebra, evidence._replace(max_arity=bad)) is False, bad
    # both sides use only the arity's variables: x = m(x,x,z) holds, and
    # under m->{1,2,3} its sets are {x} and {x,z}, a refutation at rank 3 only
    r = evidence.refutations[2]
    assert r.labeling.sigma == {"m": (1, 2, 3)}
    x, z = Variable("x"), Variable("z")
    r = r._replace(rhs=Application("m", (x, x, z)), rhs_varset=frozenset("xz"))
    for arity, replays in ((2, False), (3, True)):
        refutations = evidence.refutations[:2] + (r._replace(arity=arity),) + evidence.refutations[3:]
        assert verify_certificate(majority_algebra, CertifiedHM(evidence.max_arity, refutations)) is replays

    # a cover of two symbols, the first projection a and the majority b:
    # a->{1} survives a's batch and its seven b prefixes are refuted, while
    # a->{1,2} and a->{2} are refuted whole.  Any partition of the labelings
    # into blocks in order replays; a dropped, duplicated, overlapping or
    # misplaced block, a prefix that skips a symbol, a coordinate set that is
    # no choice and an identity outside its prefix are refused, not raised
    two = FiniteAlgebra(2, {"a": OperationTable(2, 2, (0, 0, 1, 1)), "b": majority_algebra.operations["m"]})
    cover = hm_evidence(two)
    entries = cover.refutations
    assert [r.labeling.describe() for r in entries[6:]] == ["a->{1} b->{3}", "a->{1,2}", "a->{2}"]
    assert verify_certificate(two, cover) is True
    a12, a2 = entries[7], entries[8]
    inside = [a12._replace(labeling=SLLabeling({"a": (1, 2), "b": c})) for c in coordinate_sets(3)]
    assert verify_certificate(two, cover._replace(refutations=entries[:7] + tuple(inside) + (a2,))) is True
    assert str(entries[0].lhs) == "y" and str(entries[0].rhs) == "b(x,y,y)"
    tampered = [
        entries[1:],  # dropped: the first, an inner and the last entry
        entries[:3] + entries[4:],
        entries[:-1],
        entries[:8] + (a12,) + entries[8:],  # a duplicated block
        entries[:7] + (inside[0], a12, a2),  # a block that overlaps the one before
        entries[:8] + (inside[0], a2),  # a block inside the one before
        entries[:7] + (a2, a12),  # two blocks swapped
        (entries[1], entries[0]) + entries[2:],
        (entries[0]._replace(labeling=SLLabeling({"b": (1,)})), a12, a2),  # skips a
        entries + (a2,),  # a block past the last
    ]
    for coords in ((3,), (0,), (), (1, 1), ("1",), (1, 2, 3)):  # no coordinate set of the binary a
        tampered.append(entries[:7] + (a12._replace(labeling=SLLabeling({"a": coords})), a2))
    tampered.append(entries[:7] + (a12._replace(lhs=entries[0].lhs, rhs=entries[0].rhs), a2))  # b, outside a->{1,2}
    for refutations in tampered:
        assert verify_certificate(two, cover._replace(refutations=refutations)) is False, refutations


def test_verify_certificate_returns_false_for_a_malformed_labeling(majority_algebra):
    evidence = hm_evidence(majority_algebra)
    for k in (0, len(evidence.refutations) - 1):
        r = evidence.refutations[k]
        plain = r._replace(labeling=dict(r.labeling.sigma))  # the sigma, but no SLLabeling
        refutations = evidence.refutations[:k] + (plain,) + evidence.refutations[k + 1:]
        assert not verify_certificate(majority_algebra, CertifiedHM(evidence.max_arity, refutations))


def test_verify_certificate_refuses_a_set_outside_the_arity_or_a_later_block(majority_algebra):
    """The replay steps coordinate sets of the ternary m itself: an entry
    whose set lies outside {1,2,3}, is empty, or starts a later block than
    the next one uncovered is refused, not raised on."""
    evidence = hm_evidence(majority_algebra)
    entries = evidence.refutations
    assert [r.labeling.sigma["m"] for r in entries] == coordinate_sets(3)
    for k, r in enumerate(entries):
        later = [entries[i].labeling for i in range(k + 1, len(entries))]
        for labeling in [SLLabeling({"m": c}) for c in ((4,), (1, 4), (1, 2, 3, 4), (0,), ())] + later:
            refutations = entries[:k] + (r._replace(labeling=labeling),) + entries[k + 1:]
            assert verify_certificate(majority_algebra, evidence._replace(refutations=refutations)) is False, (k, labeling)


def test_verify_certificate_returns_false_for_a_malformed_refutation(majority_algebra):
    """A refutation that is no LabelingRefutation, or whose side is no term
    over the algebra's symbols, is refused rather than raising, at the first
    and the last refutation."""
    evidence = hm_evidence(majority_algebra)
    x = Variable("x")
    for k in (0, len(evidence.refutations) - 1):
        r = evidence.refutations[k]
        for bad in (
            r._replace(lhs="x"),
            r._replace(rhs=None),
            tuple(r),
            None,
            r._replace(rhs=Application("m", (x, "x", x))),
            r._replace(lhs=Variable(["x"])),
            r._replace(rhs=Application(["m"], (x, x, x))),
        ):
            refutations = evidence.refutations[:k] + (bad,) + evidence.refutations[k + 1:]
            assert not verify_certificate(majority_algebra, CertifiedHM(evidence.max_arity, refutations)), bad
    assert verify_certificate(majority_algebra, evidence)


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
        for labeling in all_labelings(declarations(a)):
            got = refute_labeling(a, labeling, max_arity, 10**6)
            want = refute_labeling_reference(labeling, max_arity, free_ats[id(a)])
            # refuted or not, and at which rank; the identities may differ
            assert (got is None, getattr(got, "arity", None)) == (want is None, getattr(want, "arity", None))
            if got is not None:
                assert holds_in(a, Identity(got.lhs, got.rhs), a.operations)
                lhs, rhs = labeled_variables(got.lhs, labeling), labeled_variables(got.rhs, labeling)
                assert (got.lhs_varset, got.rhs_varset) == (lhs, rhs) and lhs != rhs
                refuted += 1
    assert refuted > 100

    def verdict(a, evidence):
        if isinstance(evidence, ConsistentLabelingFound):
            return evidence
        return evidence.max_arity, [(r.labeling, r.arity) for r in expanded(a, evidence).refutations]

    evidence = [hm_evidence(a) for a in algebras]
    assert all(verify_certificate(a, e) for a, e in zip(algebras, evidence) if isinstance(e, CertifiedHM))

    def reference(a, labeling, max_arity, max_tuples):
        return refute_labeling_reference(labeling, max_arity, free_ats[id(a)])

    want = [verdict(a, hm_evidence_reference(a, refute=reference)) for a in algebras]
    assert list(map(verdict, algebras, evidence)) == want


def test_hm_evidence_covers_each_labeling_by_the_entry_that_holds_it(
    majority_algebra, meet_algebra, lattice_algebra, bare_algebra
):
    """Fixture and seeded idempotent algebras with 1-4 symbols: the verdict
    and first survivor are the reference's; a certificate replays, its
    entries label prefixes of the sorted symbols, the entry that holds a
    labeling refutes it, and expanding the cover gives the reference's
    refutations, in order."""
    rng = random.Random(39)
    draws = []
    for _ in range(120):
        arities = [rng.randint(1, 2) for _ in range(rng.randint(1, 4))]
        arities[rng.randrange(len(arities))] = rng.randint(1, 3)
        size = rng.choice((2, 2, 3)) if len(arities) < 3 else 2
        draws.append(FiniteAlgebra(size, {f"f{i}": idempotent_table(rng, size, n) for i, n in enumerate(arities)}))
    four = FiniteAlgebra(2, {f"m{i}": majority_algebra.operations["m"] for i in range(4)})
    kinds = Counter()
    for a in [majority_algebra, meet_algebra, lattice_algebra, bare_algebra, four] + draws:
        got, want = hm_evidence(a), hm_evidence_reference(a)
        if isinstance(want, ConsistentLabelingFound):
            assert got == want
            kinds["survivor"] += 1
            continue
        assert isinstance(got, CertifiedHM) and verify_certificate(a, got)
        symbols = a.symbols()
        for labeling, entry in expand_cover(declarations(a), got.refutations):
            assert list(entry.labeling.sigma) == symbols[: len(entry.labeling.sigma)]
            lhs, rhs = labeled_variables(entry.lhs, labeling), labeled_variables(entry.rhs, labeling)
            assert lhs != rhs and (lhs, rhs) == (entry.lhs_varset, entry.rhs_varset)
        assert expanded(a, got) == want
        kinds["certified"] += 1
        kinds["cover shorter than the labelings"] += len(got.refutations) < len(want.refutations)
    assert kinds["survivor"] > 60 and kinds["certified"] > 30 and kinds["cover shorter than the labelings"] > 15


def seeded_evidence_inputs():
    """500 seeded (algebra, arity bound, max_tuples): 1-3 elements, 0-3
    idempotent operations of arity 1-3, arity bounds 1-4, and max_tuples
    small enough for refusals or large enough to close."""
    rng = random.Random(26)
    for _ in range(500):
        size = rng.randint(1, 3)
        a = FiniteAlgebra(size, {f"f{i}": idempotent_table(rng, size, rng.randint(1, 3)) for i in range(rng.randint(0, 3))})
        yield a, rng.randint(1, 4), rng.choice([rng.randint(1, 60), 3000])


def test_hm_evidence_matches_the_search_one_labeling_at_a_time():
    kinds = Counter()
    for args in seeded_evidence_inputs():
        a = args[0]
        got = evidence_outcome(hm_evidence, *args)
        assert got == evidence_outcome(hm_evidence_reference, *args)
        witness = checked_witness_search(a)
        if witness is not None:  # so never a certificate: the witnessed labeling survives its own closures
            try:
                assert refute_labeling(a, witness.labeling, *args[1:]) is None
                kinds["witnessed labeling survived its closures"] += 1
            except SizeLimitExceeded:
                pass
        kinds[got[0]] += 1
        kinds["survived a closure of rank 3 or above"] += got[0] == "survivor" and got[2] >= 3
    assert kinds["raised"] > 30 and kinds["certified"] > 100 and kinds["survivor"] > 100
    assert kinds["survived a closure of rank 3 or above"] > 50
    assert kinds["witnessed labeling survived its closures"] > 150


def test_witness_search_matches_the_oracle_on_the_corpora():
    """The 64 idempotent two-element algebras with one ternary operation and
    120 seeded idempotent three-element ones with one binary operation: the
    least witnessed labeling and its witness are the oracle's, each replays,
    the labeling survives its own closures up to the default arity, so no
    certificate exists, and a witnessed algebra reports its witness unless
    a labeling before it survives the bounded search."""
    rng = random.Random(12)
    corpus = [
        FiniteAlgebra(2, {"t": OperationTable(3, 2, (0, *free, 1))}) for free in itertools.product((0, 1), repeat=6)
    ]
    corpus += [FiniteAlgebra(3, {"f": idempotent_table(rng, 3, 2)}) for _ in range(120)]
    kinds = Counter()
    for a in corpus:
        witness = checked_witness_search(a)
        evidence = hm_evidence(a)
        kinds["certified"] += isinstance(evidence, CertifiedHM)
        if witness is not None:
            assert verify_witness(a, witness)
            assert refute_labeling(a, witness.labeling, default_evidence_arity(a), DEFAULT_MAX_TUPLES) is None
            assert evidence.witness in (None, witness) and (evidence.witness is None) == (evidence.labeling != witness.labeling)
            kinds["witnessed" if evidence.witness else "survivor before the witness"] += 1
        # at bound 1 no rank is closed: the first labeling is the answer, witnessed exactly when it is L
        first = next(all_labelings(declarations(a)))
        bounded = hm_evidence(a, 1)
        assert bounded.labeling == first and bounded.witness in (None, witness)
        assert (bounded.witness is not None) == (witness is not None and witness.labeling == first)
        kinds["witnessed at bound 1"] += bounded.witness is not None
    assert kinds["certified"] > 20 and kinds["witnessed"] > 80 and kinds["witnessed at bound 1"] > 20


def affine_mod_17():
    """x o y = 2x - y and x - y + z, mod 17."""
    n = 17
    return (
        FiniteAlgebra(n, {"f": OperationTable(2, n, tuple((2 * x - y) % n for x in range(n) for y in range(n)))}),
        FiniteAlgebra(n, {"p": OperationTable(3, n, tuple((x - y + z) % n for x, y, z in itertools.product(range(n), repeat=3)))}),
    )


def test_witness_search_stays_small_when_every_pair_generates_a():
    """x o y = 2x - y mod 17 is affine, so it has no witness, and Sg(a, b) is
    all 17 elements for every pair: 2^15 maps per ordered pair with h(a) = 0
    and h(b) = 1.  The labeling closure of Sg(a, b) refutes the three
    labelings of each ordered pair by the time it holds all 17 elements, and
    evidence certifies with 20 pairs per labeling.  So does x - y + z mod
    17, whose seven labelings all collide in the first round of each pair's
    closure.  At arity bound 1 no rank is closed, so the witness search
    tests the first labeling over all 272 ordered pairs and finds none: it
    is bounded evidence only."""
    n = 17
    for a in affine_mod_17():
        assert all(len(_close([(x,), (y,)], a, n)[0]) == n for x, y in itertools.combinations(range(n), 2))
        assert all(_two_element_witness(a, tuple(lab.sigma.values())) is None for lab in all_labelings(declarations(a)))
        evidence = hm_evidence(a, 2, max_tuples=20)
        assert isinstance(evidence, CertifiedHM) and verify_certificate(a, evidence)
        evidence = hm_evidence(a, 1)
        assert isinstance(evidence, ConsistentLabelingFound) and evidence.max_arity == 1 and evidence.witness is None


def test_a_labeling_that_survives_rank_2_survives_every_rank():
    """Every labeling the rank-2 closure leaves, closed with all the others
    at each rank up to the bound, is refuted at none: its algebra of meets
    is a quotient of F_2, so every identity keeps its labeled sets.  They
    overflow together or survive together.  Over the seeded draw and the 64
    two-element ternary algebras at rank 3."""
    corpus = list(seeded_evidence_inputs())
    corpus += [
        (FiniteAlgebra(2, {"t": OperationTable(3, 2, (0, *free, 1))}), 3, DEFAULT_MAX_TUPLES)
        for free in itertools.product((0, 1), repeat=6)
    ]
    kinds = Counter()
    for a, m, max_tuples in corpus:
        live = _refute_rank(a, 2, max_tuples, [()], [])
        for j in range(3, m + 1):
            if not live:  # all refuted at rank 2, or all overflowed
                break
            decided: list = []
            survivors = _refute_rank(a, j, max_tuples, live, decided)
            assert all(isinstance(outcome, SizeLimitExceeded) for _, outcome in decided)
            assert survivors in ([], live)
            kinds["survived a rank above 2"] += len(survivors)
            kinds["overflowed a rank above 2"] += len(decided)
            live = survivors
    assert kinds["survived a rank above 2"] > 100 and kinds["overflowed a rank above 2"] > 5


def test_hm_evidence_tests_each_labeling_for_a_witness_at_most_once(majority_algebra, monkeypatch):
    """The witness search tests P, the first labeling not yet refuted, once:
    after rank 2, or at once when no rank is closed.  One labeling on the
    mod-17 algebras at bound 1, none when rank 2 refutes every labeling,
    and at most one on each input of the seeded draw.  The draw runs again
    as if no labeling had a witness, so that P rides every rank up to the
    bound."""
    import hmkit.freecons as freecons

    tested, ranks = [], []
    witness_search, refute_rank = freecons._two_element_witness, freecons._refute_rank

    def counting(search):
        def counting_witness(a, labeling):
            tested.append(labeling)
            return search(a, labeling)

        return counting_witness

    def counting_rank(a, j, *args):
        ranks.append(j)
        return refute_rank(a, j, *args)

    monkeypatch.setattr(freecons, "_two_element_witness", counting(witness_search))
    monkeypatch.setattr(freecons, "_refute_rank", counting_rank)
    for a in affine_mod_17():
        tested.clear()
        hm_evidence(a, 1)
        assert len(tested) == 1
    tested.clear()
    assert isinstance(hm_evidence(majority_algebra), CertifiedHM) and tested == []
    kinds = Counter()
    for search in (witness_search, lambda a, labeling: None):
        monkeypatch.setattr(freecons, "_two_element_witness", counting(search))
        for args in seeded_evidence_inputs():
            tested.clear()
            ranks.clear()
            try:
                hm_evidence(*args)
            except SizeLimitExceeded:
                pass
            assert len(tested) <= 1
            kinds["one labeling tested over several ranks"] += len(tested) == 1 < len(ranks)
    assert kinds["one labeling tested over several ranks"] > 50


def test_verify_witness_refuses_a_broken_witness_without_raising():
    # survivor.json: t0 -> {1} and t1 -> {1,2} through h(2) = 0, h(0) = 1 on B = {0, 2}
    a = FiniteAlgebra(3, {
        "t0": OperationTable(2, 3, (0, 2, 0, 2, 1, 1, 2, 1, 2)),
        "t1": OperationTable(2, 3, (0, 0, 2, 2, 1, 2, 2, 0, 2)),
    })
    witness = hm_evidence(a, 3).witness
    labeling = SLLabeling({"t0": (1,), "t1": (1, 2)})
    assert witness == TwoElementWitness((2, 0), (0, 2), (1, 0), labeling) and verify_witness(a, witness)
    sigma = labeling.sigma
    broken = [
        witness._replace(bits=(0, 0)),  # h is not onto
        witness._replace(pair=(0, 2)),  # h(a) = 1 and h(b) = 0
        witness._replace(labeling=SLLabeling(sigma | {"t1": (1,)})),  # a wrong set: t1(0, 2) = 2 breaks the meet
        witness._replace(labeling=SLLabeling(sigma | {"t0": (2,)})),
        witness._replace(subuniverse=(0, 1), pair=(1, 0)),  # B not closed: t0(0, 1) = 2
        witness._replace(subuniverse=(0, 1, 2), bits=(1, 1, 0)),  # closed, but t0(0, 1) = 2 breaks the meet
        witness._replace(pair=(1, 0)),  # a outside B
        witness._replace(pair=(2, 3)),  # b outside A
        # malformed
        witness._replace(bits=(1, 0, 0)), witness._replace(bits=(True, False)), witness._replace(bits=[1, 0]),
        witness._replace(subuniverse=(0, 0), bits=(1, 0)), witness._replace(subuniverse=(0, -1)), witness._replace(pair=(2,)),
        witness._replace(labeling=SLLabeling({"t0": (1,)})), witness._replace(labeling=SLLabeling(sigma | {"t1": (1, 3)})),
        witness._replace(labeling=SLLabeling(sigma | {"t1": ()})), witness._replace(labeling=SLLabeling(sigma | {"t1": (0, 1)})),
        witness._replace(labeling=sigma), tuple(witness), None,
    ]
    assert [verify_witness(a, w) for w in broken] == [False] * len(broken)


def test_hm_evidence_matches_the_reference_on_many_labelings():
    # five majority symbols: 16,807 labelings, all refuted at rank 2 in one closure
    majority = OperationTable(3, 2, (0, 0, 0, 1, 0, 1, 1, 1))
    a = FiniteAlgebra(2, {f"m{i}": majority for i in range(5)})
    got = evidence_outcome(hm_evidence, a)
    assert len(got[2]) == 7**5 and len(hm_evidence(a).refutations) == 7
    assert got == evidence_outcome(hm_evidence_reference, a)


def test_hm_evidence_reports_an_early_survivor_without_building_the_other_labelings(monkeypatch):
    import hmkit.freecons as freecons
    import hmkit.identlang as identlang

    # seven first projections: 3^7 = 2,187 labelings, the first of which,
    # every symbol -> {1}, survives
    a = FiniteAlgebra(2, {f"p{i}": OperationTable(2, 2, (0, 0, 1, 1)) for i in range(7)})
    expected = hm_evidence_reference(a)
    assert expected.labeling.sigma == {f"p{i}": (1,) for i in range(7)}
    built = []

    def counting(sigma):
        built.append(sigma)
        return SLLabeling(sigma)

    monkeypatch.setattr(identlang, "SLLabeling", counting)
    monkeypatch.setattr(freecons, "SLLabeling", counting)
    assert hm_evidence(a) == expected
    assert len(built) <= 1


def test_refute_labeling_builds_deep_representatives_without_recursion(monkeypatch):
    import hmkit.freecons as freecons

    # A hand-built first round of the term closure at rank 2 over a
    # 3-element algebra (the search reads only the batches and the seeds;
    # the engine ends a closure that holds the whole power, so the power,
    # 3^9 tuples, must outgrow the chain): element e >= 2 is (e,), derived
    # as f(e - 1, x), so the last of them nests `depth` applications of f
    # around y.  Under f -> {1} each of them has the set {y}, and the final
    # tuple f(y, deep) has the value of x, whose set is {x}.
    depth = 3000
    n = depth + 2

    def hand_built(table, elements, old, new):
        for e in range(2, n):
            yield (e - 1,), 0, [(e,)]
        yield (1,), n - 1, [elements[0]]

    monkeypatch.setattr(freecons, "_batches", hand_built)
    three = FiniteAlgebra(3, {"f": OperationTable(2, 3, (0, 0, 0, 1, 1, 1, 2, 2, 2))})
    decided = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        # the prefix ((1,),) is the labeling f -> {1}, the first coordinate set of arity 2
        assert _refute_rank(three, 2, n + 1, [((1,),)], decided) == []
    finally:
        sys.setrecursionlimit(limit)
    ((prefix, (arity, lhs, rhs, lhs_varset, rhs_varset)),) = decided
    assert (prefix, arity, lhs) == (((1,),), 2, Variable("x"))
    assert (lhs_varset, rhs_varset) == (frozenset("x"), frozenset("y"))
    assert rhs.symbol == "f" and rhs.args[0] == Variable("y")
    t, nested = rhs.args[1], 0
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
# collapse once built them, `upper_indices`, kept there since nothing in
# the library reads it, and the fields `x`, `y` and `semilattice` and the
# methods `hom_count` and `generator_image`, which the bundle once held and
# which ReferenceBundle reads off the generators and each component's homs
# and images.  Claim 4's pieces are built once per combination
# (`shaped_pieces_reference`), as they depend on nothing else.  One change
# in behaviour is known: where a restriction spans components, the
# reference stops the combination loop before claim 4, so claim 4 passes.


class ReferenceBundle(FreeBundle):
    """A collapsed bundle with the fields and methods the reference reads."""

    psi: Homomorphism | None = None  # free structure -> union_structure
    union_structure: RelationalStructure | None = None  # the union of the components' powers of S
    offsets: tuple[int, ...] | None = None
    image: tuple[int, ...] | None = None  # sorted union ids in the image
    x: int | None = None  # the generators
    y: int | None = None
    semilattice: RelationalStructure | None = None

    def hom_count(self, u: int) -> int:
        return len(self.components[u].homs)

    def generator_image(self, u: int, generator: int) -> int:
        """K id of the image of u applied to a generator (x or y)."""
        return self.quotient_map[self.components[u].images[self.free.generators.index(generator)]]

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
    S = two_element_semilattice()
    summands = [power(S, len(c.homs)) if c.homs else one_element_structure() for c in bundle.components]
    offsets = tuple(itertools.accumulate((s.size for s in summands[:-1]), initial=0))
    mapping = [0] * bundle.free.algebra.size
    for comp, offset in zip(bundle.components, offsets):
        h = len(comp.homs)
        for local, e in enumerate(comp.members):
            mapping[e] = offset + rank([hom[local] for hom in comp.homs], [2] * h)
    union = disjoint_union(summands)
    psi = Homomorphism(bundle.structure, union, tuple(mapping))
    ref = ReferenceBundle(*(getattr(bundle, name) for name in FreeBundle._fields))
    ref.psi, ref.union_structure, ref.offsets, ref.image = psi, union, offsets, tuple(sorted(set(mapping)))
    ref.x, ref.y = bundle.free.generators
    ref.semilattice = S
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
    pieces_of = functools.cache(lambda comb: shaped_pieces_reference(bundle, comb))

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
                    # decompose_product_hom takes each factor's largest
                    # element as its top: the generator's image, by claim 1
                    assert [largest_element(f) for f in factors] == [
                        bundle.components[ul].kids.index(bundle.generator_image(ul, bundle.y))
                        for ul in comb
                    ]
                    h = bundle.hom_count(u)
                    for c in range(h):
                        coord_values = [bundle.coords_of_kid(v)[c] for v in values]
                        try:
                            dec = decompose_product_hom(factors, S, coord_values)
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
                    count = count_shaped_extensions_reference(bundle, pieces_of(comb), points, values)
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


def shaped_pieces_reference(bundle: ReferenceBundle, comb: tuple[int, ...]) -> tuple[list, list]:
    """The points of the product of powers of a combination, and every
    distinct shaped map on it, sorted.

    A shaped piece is either constant, or targets one non-trivial component
    with every coordinate given by a constant or a meet of projections onto
    chosen coordinates of non-trivial factors.  Pieces are deduplicated
    extensionally.
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
    return epoints, sorted(pieces)


def count_shaped_extensions_reference(
    bundle: ReferenceBundle,
    pieces: tuple[list, list],
    points: list[tuple[int, ...]],
    values: list[int],
) -> int:
    """Count distinct shaped maps on the product of powers extending f,
    among `pieces`, the `shaped_pieces_reference` of the combination."""
    epoints, shaped = pieces
    # embed the restriction's domain into the product of powers
    dom_index = []
    for p in points:
        epoint = tuple(bundle.rank_of_kid(kid)[1] for kid in p)
        dom_index.append(epoints.index(epoint))
    fvals = [bundle.image[v] for v in values]

    count = 0
    for piece in shaped:
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
                Homomorphism(sub, two_element_semilattice(), hom)
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
            sorted(bundle.free.algebra.labels[e] for e in block) for block in kernel(ref.psi)
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


def test_count_shaped_extensions_matches_reference(monkeypatch):
    """Claim 4 counts the shaped extensions of every drawn restriction as
    the reference does: hom_maps yields the restriction alone, on its own
    combination, and claim 4 passes exactly when the reference counts 1."""
    import hmkit.freecons as freecons

    rng = random.Random(83)
    cases = []  # (bundle, comb, restrictions per kind)
    for bundle in claims_bundles() + [build_bundle(THREE_HOMS)]:
        top = max(len(c.homs) for c in bundle.components)
        for arity in (1, 2) if top <= 2 else (1,):
            cases += [(bundle, comb, 6) for comb in itertools.product(range(len(bundle.components)), repeat=arity)]
    cases.append((build_bundle(FOUR_HOMS), (0,), 2))
    assert {len(comb) for _, comb, _ in cases} == {1, 2}
    seen: dict[int, int] = {}
    shaped = 0
    for bundle, comb, draws in cases:
        ref = reference_bundle(bundle)
        points = component_points_reference(ref, comb)
        pieces = shaped_pieces_reference(ref, comb)
        # verify_claims reads combinations by arity, then lexicographically
        nU = len(bundle.components)
        combs = [c for arity in range(1, len(comb) + 1) for c in itertools.product(range(nU), repeat=arity)]
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
            want = count_shaped_extensions_reference(ref, pieces, points, values)
            calls = iter(combs)
            monkeypatch.setattr(freecons, "hom_maps", lambda source, target: iter([tuple(values)] if next(calls) == comb else []))
            expected = "pass" if want == 1 else f"fail (arity {len(comb)}, components {comb}: {want} extensions)"
            assert report_lines(verify_claims(bundle, len(comb)))[3] == f"claim 4 (unique shaped extension): {expected}"
            seen[want] = seen.get(want, 0) + 1
    assert shaped > 100
    assert {0, 1} <= set(seen)


def test_verify_claims_matches_reference(meet_algebra, lattice_algebra, majority_algebra, bare_algebra):
    named = [build_bundle(a) for a in (meet_algebra, lattice_algebra, majority_algebra, bare_algebra)]
    for bundle in named + claims_bundles() + [build_bundle(THREE_HOMS)]:
        top = max(len(c.homs) for c in bundle.components)
        # arity-2 polymorphisms of a larger image are too many for the reference
        max_arity = 2 if top <= 2 and bundle.K.size <= 3 else 1
        report = verify_claims(bundle, max_arity)
        assert report_lines(report) == report_lines(verify_claims_reference(reference_bundle(bundle), max_arity))


def test_verify_claims_component_with_four_homomorphisms():
    bundle = build_bundle(FOUR_HOMS)
    assert [len(c.kids) for c in bundle.components] == [5]
    assert len(bundle.components[0].homs) == 4
    report = verify_claims(bundle, 1)
    assert report.passed, report_lines(report)


def column_failure_reference(
    bundle: ReferenceBundle,
    comb: tuple[int, ...],
    factors: list[RelationalStructure],
    c: int,
    column: tuple[int, ...],
) -> str:
    """Why coordinate c of a non-constant restriction is no meet of
    single-coordinate projections, or "" when it is one.

    column is that coordinate's bit at each point, in rank order, of the
    product of the combination's collapsed components.  Each factor's map
    is classified from the reference's coordinates of its kids alone.
    """
    arity = len(comb)
    try:
        dec = decompose_product_hom(factors, two_element_semilattice(), column)
    except (StructureError, DecompositionError) as exc:
        return f"arity {arity}: {exc}"
    if dec.is_constant:
        return ""
    projections = 0
    for ell, cmap in enumerate(dec.coordinate_maps):
        if classify_into_coords_reference(bundle, comb[ell], cmap)[0] == "projection":
            if not bundle.components[comb[ell]].homs:
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
        ref = reference_bundle(bundle)
        for arity in (1, 2):
            for comb in itertools.product(range(len(bundle.components)), repeat=arity):
                factors = [bundle.components[u].collapsed for u in comb]
                # decompose_product_hom takes each factor's largest element as its top: the generator's image
                assert [largest_element(f) for f in factors] == [
                    bundle.components[u].kids.index(bundle.quotient_map[bundle.components[u].images[1]]) for u in comb
                ]
                prod = product(factors)
                points = list(itertools.product(*(bundle.components[u].kids for u in comb)))
                shapes = _shape_table(bundle, comb, points)
                columns = set(shapes)
                for values in hom_maps(prod, bundle.K):
                    if len({bundle.decode[v][0] for v in values}) == 1:
                        columns.update(zip(*(bundle.decode[v][1] for v in values)))
                columns.update(tuple(rng.randrange(2) for _ in points) for _ in range(20))
                for column in sorted(columns):
                    failure = column_failure_reference(ref, comb, factors, 0, column)
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
    hom_maps = freecons.hom_maps
    checked = 0  # the claims read each restriction once while they pass

    def counting(source, target):
        nonlocal checked
        for values in hom_maps(source, target):
            checked += 1
            yield values

    monkeypatch.setattr(freecons, "hom_maps", counting)
    report = verify_claims(bundle, 2)
    assert report.passed, report_lines(report)
    assert checked == counts[1] + counts[2]


def test_verify_claims_refuses_an_arity_below_1(meet_algebra):
    bundle = build_bundle(meet_algebra)
    for max_arity in (0, -1):
        with pytest.raises(StructureError, match="arity must be >= 1"):
            verify_claims(bundle, max_arity)


def _without_loop(bundle):
    meets = bundle.K.relations["R"].tuples
    return bundle._replace(K=RelationalStructure(bundle.K.size, {"R": Relation(3, meets - {(0, 0, 0)})}))


def _full_component(bundle):
    full = RelationalStructure(2, {"R": Relation(3, frozenset(itertools.product((0, 1), repeat=3)))})
    return bundle._replace(components=(bundle.components[0]._replace(collapsed=full),))


def _swapped_bits(bundle):
    return bundle._replace(decode=tuple((u, tuple(1 - b for b in bits)) for u, bits in bundle.decode))


def _images(pick):
    def patch(bundle):
        images = bundle.components[0].images
        return bundle._replace(components=(bundle.components[0]._replace(images=tuple(images[i] for i in pick)),))

    return patch


def _extra_triple(bundle):
    meets = bundle.K.relations["R"].tuples
    return bundle._replace(K=RelationalStructure(bundle.K.size, {"R": Relation(3, meets | {(1, 1, 0)})}))


@pytest.mark.parametrize(
    "patch, verify, name, detail",
    [
        (_without_loop, verify_lemma22, "item 1 (reflexive)", ""),
        # the full relation takes every map from S, but none back onto it
        (_full_component, verify_lemma22, "item 3 (retract)", "no retraction fixing the generator images"),
        (_swapped_bits, verify_lemma22, "item 4 (coordinate maps)", "component 0: map (0, 1) is neither"),
        (_full_component, verify_claims, "claim 1 (partial semilattices with tops)", "component 0 refused: not functional"),
        (_images((1, 0)), verify_claims, "claim 1 (partial semilattices with tops)", "component 0: largest 1 != image of generator 0"),
        (_images((1, 1)), verify_claims, "claim 2 (generator pair detects size)", "component 0: size/agreement mismatch"),
        # at arity 2 the extra triple breaks claims 3 and 4 as well
        (
            _extra_triple, functools.partial(verify_claims, max_arity=1), "claim 2 (generator pair detects size)",
            "component 0: generator pair does not induce the semilattice",
        ),
    ],
    ids=["item 1", "item 3", "item 4", "claim 1 refused", "claim 1 top", "claim 2 size", "claim 2 pair"],
)
def test_verification_names_each_failure_on_a_patched_bundle(meet_algebra, patch, verify, name, detail):
    """The meet algebra's bundle (F = {x, y, x meet y}, one component whose
    image K is S) passes every check; each patch breaks one of them, which
    fails with its own detail while the others pass."""
    bundle = build_bundle(meet_algebra)
    assert verify(bundle).passed
    results = {r.name: (r.status, r.detail) for r in verify(patch(bundle)).results}
    assert results.pop(name) == (FAIL, detail)
    assert set(results.values()) == {(PASS, "")}


def test_verify_lemma22_item5_names_the_first_separating_translation(meet_algebra):
    bundle = build_bundle(meet_algebra)._replace(quotient_map=(0, 0, 1))
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
            want = separating_translation_reference(bundle._replace(quotient_map=qmap))
            assert _separating_translation(bundle.free.algebra, qmap) == want
            details.add(want)
    assert len(details) > 50
