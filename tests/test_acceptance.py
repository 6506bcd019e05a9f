"""Acceptance gate: ten end-to-end checks over the library's core claims.

Every expected value here was frozen from an independent computation
(hand enumeration or a brute-force oracle in this suite); none were
copied from the implementation's own output.
"""

import itertools
import random
from math import comb

from hmkit.freecons import (
    CertifiedHM,
    ConsistentLabelingFound,
    build_bundle,
    bundle_summary,
    hm_evidence,
    verify_certificate,
    verify_claims,
    verify_lemma22,
)
from hmkit.gadget import analyze_gadget_components, gadget_transform
from hmkit.homsearch import find_homs, polymorphisms
from hmkit.identlang import (
    SLUnsat,
    hm_term_check,
    linear_fragment,
    parse,
    saturate,
    sl_interp_search,
)
from hmkit.semilat import (
    Refusal,
    classify_meet_operation,
    decompose_product_hom,
    is_partial_semilattice,
    largest_element,
)
from hmkit.structures import (
    Relation,
    RelationalStructure,
    disjoint_union,
    find_isomorphism,
    power,
    product,
    two_element_semilattice,
)

from conftest import (
    MAJORITY_SYSTEM,
    MALTSEV_SYSTEM,
    SEMILATTICE_SYSTEM,
    all_labelings,
    brute_force_homs,
    hm_pass_forces_unsat,
    iterated_meet,
    report_lines,
)


def test_01_polymorphism_census(S):
    """Arity 1, 2, 3 polymorphism counts are 3, 5, 9; all constants or meets."""
    counts = {}
    for arity in (1, 2, 3):
        tables = polymorphisms(S, arity)
        counts[arity] = len(tables)
        for t in tables:
            assert classify_meet_operation(t) is not None  # zero refusals
    assert counts == {1: 3, 2: 5, 3: 9}
    print("ACCEPTANCE 1 (polymorphism census on the semilattice): PASS")


def test_02_transform_golden_output(S, point):
    e0 = gadget_transform(S)
    assert e0.labels == ("(0,0)", "(0,1)", "(1,1)")
    assert e0.relations["R"].sorted_tuples() == [
        (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1), (2, 2, 2),
    ]
    assert find_isomorphism(e0, disjoint_union([S, point])) is not None
    print("ACCEPTANCE 2 (transform of the semilattice, golden value): PASS")


def test_03_component_multiplicity_law(S):
    for n in (1, 2):
        analysis = analyze_gadget_components(power(S, n))
        assert analysis.multiplicities() == {k: comb(n, k) for k in range(n + 1)}
    doubled = analyze_gadget_components(
        disjoint_union([power(S, 2), power(S, 2)])
    )
    assert doubled.multiplicities() == {0: 2, 1: 4, 2: 2}
    print("ACCEPTANCE 3 (transform component multiplicities): PASS")


def test_04_free_pipeline_meet_semilattice(meet_algebra, S):
    bundle = build_bundle(meet_algebra)
    assert bundle.free.algebra.size == 3
    assert len(bundle.components) == 1
    assert len(bundle.structure.relations["R"].tuples) == 10
    assert len(bundle.components[0].homs) == 1
    assert find_isomorphism(bundle.K, S) is not None
    assert bundle_summary(bundle)["kernel"] == [["meet(x,y)", "x"], ["y"]]

    lemma = verify_lemma22(bundle)
    assert [r.status for r in lemma.results] == ["pass"] * 6
    claims = verify_claims(bundle, 2)
    assert claims.passed, report_lines(claims)
    print("ACCEPTANCE 4 (free pipeline, meet semilattice input): PASS")


def test_05_free_pipeline_no_operations(bare_algebra, S):
    bundle = build_bundle(bare_algebra)
    assert find_isomorphism(bundle.structure, S) is not None
    assert find_isomorphism(bundle.K, S) is not None
    assert verify_lemma22(bundle).passed
    assert [r.status for r in verify_lemma22(bundle).results] == ["pass"] * 6
    assert verify_claims(bundle, 2).passed
    print("ACCEPTANCE 5 (free pipeline, empty signature input): PASS")


def test_06_free_pipeline_lattice(lattice_algebra):
    bundle = build_bundle(lattice_algebra)
    assert bundle.components[0].homs == ()
    assert bundle.K.size == 1
    statuses = {r.name: r.status for r in verify_lemma22(bundle).results}
    assert statuses.pop("item 3 (retract)") == "hypothesis absent"
    assert set(statuses.values()) == {"pass"}
    print("ACCEPTANCE 6 (free pipeline, lattice input): PASS")


def _random_partial_semilattice(rng):
    """Induced meet fragment of the 4-element Boolean semilattice.

    Elements are subsets of a 2-set as bitmasks; the sample always keeps
    the top so a largest element exists; meet triples stay inside the
    sample, so the ambient witnesses partiality directly.
    """
    size = rng.choice((2, 3, 4))
    others = [0, 1, 2]
    rng.shuffle(others)
    chosen = sorted(others[: size - 1]) + [3]
    local = {amb: i for i, amb in enumerate(chosen)}
    top = local[3]
    triples = set()
    for amb in chosen:
        i = local[amb]
        triples.update({(i, i, i), (i, top, i), (top, i, i)})
    for a in chosen:
        for b in chosen:
            if (a & b) in local and rng.random() < 0.6:
                triples.add((local[a], local[b], local[a & b]))
    return RelationalStructure(len(chosen), {"R": Relation(3, frozenset(triples))})


def test_07_decomposition_property_suite(S):
    seed = 7
    rng = random.Random(seed)
    instances = 0
    homs_checked = 0
    while instances < 200:
        factors = [_random_partial_semilattice(rng) for _ in range(rng.choice((1, 2, 3)))]
        for f in factors:
            assert not isinstance(is_partial_semilattice(f), Refusal)
            assert largest_element(f) is not None
        prod = product(factors)
        points = list(itertools.product(*(range(f.size) for f in factors)))
        for hom in find_homs(prod, S):
            d = decompose_product_hom(factors, S, hom)
            for rank, coords in enumerate(points):
                if d.is_constant:
                    assert hom[rank] == d.constant_value
                else:
                    values = [m[a] for m, a in zip(d.coordinate_maps, coords)]
                    assert hom[rank] == iterated_meet(S, values)
            homs_checked += 1
        instances += 1
    assert homs_checked > 200  # the suite actually exercised the decomposition
    print(f"ACCEPTANCE 7 (product decomposition suite, seed {seed}, "
          f"{instances} instances, {homs_checked} homomorphisms): PASS")


def test_08_identity_side_verdicts():
    majority, maltsev, semilattice = (
        parse(MAJORITY_SYSTEM), parse(MALTSEV_SYSTEM), parse(SEMILATTICE_SYSTEM)
    )
    assert isinstance(sl_interp_search(majority), SLUnsat)
    assert isinstance(sl_interp_search(maltsev), SLUnsat)
    survivor = sl_interp_search(semilattice)
    assert survivor.sigma == {"f": (1, 2)}

    reports = {}
    for name, sys_ in (("m", majority), ("p", maltsev), ("f", semilattice)):
        saturated = saturate(linear_fragment(sys_))
        reports[name] = (saturated, hm_term_check(saturated, name))
    assert reports["m"][1].passed and reports["p"][1].passed
    assert not reports["f"][1].passed

    # subset-condition pass forces unsatisfiability, on every corpus system
    for name, (saturated, report) in reports.items():
        if report.passed:
            assert hm_pass_forces_unsat(saturated, report)
            assert isinstance(sl_interp_search(saturated), SLUnsat)
    print("ACCEPTANCE 8 (identity-side verdicts and implication): PASS")


def test_09_algebra_side_evidence(majority_algebra, meet_algebra):
    certified = hm_evidence(majority_algebra)
    assert isinstance(certified, CertifiedHM)
    assert certified.max_arity == 3
    refuted = {r.labeling.sigma["m"] for r in certified.refutations}
    assert refuted == {lab.sigma["m"] for lab in all_labelings({"m": 3})}
    assert len(certified.refutations) == 7
    assert verify_certificate(majority_algebra, certified)

    survivor = hm_evidence(meet_algebra)
    assert isinstance(survivor, ConsistentLabelingFound)
    assert survivor.labeling.sigma == {"meet": (1, 2)}
    print("ACCEPTANCE 9 (algebra-side evidence with replayable log): PASS")


def test_10_engine_cross_validation(small_corpus, S):
    pairs = 0
    for src in small_corpus:
        for tgt in small_corpus:
            if src.signature() != tgt.signature():
                continue
            found = find_homs(src, tgt)
            assert found == brute_force_homs(src, tgt)
            pairs += 1
    assert pairs >= 20

    for n in (1, 2, 3):
        tables = [t.values for t in polymorphisms(S, n)]
        homs = find_homs(power(S, n), S)
        assert tables == homs
    print(f"ACCEPTANCE 10 (engine cross-validation, {pairs} corpus pairs): PASS")
