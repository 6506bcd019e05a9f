"""Tests of the benchmark's own machinery: inputs, oracles, tracing and metric names."""

import itertools
import json
import random
import types
from pathlib import Path

import pytest

import gen
import run
import tracing
import workloads

TIMED = ["free-pipeline", "search", "psl", "evidence"]


def read_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", TIMED)
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    first = workloads.build(name, 7, 2, tmp_path, "a")
    second = workloads.build(name, 7, 2, tmp_path, "b")
    workloads.build(name, 8, 2, tmp_path, "c")
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")
    assert read_tree(tmp_path / "a") != read_tree(tmp_path / "c"), "another seed should draw other inputs"
    argvs = [[a.replace("b/", "a/", 1) if a.startswith("b/") else a for a in j.argv] for r in second for j in r]
    assert [j.argv for r in first for j in r] == argvs


def test_self_times_sum_to_the_root_duration():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 8]
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["semilat.decompose_product_hom", 1.0, 4.0, 0, 0, tracing.ERROR],
        ["structures.product", 5.0, 9.0, 0, 0, 6],
        ["structures.Homomorphism", 6.0, 8.0, 2, 0, None],
    ]
    rows = tracing.summarize(spans)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(10.0)
    assert rows["cli.main"]["self_s"] == pytest.approx(3.0)
    assert rows["structures.product"]["self_s"] == pytest.approx(2.0)
    assert rows["structures.product"]["count"] == 6
    assert rows["semilat.decompose_product_hom"]["errors"] == 1


def test_function_imported_by_name_into_another_module_is_wrapped():
    engine = types.ModuleType("engine")
    exec("def search(n):\n    return list(range(n))\n", engine.__dict__)
    client = types.ModuleType("client")
    client.search = engine.search  # as `from .engine import search` would
    exec("def run(n):\n    return len(search(n))\n", client.__dict__)

    tracer = tracing.Tracer()
    layers = {"engine": {"search": len}, "client": {"run": None}}
    tracing.install(tracer, {"engine": engine, "client": client}, layers)

    assert client.search is engine.search
    assert client.run(4) == 4
    assert [s[tracing.NAME] for s in tracer.spans] == ["client.run", "engine.search"]
    assert tracer.spans[1][tracing.PARENT] == 0
    assert tracing.summarize(tracer.spans)["engine.search"]["count"] == 4


def test_benchmark_json_per_layer_names_resolve_to_wrapped_spans():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == TIMED
    counters = {
        f"{layer}.{qualname.split('.')[0]}": counter
        for layer, functions in tracing.LAYERS.items()
        for qualname, counter in functions.items()
    }
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_frac":
            continue
        span, _, field = m["name"].rpartition(".")
        assert m["unit"] == ("s" if field == "self_s" else "count"), m["name"]
        if span not in tracing.LAYERS:
            assert span in counters, f"{m['name']}: {span} is not wrapped"
            assert field in run.SPAN_FIELDS or counters[span] is not None, f"{m['name']}: {span} has no work count"

    rows = {
        "homsearch.find_homs": {"calls": 2, "self_s": 0.5, "count": 7, "errors": 0},
        "homsearch.polymorphisms": {"calls": 1, "self_s": 0.25, "count": 0, "errors": 1},
    }
    names = ["homsearch.find_homs.solutions", "homsearch.polymorphisms.errors", "homsearch.self_s", "cli.main.calls"]
    assert run.per_layer(names, rows) == {
        "homsearch.find_homs.solutions": 7,
        "homsearch.polymorphisms.errors": 1,
        "homsearch.self_s": 0.75,
        "cli.main.calls": 0,
    }


def test_tail_has_ten_samples_above_it():
    samples = [float(i) for i in range(100)]
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) >= 10
    assert percentile == 90 and value == 89.0


def test_psl_oracle_agrees_with_the_congruence_procedure():
    from hmkit.semilat import Refusal, is_partial_semilattice
    from hmkit.structures import structure_from_json

    rng = random.Random(3)
    accepted = 0
    for _ in range(300):
        doc = gen.random_functional(rng, rng.randint(2, 6), rng.choice((0.1, 0.3, 0.6)))
        expected = gen.psl_verdict(doc)
        assert expected == (not isinstance(is_partial_semilattice(structure_from_json(doc)), Refusal))
        accepted += expected
    assert 0 < accepted < 300
    assert gen.psl_verdict(gen.meet_fragment(rng, 6, 4))


def test_product_homs_match_brute_force():
    rng = random.Random(5)
    for sizes in ((2, 3), (3, 3), (2, 2, 3)):
        factors = [gen.meet_fragment(rng, n, 3) for n in sizes]
        assert gen.product_homs_to_s(factors, [0] * len(factors)) == gen.homs_to_s(gen.product(factors))


def test_product_and_power_match_hmkit():
    from hmkit.structures import power, product, structure_from_json, structure_to_json

    rng = random.Random(9)
    factors = [gen.random_structure(rng, n, 0.3) for n in (2, 3)]
    ours = gen.product(factors)
    theirs = structure_to_json(product([structure_from_json(f) for f in factors]))
    assert gen.triples(ours) == gen.triples(theirs) and gen.size_of(ours) == gen.size_of(theirs)
    assert gen.triples(gen.power(gen.semilattice(), 3)) == gen.triples(
        structure_to_json(power(structure_from_json(gen.semilattice()), 3))
    )


def test_free_build_oracle_matches_hmkit():
    from hmkit.freecons import algebra_from_json, build_bundle, bundle_summary, verify_claims, verify_lemma22

    rng = random.Random(4)
    slots = {(1, 2): 2, (1, 3): 2, (2, 3): 2}
    retracts = 0
    for alg in workloads.stratified_algebras(rng, slots):
        want = gen.two_element_free_build(alg)
        bundle = build_bundle(algebra_from_json(alg))
        assert workloads.summary_invariants(bundle_summary(bundle)) == want
        statuses = [r.status for r in verify_lemma22(bundle).results + verify_claims(bundle, 2).results]
        expected = [v for _, v in workloads.seeded_free_verdicts(want)[1:]]
        assert [{"hypothesis absent": "refused"}.get(s, s) for s in statuses] == expected
        retracts += bool(want["hom_counts"][0])
    assert 0 < retracts < 6, "the draws should cover both outcomes of the retract item"


def test_hm_evidence_oracle_matches_hmkit():
    from hmkit.freecons import ConsistentLabelingFound, algebra_from_json, hm_evidence

    rng = random.Random(2)
    slots = {key: 3 * n for key, n in workloads.EVIDENCE_SLOTS.items()}
    survivors = 0
    for alg in workloads.stratified_algebras(rng, slots):
        got = hm_evidence(algebra_from_json(alg))
        got = got.labeling.describe() if isinstance(got, ConsistentLabelingFound) else None
        assert gen.hm_evidence_survivor(alg, 3) == got
        survivors += got is not None
    assert 0 < survivors < 24, "the draws should cover certified and surviving labelings"
