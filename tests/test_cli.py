"""End-to-end exercises of the command line, one subcommand at a time.

Each CLI result is cross-checked against the library call it wraps, so
these double as adapter-thinness tests.
"""

import argparse
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

from hmkit import cli, freecons
from hmkit.cli import main
from hmkit.freecons import FiniteAlgebra
from hmkit.gadget import gadget_transform, y_structure
from hmkit.homsearch import OperationTable, count_homs, polymorphisms
from hmkit.identlang import parse, sl_interp_search
from hmkit.semilat import DecompositionError, PartialSemilatticeWitness, decompose_product_hom
from hmkit.structures import (
    Relation,
    RelationalStructure,
    StructureError,
    disjoint_union,
    induced_substructure,
    load_structure,
    power,
    product,
    structure_from_json,
    structure_to_json,
)

from conftest import MAJORITY_SYSTEM, MALTSEV_SYSTEM, SEMILATTICE_SYSTEM, directed_cycles, verify_witness

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- structure ---------------------------------------------------------------


def test_validate_pass(capsys, structure_file, S):
    code, out, _ = run(capsys, "structure", "validate", structure_file(S))
    assert code == 0
    assert "valid: pass" in out and "2 elements, 4 tuples" in out


def test_validate_fail_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"universe": ["0", "1"], "relations": {"R": {"arity": 3, "tuples": [[0, 0, 5]]}}})
    )
    code, out, _ = run(capsys, "structure", "validate", str(bad))
    assert code == 1
    assert "valid: fail" in out


def test_unreadable_input_is_exit_2(capsys, tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(capsys, "structure", "validate", str(garbled))[0] == 2
    code, _, err = run(capsys, "structure", "components", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err


def test_components(capsys, structure_file, S, point):
    path = structure_file(disjoint_union([S, point, S]))
    code, out, _ = run(capsys, "structure", "components", path, "--output", "json")
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["witness"] == [[0, 1], [2], [3, 4]]


def test_product_power_union_induced_emit_structures(capsys, structure_file, S, point):
    s_path = structure_file(S, "s.json")
    p_path = structure_file(point, "p.json")

    code, out, _ = run(capsys, "structure", "product", s_path, s_path)
    assert code == 0
    assert structure_from_json(json.loads(out)) == product([S, S])

    code, out, _ = run(capsys, "structure", "power", s_path, "3")
    assert code == 0
    assert structure_from_json(json.loads(out)) == power(S, 3)

    code, out, _ = run(capsys, "structure", "union", s_path, p_path)
    assert code == 0
    assert structure_from_json(json.loads(out)) == disjoint_union([S, point])

    u_path = structure_file(disjoint_union([S, point]), "u.json")
    code, out, _ = run(capsys, "structure", "induced", u_path, "--ids", "0,2")
    assert code == 0
    assert structure_from_json(json.loads(out)) == induced_substructure(
        disjoint_union([S, point]), [0, 2]
    )


def test_power_out_writes_file(capsys, structure_file, tmp_path, S):
    target = tmp_path / "sq.json"
    code, out, _ = run(
        capsys, "structure", "power", structure_file(S), "2", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert structure_from_json(json.loads(target.read_text())) == power(S, 2)


def test_iso_verdicts(capsys, structure_file, S):
    flipped = RelationalStructure(
        2, {"R": Relation(3, {(1, 1, 1), (1, 0, 1), (0, 1, 1), (0, 0, 0)})}
    )
    code, out, _ = run(
        capsys, "structure", "iso", structure_file(S, "a.json"), structure_file(flipped, "b.json")
    )
    assert code == 0 and "isomorphic: pass" in out

    bigger = structure_file(power(S, 2), "c.json")
    code, out, _ = run(capsys, "structure", "iso", structure_file(S, "a.json"), bigger)
    assert code == 1 and "isomorphic: fail" in out


def test_iso_fail_names_the_first_invariant_that_differs(capsys, structure_file, S):
    # S's top lies in 2, 2 and 1 tuples at positions 1, 2, 3; no element of `chain` does
    chain = RelationalStructure(2, {"R": Relation(3, frozenset({(0, 0, 0), (0, 1, 1), (1, 1, 1), (1, 0, 0)}))})
    cases = [
        (directed_cycles(2), "signatures differ: {'R': 3} vs {'E': 2}"),
        (power(S, 2), "sizes differ: 2 vs 4"),
        (RelationalStructure(2, {"R": Relation(3, frozenset({(0, 0, 0)}))}), "relation R has 4 tuples in the first structure and 1 in the second"),
        (chain, "elements with incidence profile R[2, 2, 1]: 1 in the first structure, 0 in the second"),
    ]
    a = structure_file(S, "a.json")
    for other, evidence in cases:
        code, out, _ = run(capsys, "structure", "iso", a, structure_file(other, "b.json"), "--output", "json")
        assert code == 1
        assert json.loads(out)["checks"] == [{"name": "isomorphic", "verdict": "fail", "witness": evidence}]
    # every element of a directed cycle has one tuple at each position
    six, two_threes = structure_file(directed_cycles(6), "six.json"), structure_file(directed_cycles(3, 3), "threes.json")
    code, out, _ = run(capsys, "structure", "iso", six, two_threes)
    assert code == 1
    assert "isomorphic: fail  all invariants agree; the exhaustive search found no bijection preserving every relation" in out


def test_bad_ids_argument_is_exit_2(capsys, structure_file, S):
    code = run(capsys, "structure", "induced", structure_file(S), "--ids", "0,a")[0]
    assert code == 2


def test_unknown_command_is_exit_2(capsys, structure_file, S):
    assert run(capsys, "structure", "bogus", structure_file(S))[0] == 2
    assert run(capsys, "nonsense")[0] == 2


# --- hom ----------------------------------------------------------------------


def test_hom_find_and_flags(capsys, structure_file, S):
    path = structure_file(S)
    code, out, _ = run(capsys, "hom", "find", path, path, "--output", "json")
    assert code == 0
    assert json.loads(out)["checks"][0]["witness"] == ["0,0", "0,1", "1,1"]

    code, out, _ = run(capsys, "hom", "find", path, path, "--nonconstant", "--output", "json")
    assert json.loads(out)["checks"][0]["witness"] == ["0,1"]

    code, out, _ = run(capsys, "hom", "find", path, path, "--limit", "1", "--output", "json")
    assert len(json.loads(out)["checks"][0]["witness"]) == 1


def test_hom_find_negative_limit_is_exit_2(capsys, structure_file, S):
    path = structure_file(S)
    code, out, err = run(capsys, "hom", "find", path, path, "--limit", "-1")
    assert (code, out, err) == (2, "", "error: limit must be >= 0, got -1\n")


def test_hom_count_matches_library(capsys, structure_file, S, chain3):
    code, out, _ = run(
        capsys, "hom", "count", structure_file(chain3, "c.json"), structure_file(S, "s.json")
    )
    assert code == 0
    assert f"count: pass  {count_homs(chain3, S)}" in out


def test_hom_check_verdicts(capsys, structure_file, S):
    path = structure_file(S)
    assert run(capsys, "hom", "check", path, path, "--map", "0,1")[0] == 0

    code, out, _ = run(capsys, "hom", "check", path, path, "--map", "1,0", "--output", "json")
    assert code == 1
    witness = json.loads(out)["checks"][0]["witness"]
    assert witness == {"symbol": "R", "source_tuple": [0, 1, 0], "image_tuple": [1, 0, 1]}


def test_hom_signature_mismatch_is_exit_2(capsys, structure_file, S):
    other = RelationalStructure(2, {"E": Relation(2, {(0, 1)})})
    code, _, err = run(
        capsys, "hom", "count", structure_file(S, "s.json"), structure_file(other, "o.json")
    )
    assert code == 2 and "error:" in err


def test_hom_retract(capsys, structure_file, S, point):
    big = structure_file(disjoint_union([S, point]), "big.json")
    small = structure_file(S, "small.json")
    code, out, _ = run(capsys, "hom", "retract", big, small, "--output", "json")
    assert code == 0
    witness = json.loads(out)["checks"][0]["witness"]
    into, onto = witness["into"], witness["onto"]
    assert [onto[v] for v in into] == [0, 1]

    assert run(capsys, "hom", "retract", structure_file(point, "pt.json"), small)[0] == 1


def test_hom_count_on_a_long_path(capsys, structure_file):
    n = 1500
    path = RelationalStructure(n, {"E": Relation(2, frozenset((i, i + 1) for i in range(n - 1)))})
    cycle = RelationalStructure(2, {"E": Relation(2, frozenset({(0, 1), (1, 0)}))})
    code, out, _ = run(
        capsys, "hom", "count", structure_file(path, "path.json"), structure_file(cycle, "cycle.json"),
        "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["witness"] == "2"


def test_internal_error_is_exit_2(capsys, monkeypatch, structure_file, S):
    def boom(args, started):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_hom_count", boom)
    path = structure_file(S)
    code, out, err = run(capsys, "hom", "count", path, path)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "internal error: RuntimeError: boom"


# --- pol ----------------------------------------------------------------------


def test_pol_enumerate_counts(capsys, structure_file, S):
    path = structure_file(S)
    for arity, expected in ((1, 3), (2, 5), (3, 9)):
        code, out, _ = run(
            capsys, "pol", "enumerate", path, "--arity", str(arity), "--output", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["witness"] == str(expected)
        assert len(polymorphisms(S, arity)) == expected


def test_pol_classify_all_meets(capsys, structure_file, S):
    code, out, _ = run(
        capsys, "pol", "enumerate", structure_file(S), "--arity", "2", "--classify", "--output", "json"
    )
    assert code == 0
    verdicts = [c["verdict"] for c in json.loads(out)["checks"][1:]]
    assert verdicts == ["pass"] * 5


def test_pol_classify_refuses_non_meet(capsys, structure_file):
    # the full ternary relation admits every unary map, negation included
    full = RelationalStructure(
        2, {"R": Relation(3, set(itertools.product((0, 1), repeat=3)))}
    )
    code, out, _ = run(
        capsys, "pol", "enumerate", structure_file(full), "--arity", "1", "--classify", "--output", "json"
    )
    assert code == 1
    verdicts = {c["name"]: c["verdict"] for c in json.loads(out)["checks"][1:]}
    assert verdicts["table 2"] == "refused"  # values 1,0


def test_pol_classify_needs_two_elements(capsys, structure_file, chain3):
    code = run(capsys, "pol", "enumerate", structure_file(chain3), "--arity", "1", "--classify")[0]
    assert code == 2


# --- psl ----------------------------------------------------------------------


def test_psl_check_verdicts(capsys, structure_file, S):
    code, out, _ = run(capsys, "psl", "check", structure_file(S), "--output", "json")
    assert code == 0
    witness = json.loads(out)["checks"][0]["witness"]
    assert witness["ambient_size"] == 2**S.size
    assert len(set(witness["embedding"])) == S.size
    verify_witness(S, PartialSemilatticeWitness(tuple(witness["embedding"])))

    loopless = RelationalStructure(2, {"R": Relation(3, {(0, 1, 0)})})
    code, out, _ = run(capsys, "psl", "check", structure_file(loopless, "l.json"), "--output", "json")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["verdict"] == "refused"
    assert check["witness"]["reason"] == "not reflexive"


def test_psl_largest_and_meet(capsys, structure_file, S, chain3):
    code, out, _ = run(capsys, "psl", "largest", structure_file(chain3))
    assert code == 0 and "largest element: pass  2" in out

    pair = RelationalStructure(2, {"R": Relation(3, {(0, 0, 0), (1, 1, 1)})})
    assert run(capsys, "psl", "largest", structure_file(pair, "pair.json"))[0] == 1

    code, out, _ = run(capsys, "psl", "meet", structure_file(S), "0", "1")
    assert code == 0 and "meet defined: pass  0" in out
    assert run(capsys, "psl", "meet", structure_file(pair, "pair.json"), "0", "1")[0] == 1


def test_psl_meet_id_outside_universe_is_exit_2(capsys, structure_file, S):
    path = structure_file(S)
    for first, second, bad in (("0", "5", 5), ("-1", "0", -1)):
        code, out, err = run(capsys, "psl", "meet", path, first, second)
        assert (code, out, err) == (2, "", f"error: id {bad} not in universe of size 2\n")


def test_psl_decompose_coordinate_maps(capsys, structure_file, S):
    s_path = structure_file(S, "s.json")
    code, out, _ = run(
        capsys,
        "psl", "decompose",
        "--target", s_path,
        "--factors", s_path, s_path,
        "--map", "0,0,0,1",
        "--output", "json",
    )
    assert code == 0
    witness = json.loads(out)["checks"][0]["witness"]
    assert witness == {"coordinate_maps": [[0, 1], [0, 1]]}


def test_psl_decompose_constant(capsys, structure_file, S):
    s_path = structure_file(S, "s.json")
    code, out, _ = run(
        capsys,
        "psl", "decompose", "--target", s_path, "--factors", s_path, s_path,
        "--map", "0,0,0,0", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["witness"] == {"constant": 0}


def test_psl_decompose_failures(capsys, structure_file, S):
    s_path = structure_file(S, "s.json")
    # join is not a homomorphism of the meet structure
    code, out, _ = run(
        capsys, "psl", "decompose", "--target", s_path, "--factors", s_path, s_path,
        "--map", "0,1,1,1",
    )
    assert code == 1 and "decomposition: fail" in out

    pair = structure_file(
        RelationalStructure(2, {"R": Relation(3, {(0, 0, 0), (1, 1, 1)})}), "pair.json"
    )
    code, out, _ = run(
        capsys, "psl", "decompose", "--target", s_path, "--factors", pair, s_path,
        "--map", "0,0,0,1",
    )
    assert code == 1 and "no largest element" in out


def test_psl_decompose_max_tuples_bounds_the_walk(capsys, structure_file, S):
    # S x S has 4 elements and 4 * 4 = 16 tuples
    s_path = structure_file(S, "s.json")
    decompose = ["psl", "decompose", "--target", s_path, "--factors", s_path, s_path, "--map"]
    # an accepted map never walks the product, at any bound
    for mapping in ("0,0,1,1", "0,0,0,1"):
        code, out, _ = run(capsys, *decompose, mapping, "--max-tuples", "1")
        assert code == 0 and "decomposition: pass" in out, mapping
    # a failing map walks them to name its least failing tuple, the 7th walked
    code, out, err = run(capsys, *decompose, "0,1,1,1", "--max-tuples", "6")
    assert (code, out, err) == (2, "", "error: product walk needs > 6 tuples\n")
    code, out, _ = run(capsys, *decompose, "0,1,1,1", "--max-tuples", "7")
    assert code == 1 and "not a homomorphism: R tuple (1, 2, 0) maps to (1, 1, 0)" in out


def test_psl_decompose_failure_precedence(capsys, structure_file, S):
    s_path = structure_file(S, "s.json")
    decompose = ["psl", "decompose", "--target", s_path, "--factors", s_path, s_path]
    # a map that is no homomorphism is named before a wrong top in range
    code, out, _ = run(capsys, *decompose, "--map", "0,1,1,1", "--tops", "1,0")
    assert code == 1 and "not a homomorphism: R tuple (1, 2, 0) maps to (1, 1, 0)" in out
    code, out, _ = run(capsys, *decompose, "--map", "0,0,0,1", "--tops", "1,0")
    assert code == 1 and "decomposition: fail  factor 1: 0 is not its largest element" in out

    # a factor without a top is named before the map is checked, and so
    # before any size guard
    pair = RelationalStructure(2, {"R": Relation(3, {(0, 0, 0), (1, 1, 1)})})
    no_top = ["psl", "decompose", "--target", s_path, "--factors", structure_file(pair, "pair.json"), s_path]
    code, out, _ = run(capsys, *no_top, "--map", "0,1,1,0")
    assert code == 1 and "decomposition: fail  a factor has no largest element" in out
    code, out, _ = run(capsys, *no_top, "--map", "0,1,1,0", "--max-tuples", "5")
    assert code == 1 and "decomposition: fail  a factor has no largest element" in out
    # with the tops given, the walk reaches the least failing tuple at the 6th
    code, out, err = run(capsys, *no_top, "--map", "0,1,1,0", "--tops", "0,1", "--max-tuples", "5")
    assert (code, out, err) == (2, "", "error: product walk needs > 5 tuples\n")
    code, out, _ = run(capsys, *no_top, "--map", "0,1,1,0", "--tops", "0,1", "--max-tuples", "6")
    assert code == 1 and "not a homomorphism: R tuple (2, 3, 2) maps to (1, 0, 1)" in out
    with pytest.raises(DecompositionError, match="^a factor has no largest element$"):
        decompose_product_hom([pair, S], S, (0, 1, 1, 0))
    with pytest.raises(DecompositionError, match=r"not a homomorphism: R tuple \(2, 3, 2\) maps to \(1, 0, 1\)"):
        decompose_product_hom([pair, S], S, (0, 1, 1, 0), [0, 1])  # a wrong top, given, comes after



def test_psl_decompose_input_errors_and_verdicts_keep_their_types(capsys, structure_file, S):
    """decompose_product_hom raises unusable input as a StructureError that
    is no DecompositionError, and the CLI exits 2; a target or factor that
    is not functional is a verdict, a DecompositionError, and exits 1; the
    message is the same either way."""
    R = S.relations["R"].tuples
    ternary = lambda tuples: RelationalStructure(2, {"R": Relation(3, frozenset(tuples))})
    nonfunctional = ternary(R | {(0, 1, 1)})
    two_tops = ternary(R | {(0, 1, 1), (1, 0, 1)})
    edge = RelationalStructure(2, {"R": Relation(2, frozenset({(0, 1)}))})
    other = RelationalStructure(2, {"Q": S.relations["R"]})
    cases = [  # target, factors, map, tops, exit code, message
        (S, [S, S], "0,0,0", None, 2, "map has 3 entries for a product of size 4"),
        (S, [S, S], "0,0,0,7", None, 2, "map value 7 not in target universe of size 2"),
        (S, [S, S], "0,0,0,1", "1", 2, "1 tops for 2 factors"),
        (S, [S, S], "0,0,0,1", "1,5", 2, "top 5 not in factor 1 universe of size 2"),
        (S, [S, S], "0,0,0,1", "-1,1", 2, "top -1 not in factor 0 universe of size 2"),
        (S, [S, other], "0,0,0,1", None, 2, "target and factors have different signatures"),
        (edge, [S, S], "0,0,0,1", None, 2, "target and factors have different signatures"),
        (edge, [edge, edge], "0,0,0,1", None, 2, "expected a ternary relation, found arity 2"),
        (nonfunctional, [S, S], "0,0,0,1", None, 1, "non-functional relation: (0,1,0) and (0,1,1) both present"),
        (S, [two_tops, S], "0,0,0,1", None, 1, "multiple largest elements [0, 1]; relation not functional"),
        (S, [two_tops, S], "0,1,1,1", None, 1, "multiple largest elements [0, 1]; relation not functional"),
        (S, [two_tops, S], "0,0,0,0", "1,1", 1, "multiple largest elements [0, 1]; relation not functional"),
        (S, [two_tops, S], "0,1,1,1", "1,1", 1, "not a homomorphism: R tuple (0, 2, 2) maps to (0, 1, 1)"),
        (S, [S, S], "0,1,1,1", None, 1, "not a homomorphism: R tuple (1, 2, 0) maps to (1, 1, 0)"),
        (S, [S, S], "0,0,0,1", "1,0", 1, "factor 1: 0 is not its largest element"),
    ]
    for n, (target, factors, mapping, tops, code, message) in enumerate(cases):
        args = (factors, target, [int(v) for v in mapping.split(",")], tops and [int(v) for v in tops.split(",")])
        with pytest.raises(StructureError) as info:
            decompose_product_hom(*args)
        assert (str(info.value), isinstance(info.value, DecompositionError)) == (message, code == 1), n
        argv = ["psl", "decompose", "--target", structure_file(target, f"t{n}.json"), "--map", mapping]
        argv += ["--factors", *(structure_file(h, f"f{n}_{i}.json") for i, h in enumerate(factors))]
        expected = (1, f"command: psl decompose\ndecomposition: fail  {message}\n", "") if code == 1 else (2, "", f"error: {message}\n")
        assert run(capsys, *argv, *([f"--tops={tops}"] if tops else [])) == expected, n  # in = form, or "-1,1" reads as an option

# --- free -----------------------------------------------------------------------


TWO_TERNARY = FiniteAlgebra(
    2,
    {
        "t0": OperationTable(3, 2, (0, 1, 0, 1, 1, 1, 1, 1)),
        "t1": OperationTable(3, 2, (0, 0, 1, 1, 1, 1, 0, 1)),
    },
    ("0", "1"),
)


def test_free_build_golden_reports(capsys, algebra_file, majority_algebra):
    # element ids, term names and the first witnesses follow the closure's
    # evaluation order, so whole reports are pinned, bar their timing
    three = FiniteAlgebra(3, {"f": OperationTable(2, 3, (0, 2, 0, 2, 1, 2, 2, 1, 2))}, ("0", "1", "2"))
    # one component with 4 homomorphisms into the semilattice
    four = FiniteAlgebra(3, {"f": OperationTable(2, 3, (0, 2, 2, 0, 1, 1, 0, 2, 2))}, ("0", "1", "2"))
    # components of collapsed sizes 2, 1, 2, 1: two collapse to a point
    neg = FiniteAlgebra(
        2, {"f": OperationTable(2, 2, (1, 1, 1, 1)), "n": OperationTable(1, 2, (1, 0))}, ("0", "1")
    )
    cases = (
        ("majority", majority_algebra, "3"),
        ("two_ternary", TWO_TERNARY, "3"),
        ("three", three, "2"),
        ("four", four, "2"),
        ("neg", neg, "2"),
    )
    for name, algebra, arity in cases:
        code, out, _ = run(
            capsys, "free", "build", "--algebra", algebra_file(algebra),
            "--verify-lemma22", "--verify-claims", arity, "--output", "json",
        )
        assert code == 0
        with open(os.path.join(GOLDEN, f"free_build_{name}.json"), encoding="utf-8") as fh:
            assert re.sub(r'("elapsed_ms": )[0-9.e+-]+', r"\g<1>0", out) == fh.read()


def test_free_build_full_verification(capsys, algebra_file, meet_algebra):
    code, out, _ = run(
        capsys,
        "free", "build", "--algebra", algebra_file(meet_algebra),
        "--verify-lemma22", "--verify-claims", "2",
        "--output", "json",
    )
    assert code == 0
    report = json.loads(out)
    build = report["checks"][0]
    assert build["name"] == "build" and build["witness"]["free_size"] == 3
    names = [c["name"] for c in report["checks"][1:]]
    assert "item 1 (reflexive)" in names and "claim 4 (unique shaped extension)" in names
    assert all(c["verdict"] == "pass" for c in report["checks"])


def test_free_build_size_bound_is_exit_2(capsys, algebra_file, meet_algebra):
    path = algebra_file(meet_algebra)
    # the rank-2 free semilattice has 3 elements
    code, out, err = run(capsys, "free", "build", "--algebra", path, "--max-tuples", "2")
    assert code == 2 and out == ""
    assert "exceeded 2 elements" in err
    # its free structure has 10 triples
    assert run(capsys, "free", "build", "--algebra", path, "--max-tuples", "9")[0] == 2
    assert run(capsys, "free", "build", "--algebra", path, "--max-tuples", "10")[0] == 0


def test_free_build_claim_arity_below_1_is_exit_2(capsys, monkeypatch, algebra_file, meet_algebra):
    path = algebra_file(meet_algebra)
    build_bundle = freecons.build_bundle
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return build_bundle(*args, **kwargs)

    monkeypatch.setattr(freecons, "build_bundle", counting)
    for arity in ("0", "-1"):
        code, _, err = run(capsys, "free", "build", "--algebra", path, "--verify-lemma22", "--verify-claims", arity)
        assert code == 2 and err == f"error: claim arity must be >= 1, got {arity}\n"
    assert builds == []  # refused before the algebra is built
    assert run(capsys, "free", "build", "--algebra", path, "--verify-claims", "1")[0] == 0
    assert len(builds) == 1


def test_free_build_absent_hypothesis_still_exits_0(capsys, algebra_file, lattice_algebra):
    code, out, _ = run(
        capsys,
        "free", "build", "--algebra", algebra_file(lattice_algebra),
        "--verify-lemma22", "--output", "json",
    )
    assert code == 0
    verdicts = {c["name"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert verdicts["item 3 (retract)"] == "refused"


def test_free_build_reports_a_kernel_that_is_no_congruence_as_items_5_and_6(capsys, monkeypatch, algebra_file):
    """collapse checks no paper fact, so a kernel that is no congruence
    reaches verify_lemma22, whose items 5 and 6 fail with their witnesses."""
    compute_H = freecons.compute_H

    def first_hom_only(bundle):
        # a coarser kernel: each component keeps only its first homomorphism into S
        bundle = compute_H(bundle)
        bundle.components = tuple(c._replace(homs=c.homs[:1]) for c in bundle.components)
        return bundle

    monkeypatch.setattr(freecons, "compute_H", first_hom_only)
    three_homs = FiniteAlgebra(3, {"f": OperationTable(2, 3, (0, 2, 0, 2, 1, 2, 2, 1, 2))})
    argv = ["free", "build", "--algebra", algebra_file(three_homs), "--verify-lemma22", "--output", "json"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    checks = {c["name"]: (c["verdict"], c["witness"]) for c in json.loads(out)["checks"]}
    assert checks["item 5 (kernel is a congruence)"] == (
        "fail", "f at position 1, parameters (1,): elements 0 and 3 separate"
    )
    assert checks["item 6 (induced operations)"] == (
        "fail", "operation f at classes (0, 0): representatives give 0 but members (3, 2) give 1"
    )
    # both witnesses hold: f(0, 1) and f(3, 1) leave the class of 0 and 3,
    # and f(3, 2) leaves class 0, where f on its representative gives class 0
    bundle = freecons.build_bundle(three_homs)
    qmap, f = bundle.quotient_map, bundle.free.algebra.operations["f"].apply
    assert qmap[0] == qmap[3] and qmap[f(0, 1)] != qmap[f(3, 1)]
    assert qmap[3] == qmap[2] == 0 == qmap[f(0, 0)] and qmap[f(3, 2)] == 1


def test_free_build_reports_a_split_diagonal_class_as_item_2(capsys, monkeypatch, algebra_file, meet_algebra):
    """free_structure checks no paper fact, so a diagonal class that is not
    one component of the free structure reaches verify_lemma22 item 2."""
    close = freecons._close

    def constant_triples_only(seeds, algebras, *rest):
        elements, derivations, index = close(seeds, algebras, *rest)
        if len(seeds) == 4:  # the free structure's closure, from its four seed triples
            elements = [t for t in elements if len(set(t)) == 1]
        return elements, derivations, index

    monkeypatch.setattr(freecons, "_close", constant_triples_only)
    code, out, err = run(capsys, "free", "build", "--algebra", algebra_file(meet_algebra), "--verify-lemma22")
    assert (code, err) == (1, "")
    assert "item 2 (components): fail  diagonal class 0 [0, 1, 2] is not one component" in out.splitlines()
    monkeypatch.undo()
    code, out, _ = run(capsys, "free", "build", "--algebra", algebra_file(meet_algebra), "--verify-lemma22")
    assert code == 0 and "item 2 (components): pass" in out.splitlines()


# --- gadget ---------------------------------------------------------------------


def test_gadget_apply_golden(capsys, structure_file, S):
    code, out, _ = run(capsys, "gadget", "apply", "--input", structure_file(S))
    assert code == 0
    assert structure_from_json(json.loads(out)) == gadget_transform(S)


def test_gadget_analyze(capsys, structure_file, S):
    code, out, _ = run(
        capsys, "gadget", "analyze", "--input", structure_file(power(S, 2)), "--output", "json"
    )
    assert code == 0
    checks = {c["name"]: c["witness"] for c in json.loads(out)["checks"]}
    assert checks["input exponents"] == [2]
    assert checks["multiplicities"] == {"0": 1, "1": 2, "2": 1}

    code, out, _ = run(capsys, "gadget", "analyze", "--input", structure_file(y_structure(), "y.json"))
    assert code == 1 and "powers of the semilattice: fail" in out

    # no single ternary relation: unusable input, as for gadget apply
    edge = structure_file(RelationalStructure(2, {"R": Relation(2, {(0, 1)})}), "e.json")
    for command in ("apply", "analyze"):
        code, out, err = run(capsys, "gadget", command, "--input", edge)
        assert (code, out, err) == (2, "", "error: expected a ternary relation, found arity 2\n"), command


# --- ident ----------------------------------------------------------------------


def test_ident_parse(capsys, system_file):
    code, out, _ = run(capsys, "ident", "parse", "--system", system_file(MAJORITY_SYSTEM))
    assert code == 0 and "parse: pass" in out

    code, out, _ = run(capsys, "ident", "parse", "--system", system_file("ops: f/2\nf(x) = x\n", "bad.txt"))
    assert code == 1 and "parse: fail" in out


def test_ident_linear(capsys, system_file):
    code, out, _ = run(capsys, "ident", "linear", "--system", system_file(MAJORITY_SYSTEM))
    assert code == 0

    code, out, _ = run(capsys, "ident", "linear", "--system", system_file(SEMILATTICE_SYSTEM, "sl.txt"))
    assert code == 1
    assert "f(f(x,y),z) = f(x,f(y,z)): fail" in out


def test_ident_saturate(capsys, system_file):
    code, out, _ = run(capsys, "ident", "saturate", "--system", system_file(MAJORITY_SYSTEM))
    assert code == 0
    assert "m(x,x,y) = x" in out

    code = run(capsys, "ident", "saturate", "--system", system_file(SEMILATTICE_SYSTEM, "sl.txt"))[0]
    assert code == 2  # saturation is defined only for linear systems


def test_ident_hm_check(capsys, system_file):
    code, out, _ = run(
        capsys, "ident", "hm-check", "--system", system_file(MAJORITY_SYSTEM), "--term", "m",
        "--output", "json",
    )
    assert code == 0
    report = json.loads(out)
    subset_checks = [c for c in report["checks"] if c["name"].startswith("I=")]
    assert len(subset_checks) == 7
    assert report["checks"][-1] == {"name": "subset condition", "verdict": "pass", "witness": None}

    code, out, _ = run(
        capsys, "ident", "hm-check", "--system", system_file(SEMILATTICE_SYSTEM, "sl.txt"), "--term", "f"
    )
    assert code == 1
    assert "I={1,2}: fail" in out and "subset condition: fail" in out


def test_ident_sl_interp(capsys, system_file):
    code, out, _ = run(capsys, "ident", "sl-interp", "--system", system_file(SEMILATTICE_SYSTEM))
    assert code == 0 and "interpretation: pass  f->{1,2}" in out

    code, out, _ = run(
        capsys, "ident", "sl-interp", "--system", system_file(MAJORITY_SYSTEM, "m.txt"),
        "--output", "json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["checks"][0]["witness"] == "UNSAT (7 refutations)"
    unsat = sl_interp_search(parse(MAJORITY_SYSTEM))
    assert len(report["checks"][1]["witness"]) == len(unsat.refutations)


def test_ident_golden_reports(capsys, system_file):
    # saturation's order and witnesses are pinned, bar the timing
    cases = (
        ("ident_saturate_majority", MAJORITY_SYSTEM, ("saturate",), 0),
        ("ident_hm_check_maltsev", MALTSEV_SYSTEM, ("hm-check", "--term", "p"), 0),
        ("ident_hm_check_semilattice", SEMILATTICE_SYSTEM, ("hm-check", "--term", "f"), 1),
    )
    for name, text, command, want in cases:
        path = system_file(text, f"{name}.txt")
        code, out, _ = run(capsys, "ident", command[0], "--system", path, *command[1:], "--output", "json")
        assert code == want
        with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
            assert re.sub(r'("elapsed_ms": )[0-9.e+-]+', r"\g<1>0", out) == fh.read()


def test_ident_commands_take_deep_terms(capsys, system_file):
    # nesting depth is not bounded by the recursion limit
    assert sys.getrecursionlimit() <= 1000
    term = "x"
    for _ in range(1200):
        term = f"f({term},x)"
    path = system_file(f"ops: f/2\n{term} = x\n", "deep.txt")

    code, out, err = run(capsys, "ident", "parse", "--system", path)
    assert code == 0 and f"{term} = x" in out and "RecursionError" not in err
    code, out, _ = run(capsys, "ident", "linear", "--system", path)
    assert code == 1 and f"{term} = x: fail" in out
    code, out, _ = run(capsys, "ident", "sl-interp", "--system", path)
    assert code == 0 and "interpretation: pass  f->{1}" in out
    code, _, err = run(capsys, "ident", "saturate", "--system", path)
    assert code == 2 and "non-linear identity" in err and "internal error" not in err


def test_ident_hm_check_undeclared_term_is_exit_2(capsys, system_file):
    code = run(capsys, "ident", "hm-check", "--system", system_file(MAJORITY_SYSTEM), "--term", "q")[0]
    assert code == 2


# --- alg ------------------------------------------------------------------------


def test_alg_hm_evidence_certified(capsys, algebra_file, majority_algebra):
    code, out, _ = run(
        capsys, "alg", "hm-evidence", "--algebra", algebra_file(majority_algebra), "--output", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["verdict"] == "pass"
    assert report["checks"][0]["witness"] == {"max_arity": 3, "labelings_refuted": 7}
    assert report["checks"][1] == {"name": "replay", "verdict": "pass", "witness": None}


def test_alg_hm_evidence_survivor(capsys, algebra_file, meet_algebra):
    code, out, _ = run(
        capsys, "alg", "hm-evidence", "--algebra", algebra_file(meet_algebra), "--output", "json"
    )
    assert code == 1
    witness = json.loads(out)["checks"][0]["witness"]
    assert witness["surviving_labeling"] == "meet->{1,2}"
    assert witness["max_arity"] == 2


def test_alg_hm_evidence_golden_reports(capsys, algebra_file, majority_algebra):
    # each reported identity is the first collision the pair closure finds,
    # which depends on its evaluation order, so the whole report is pinned,
    # bar its timing
    # a 3-element algebra whose rank-2 free algebra has all 729 elements
    three = FiniteAlgebra(3, {"f": OperationTable(2, 3, (0, 1, 2, 2, 1, 1, 1, 0, 2))}, ("0", "1", "2"))
    for name, algebra in (("majority", majority_algebra), ("two_ternary", TWO_TERNARY), ("three", three)):
        code, out, _ = run(
            capsys, "alg", "hm-evidence", "--algebra", algebra_file(algebra), "--output", "json"
        )
        assert code == 0
        with open(os.path.join(GOLDEN, f"alg_hm_evidence_{name}.json"), encoding="utf-8") as fh:
            assert re.sub(r'("elapsed_ms": )[0-9.e+-]+', r"\g<1>0", out) == fh.read()


def test_alg_hm_evidence_rejects_non_idempotent(capsys, algebra_file):
    const = FiniteAlgebra(2, {"c": OperationTable(1, 2, (0, 0))})
    assert run(capsys, "alg", "hm-evidence", "--algebra", algebra_file(const))[0] == 2


# --- report format ----------------------------------------------------------------


def test_json_reports_are_stable(capsys, structure_file, S):
    path = structure_file(S)

    def snap():
        _, out, _ = run(capsys, "pol", "enumerate", path, "--arity", "2", "--classify", "--output", "json")
        doc = json.loads(out)
        doc.pop("elapsed_ms")
        return json.dumps(doc, sort_keys=True)

    first, second = snap(), snap()
    assert first == second
    assert sorted(json.loads(first)) == ["checks", "command"]
    # neither an echo-only --seed nor a --limit nothing reads is accepted
    assert run(capsys, "pol", "enumerate", path, "--arity", "2", "--seed", "5")[0] == 2
    assert run(capsys, "hom", "count", path, path, "--limit", "1")[0] == 2


def test_max_tuples_only_where_read(capsys, structure_file, S):
    path = structure_file(S)
    code, _, err = run(capsys, "psl", "check", path, "--max-tuples", "5")
    assert code == 2 and "unrecognized arguments: --max-tuples" in err
    assert run(capsys, "hom", "count", path, path, "--max-tuples", "5")[0] == 2
    assert run(capsys, "structure", "power", path, "2", "--max-tuples", "5")[0] == 2
    assert run(capsys, "structure", "power", path, "2", "--max-tuples", "16")[0] == 0


class _Dict(dict):
    pass


class _List(list):
    pass


_STRINGS = ["", "plain", "é ü", "\u2028", "😀", 'say "hi"', "back\\slash", "\x00\x1f\t\n\r", "/"]
_NUMBERS = [0, -1, 7, 2**64, -(2**70), 0.0, -0.0, 1.5, 1 / 3, 1e300, -2.5e-8, math.nan, math.inf, -math.inf]


def _random_doc(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.35:
        return rng.choice(_STRINGS + _NUMBERS + [True, False, None])
    width = rng.choice([0, 1, 2, 3, 5])
    if roll < 0.5:  # flat, as most report witnesses are
        return [rng.choice(_STRINGS + _NUMBERS + [True, None]) for _ in range(width)]
    if roll < 0.7:
        kind = rng.choice([list, list, tuple, _List])
        return kind(_random_doc(rng, depth + 1) for _ in range(width))
    keys = rng.choice([_STRINGS, _STRINGS, _STRINGS + [1, 2.5, True, None]])
    kind = rng.choice([dict, dict, dict, _Dict])
    return kind((rng.choice(keys), _random_doc(rng, depth + 1)) for _ in range(width))


def test_report_text_is_json_dumps_with_indent_2():
    rng = random.Random(20)
    for _ in range(3000):
        doc = _random_doc(rng)
        assert cli._json_text(doc) == json.dumps(doc, indent=2), doc
    for name in sorted(os.listdir(GOLDEN)):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            text = fh.read()
        assert cli._json_text(json.loads(text)) + "\n" == text


def test_product_out_file_is_what_json_dump_writes(capsys, structure_file, tmp_path, S, chain3):
    paths = [structure_file(S, "a.json"), structure_file(chain3, "b.json")]
    target = tmp_path / "p.json"
    assert run(capsys, "structure", "product", *paths, "--out", str(target)) == (0, "", "")
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="utf-8") as fh:
        json.dump(structure_to_json(product([load_structure(p) for p in paths])), fh, indent=2)
        fh.write("\n")
    assert target.read_bytes() == reference.read_bytes()


def test_input_that_is_no_utf8_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    for argv in (
        ["psl", "check", str(bad)],
        ["structure", "validate", str(bad)],
        ["ident", "parse", "--system", str(bad)],
        ["free", "build", "--algebra", str(bad)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff") and "internal error" not in err


# --- the parser ---------------------------------------------------------------------


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import hmkit.cli\n"
        "print(len(built))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def test_parser_is_built_once(capsys, monkeypatch, structure_file, S):
    path = structure_file(S)
    assert run(capsys, "hom", "count", path, path)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["hom", "count", path, path], ["psl", "check", path], ["nonsense"]):
        run(capsys, *argv)
    assert built == []
    assert cli._parsers() is cli._parsers()


def test_options_do_not_carry_over(capsys, structure_file, S):
    path = structure_file(S)
    code, out, _ = run(capsys, "hom", "find", path, path, "--limit", "1", "--output", "json")
    assert json.loads(out)["checks"][0]["witness"] == ["0,0"]
    code, out, _ = run(capsys, "hom", "find", path, path)
    assert out.splitlines() == ["command: hom find", "homomorphisms: pass", "  0,0", "  0,1", "  1,1"]

    decompose = ["psl", "decompose", "--target", path, "--factors", path, path, "--map", "0,0,0,1"]
    code, out, _ = run(capsys, *decompose, "--tops", "0,1")
    assert code == 1 and "0 is not its largest element" in out
    code, out, _ = run(capsys, *decompose)
    assert code == 0 and "decomposition: pass" in out


# a valid argv after (group, command) for every command, with abbreviated
# and `=` forms of options; the files are never opened
VALID_ARGS = {
    ("structure", "validate"): ["s.json", "--outp", "json"],
    ("structure", "components"): ["s.json", "--output=json"],
    ("structure", "product"): ["a.json", "b.json", "--max-t", "9", "--out", "p.json", "--outp=json"],
    ("structure", "power"): ["s.json", "3", "--max-tuples=9"],
    ("structure", "union"): ["a.json", "b.json", "--out=u.json"],
    ("structure", "induced"): ["s.json", "--ids", "0,1", "--output", "text"],
    ("structure", "iso"): ["a.json", "b.json"],
    ("hom", "find"): ["a.json", "b.json", "--nonc", "--limit=2"],
    ("hom", "count"): ["--output", "json", "a.json", "b.json"],
    ("hom", "check"): ["a.json", "b.json", "--map=0,1"],
    ("hom", "retract"): ["a.json", "--", "b.json"],
    ("pol", "enumerate"): ["s.json", "--ar", "2", "--classify"],
    ("psl", "check"): ["s.json", "--outp", "json"],
    ("psl", "largest"): ["s.json"],
    ("psl", "meet"): ["s.json", "0", "-1"],
    ("psl", "decompose"): ["--target", "s.json", "--factors", "a.json", "b.json", "--map", "0,0,0,1", "--tops=0,1"],
    ("free", "build"): ["--algebra", "a.json", "--verify-l", "--verify-claims", "2"],
    ("gadget", "apply"): ["--input", "d.json", "--out", "o.json"],
    ("gadget", "analyze"): ["--in", "d.json"],
    ("ident", "parse"): ["--system", "s.txt"],
    ("ident", "linear"): ["--sys=s.txt"],
    ("ident", "saturate"): ["--system", "s.txt", "--output", "json"],
    ("ident", "hm-check"): ["--system", "s.txt", "--term", "m"],
    ("ident", "sl-interp"): ["--system", "s.txt"],
    ("alg", "hm-evidence"): ["--algebra", "a.json", "--max-a", "3", "--max-tuples=100"],
}


def test_each_command_parses_as_the_whole_tree_does(capsys, monkeypatch):
    assert set(VALID_ARGS) == set(cli._parsers()[1])
    seen = []
    for (group, command), rest in VALID_ARGS.items():
        name = f"cmd_{group}_{command}".replace("-", "_")
        monkeypatch.setattr(cli, name, lambda args, started: seen.append(args) or 0)
        argv = [group, command, *rest]
        assert run(capsys, *argv) == (0, "", "")
        assert vars(seen.pop()) == vars(cli._parsers()[0].parse_args(argv))
    # the console script reaches main with argv=None
    monkeypatch.setattr(sys, "argv", ["hmkit", "psl", "check", "s.json", "--output=json"])
    assert main() == 0
    assert vars(seen.pop()) == {"group": "psl", "command": "check", "file": "s.json", "output": "json"}


def tree_outcome(capsys, argv):
    """Exit code, stdout and stderr of the whole tree parsing argv."""
    try:
        cli._parsers()[0].parse_args(argv)
        code = None
    except SystemExit as exc:
        code = int(exc.code or 0)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_and_help_read_as_the_whole_tree_gives_them(capsys):
    cases = [
        ["psl", "check", "s.json", "--bogus"],  # unknown option
        ["psl", "check", "s.json", "stray"],  # stray positional
        ["hom", "count", "a.json", "b.json", "c.json", "--output", "json"],
        ["psl", "decompose", "--target", "s.json", "--factors", "a.json"],  # missing required option
        ["psl", "check"],
        ["psl", "meet", "s.json", "0", "x"],  # bad int
        ["structure", "power", "s.json", "3", "--max-tuples", "many"],
        ["structure", "induced", "s.json", "--ids", "0,a"],  # bad --ids
        ["hom", "check", "a.json", "b.json", "--map", "1,,x"],
        ["psl", "check", "s.json", "--output", "xml"],
        ["alg", "hm-evidence", "--algebra", "a.json", "--max", "3"],  # ambiguous abbreviation
        ["psl", "decompose", "-h"],  # help after a command
        ["alg", "hm-evidence", "--help"],
        ["psl", "-h"],  # help after a group
        ["-h"],
        ["psl", "bogus", "s.json"],  # unknown group or command
        ["nonsense", "check"],
        ["psl"],
        [],
        ["--output", "json", "psl", "check", "s.json"],
    ]
    for argv in cases:
        want = tree_outcome(capsys, argv)
        assert want[0] in (0, 2), argv
        assert run(capsys, *argv) == want, argv
