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

from hmkit import cli, freecons, identlang
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

from conftest import MAJORITY_SYSTEM, MALTSEV_SYSTEM, SEMILATTICE_SYSTEM, coordinate_sets, directed_cycles, verify_witness

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


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"universe": ["0"], "relations": []}, "'relations' must be an object"),
        (
            {"universe": ["0"], "relations": {"R": {"arity": 1, "tuples": [], "size": 1}}},
            "relation R: expected keys 'arity' and 'tuples'",
        ),
        ({"universe": ["0"], "relations": {"R": {"arity": 1, "tuples": {}}}}, "relation R: 'tuples' must be a list"),
        # a JSON boolean is no integer, as an id or as an arity
        (
            {"universe": ["0", "1"], "relations": {"R": {"arity": 2, "tuples": [[True, 0]]}}},
            "relation R: tuple [True, 0] must be a list of integers",
        ),
        ({"universe": ["0"], "relations": {"R": {"arity": True, "tuples": [[0]]}}}, "relation R: arity must be a positive integer"),
    ],
)
def test_structure_file_errors_exit_2(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "structure", "components", str(path)) == (2, "", f"error: {message}\n")
    # validate reports the same message as its verdict
    code, out, _ = run(capsys, "structure", "validate", str(path))
    assert code == 1 and f"valid: fail  {message}" in out.splitlines()


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


def test_commands_that_print_a_structure_take_no_output_option(capsys, structure_file, S):
    """A printed structure is always its JSON document, so the five commands
    that print one reject --output as any other unknown option."""
    s_path = structure_file(S, "s.json")
    commands = [
        ["structure", "product", s_path, s_path],
        ["structure", "power", s_path, "2"],
        ["structure", "union", s_path, s_path],
        ["structure", "induced", s_path, "--ids", "0,1"],
        ["gadget", "apply", "--input", s_path],
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv, "--output", "json")
        assert (code, out) == (2, "") and "unrecognized arguments: --output json" in err, argv
        code, out, _ = run(capsys, *argv)
        assert code == 0 and structure_from_json(json.loads(out)).size >= 2, argv


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
    def boom(args):
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
    # a factor without a top is named before the map is checked, and so
    # before any size guard
    pair = RelationalStructure(2, {"R": Relation(3, {(0, 0, 0), (1, 1, 1)})})
    no_top = ["psl", "decompose", "--target", s_path, "--factors", structure_file(pair, "pair.json"), s_path]
    code, out, _ = run(capsys, *no_top, "--map", "0,1,1,0")
    assert code == 1 and "decomposition: fail  a factor has no largest element" in out
    code, out, _ = run(capsys, *no_top, "--map", "0,1,1,0", "--max-tuples", "5")
    assert code == 1 and "decomposition: fail  a factor has no largest element" in out
    with pytest.raises(DecompositionError, match="^a factor has no largest element$"):
        decompose_product_hom([pair, S], S, (0, 1, 1, 0))


def test_psl_decompose_takes_no_tops(capsys, structure_file, S):
    """The tops are each factor's largest element: no option gives them, and
    a list in the old tops position does not bind to max_tuples."""
    s_path = structure_file(S, "s.json")
    decompose = ["psl", "decompose", "--target", s_path, "--factors", s_path, s_path, "--map", "0,0,0,1"]
    code, out, err = run(capsys, *decompose, "--tops", "0,1")
    assert code == 2 and out == "" and "unrecognized arguments: --tops 0,1" in err
    code, out, _ = run(capsys, *decompose)
    assert code == 0 and "decomposition: pass" in out
    with pytest.raises(TypeError):
        decompose_product_hom([S, S], S, (0, 0, 0, 1), [1, 1])


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
    cases = [  # target, factors, map, exit code, message
        (S, [S, S], "0,0,0", 2, "map has 3 entries for a product of size 4"),
        (S, [S, S], "0,0,0,7", 2, "map value 7 not in target universe of size 2"),
        (S, [S, other], "0,0,0,1", 2, "target and factors have different signatures"),
        (edge, [S, S], "0,0,0,1", 2, "target and factors have different signatures"),
        (edge, [edge, edge], "0,0,0,1", 2, "expected a ternary relation, found arity 2"),
        (nonfunctional, [S, S], "0,0,0,1", 1, "non-functional relation: (0,1,0) and (0,1,1) both present"),
        (S, [two_tops, S], "0,0,0,1", 1, "multiple largest elements [0, 1]; relation not functional"),
        (S, [two_tops, S], "0,1,1,1", 1, "multiple largest elements [0, 1]; relation not functional"),
        (S, [S, S], "0,1,1,1", 1, "not a homomorphism: R tuple (1, 2, 0) maps to (1, 1, 0)"),
    ]
    for n, (target, factors, mapping, code, message) in enumerate(cases):
        with pytest.raises(StructureError) as info:
            decompose_product_hom(factors, target, [int(v) for v in mapping.split(",")])
        assert (str(info.value), isinstance(info.value, DecompositionError)) == (message, code == 1), n
        argv = ["psl", "decompose", "--target", structure_file(target, f"t{n}.json"), "--map", mapping]
        argv += ["--factors", *(structure_file(h, f"f{n}_{i}.json") for i, h in enumerate(factors))]
        expected = (1, f"command: psl decompose\ndecomposition: fail  {message}\n", "") if code == 1 else (2, "", f"error: {message}\n")
        assert run(capsys, *argv) == expected, n

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
        # the report names no arity: at arity 4 every item and claim passes
        ("neg", neg, "4"),
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


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "algebra document must be a JSON object"),
        ({"universe": [0, 1]}, "'universe' must be a list of strings"),
        ({"universe": ["0"], "operations": []}, "'operations' must be an object"),
    ],
)
def test_algebra_file_errors_exit_2(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (["free", "build"], ["alg", "hm-evidence"]):
        assert run(capsys, *argv, "--algebra", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "body, message",
    [
        ({"arity": 1, "size": 2, "values": [0, 1], "name": "f"}, "operation document must have keys 'arity', 'size', 'values'"),
        ({"arity": 1, "size": "2", "values": [0, 1]}, "operation field 'size' must be an integer"),
        ({"arity": 1, "size": 2, "values": [0, "1"]}, "operation values must be integers"),
        # a JSON boolean is no integer, as a table value, an arity or a size
        ({"arity": 1, "size": 2, "values": [0, True]}, "operation values must be integers"),
        ({"arity": True, "size": 2, "values": [0, 1]}, "operation field 'arity' must be an integer"),
        ({"arity": 1, "size": True, "values": [0]}, "operation field 'size' must be an integer"),
    ],
)
def test_operation_document_errors_exit_2(capsys, tmp_path, body, message):
    """Each error names the operation it was raised in."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"universe": ["0", "1"], "operations": {"f": body}}))
    assert run(capsys, "free", "build", "--algebra", str(path)) == (2, "", f"error: operation f: {message}\n")


@pytest.mark.parametrize(
    "body, message",
    [
        ({"arity": 1, "size": 2, "values": [0, 1, 1]}, "table needs 2 values for arity 1, got 3"),
        ({"arity": 1, "size": 2, "values": [0, 2]}, "table value 2 out of range for size 2"),
        ({"arity": 1, "size": 2, "values": {"0": 1}}, "operation field 'values' must be a list"),
    ],
)
def test_operation_errors_name_the_second_of_two_operations(capsys, tmp_path, body, message):
    """A valid first operation is read before the bad second one, which the
    error names, table errors included."""
    path = tmp_path / "bad.json"
    ops = {"f": {"arity": 2, "size": 2, "values": [0, 0, 0, 1]}, "g": body}
    path.write_text(json.dumps({"universe": ["0", "1"], "operations": ops}))
    for argv in (["free", "build"], ["alg", "hm-evidence"]):
        assert run(capsys, *argv, "--algebra", str(path)) == (2, "", f"error: operation g: {message}\n")


def test_hm_evidence_names_the_empty_labeling(capsys, algebra_file, bare_algebra):
    code, out, _ = run(capsys, "alg", "hm-evidence", "--algebra", algebra_file(bare_algebra))
    assert code == 1 and "  surviving_labeling: (empty labeling)" in out.splitlines()


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
        return bundle._replace(components=tuple(c._replace(homs=c.homs[:1]) for c in bundle.components))

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

    def constant_triples_only(seeds, algebra, *rest):
        elements, derivations, index = close(seeds, algebra, *rest)
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("ops: f/2\nf(x, y = x\n", "line 2, col 8: expected ')'"),
        ("ops: f/2\nf(x, y) x\n", "line 2, col 9: expected '='"),
        ("ops: f/2\nf(x, ) = x\n", "line 2, col 6: expected an identifier"),
        # a symbol error gives the column of the name, not of the blanks before it
        ("ops: f/2\nf(x, g(y)) = x\n", "line 2, col 6: undeclared symbol 'g'"),
        ("ops: f/2\nf(x,y) =  h(x)\n", "line 2, col 11: undeclared symbol 'h'"),
        ("ops: f/2, g/1\nf(x,\tg) = x\n", "line 2, col 6: declared symbol 'g' used without arguments"),
        ("ops: f/2, g/2\nf(x, y) =  g(x)\n", "line 2, col 12: symbol 'g' declared with arity 2, applied to 1 arguments"),
        ("ops: f/2\nops: g/1\n", "line 2, col 1: duplicate 'ops:' header"),
        ("ops: f2\n", "line 1, col 1: expected name/arity, got 'f2'"),
        ("ops: 1f/2\n", "line 1, col 1: bad symbol name '1f'"),
        ("ops: f/two\n", "line 1, col 1: bad arity 'two'"),
        ("ops: f/2\nidempotent: g\n", "line 2, col 1: idempotent symbol 'g' is not declared"),
        ("# only a comment\n", "line 1, col 1: missing 'ops:' header"),
    ],
)
def test_identity_system_errors_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    for command in ("linear", "saturate", "sl-interp"):
        assert run(capsys, "ident", command, "--system", str(path)) == (2, "", f"error: {message}\n")


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
    assert report["checks"][2] == {"name": "replay", "verdict": "pass", "witness": None}


def test_ident_sl_interp_exits_2_on_a_cover_that_fails_its_replay(capsys, system_file, monkeypatch):
    # a cover with its first entry dropped leaves m->{1} unrefuted: a fault, not a verdict
    search = identlang.sl_interp_search
    monkeypatch.setattr(identlang, "sl_interp_search", lambda s: search(s)._replace(refutations=search(s).refutations[1:]))
    code, out, _ = run(capsys, "ident", "sl-interp", "--system", system_file(MAJORITY_SYSTEM))
    assert code == 2
    assert out.splitlines()[1] == "interpretation: fail  UNSAT (7 refutations)" and out.splitlines()[-1] == "replay: fail"


@pytest.mark.parametrize("name", ["A", "m", "z"])
def test_ident_sl_interp_refutes_the_block_of_a_majority_alone(capsys, system_file, name):
    # six ternary symbols with only a(x,x,x) = x beside a majority: wherever
    # the majority sorts, its seven prefixes refute all 7^7 labelings
    lines = [f"ops: {', '.join(f'a{i}/3' for i in range(6))}, {name}/3"] + [f"a{i}(x,x,x) = x" for i in range(6)]
    lines += [f"{name}(x,x,y) = x", f"{name}(x,y,x) = x", f"{name}(y,x,x) = x"]
    path = system_file("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "ident", "sl-interp", "--system", path, "--output", "json")
    assert code == 1 and len(out) < 2500
    interpretation, refutations, replay = json.loads(out)["checks"]
    assert interpretation["witness"] == "UNSAT (823543 refutations)" and replay["verdict"] == "pass"
    assert [r["labeling"] for r in refutations["witness"]] == [f"{name}->{{{','.join(map(str, c))}}}" for c in coordinate_sets(3)]


def test_ident_golden_reports(capsys, system_file):
    # saturation's order and witnesses are pinned, bar the timing
    cases = (
        ("ident_saturate_majority", MAJORITY_SYSTEM, ("saturate",), 0),
        ("ident_hm_check_maltsev", MALTSEV_SYSTEM, ("hm-check", "--term", "p"), 0),
        # m is idempotent only through a derived identity
        ("ident_hm_check_majority", MAJORITY_SYSTEM, ("hm-check", "--term", "m"), 0),
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


def test_ident_hm_check_wide_symbol(capsys, system_file):
    # the first of 2^30 - 1 coordinate subsets has no witness, and the check stops there
    path = system_file(f"ops: f/30\nidempotent: f\nf({'x,' * 29}y) = x\n", "wide30.txt")
    code, out, _ = run(capsys, "ident", "hm-check", "--system", path, "--term", "f")
    assert code == 1
    assert out.splitlines()[1:] == ["I={1}: fail  no witness identity", "subset condition: fail"]


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


SURVIVOR = FiniteAlgebra(3, {
    "t0": OperationTable(2, 3, (0, 2, 0, 2, 1, 1, 2, 1, 2)),
    "t1": OperationTable(2, 3, (0, 0, 2, 2, 1, 2, 2, 0, 2)),
}, ("0", "1", "2"))


def test_alg_hm_evidence_witnessed_survivor(capsys, algebra_file, monkeypatch):
    """A witnessed survivor names its witness and replays it, exit 1, or 2
    when the replay fails; without a witness the survivor is bounded
    evidence, as before."""
    path = algebra_file(SURVIVOR)
    code, out, _ = run(capsys, "alg", "hm-evidence", "--algebra", path, "--max-arity", "3")
    assert code == 1 and out.splitlines() == [
        "command: alg hm-evidence",
        "certified: fail",
        "  surviving_labeling: t0->{1} t1->{1,2}",
        "  max_arity: 3",
        "  a: 2",
        "  b: 0",
        '  subuniverse: ["0", "2"]',
        '  h: {"0": 1, "2": 0}',
        "  note: no labeling certificate exists at any arity",
        "replay: pass",
    ]
    code, out, _ = run(capsys, "alg", "hm-evidence", "--algebra", path, "--output", "json")
    checks = json.loads(out)["checks"]
    assert code == 1 and checks[0]["witness"]["h"] == {"0": 1, "2": 0} and checks[1]["verdict"] == "pass"

    monkeypatch.setattr(freecons, "verify_witness", lambda a, witness: False)
    code, out, _ = run(capsys, "alg", "hm-evidence", "--algebra", path)
    assert code == 2 and out.splitlines()[-1] == "replay: fail"

    monkeypatch.setattr(freecons, "_two_element_witness", lambda a, labeling: None)
    code, out, _ = run(capsys, "alg", "hm-evidence", "--algebra", path, "--output", "json")
    assert code == 1 and json.loads(out)["checks"] == [{"name": "certified", "verdict": "fail", "witness": {
        "surviving_labeling": "t0->{1} t1->{1,2}",
        "max_arity": 2,
        "note": "bounded evidence only; identities above the arity bound were not examined",
    }}]


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


def test_six_majority_symbols_are_answered_by_a_cover(capsys, algebra_file, system_file, majority_algebra):
    # every labeling of m0 is refuted by an identity in m0 alone, so seven
    # entries stand for the 7^6 labelings; the counts are of labelings
    prefixes = [f"m0->{{{','.join(map(str, c))}}}" for c in coordinate_sets(3)]
    six = FiniteAlgebra(2, {f"m{i}": majority_algebra.operations["m"] for i in range(6)})
    code, out, _ = run(capsys, "alg", "hm-evidence", "--algebra", algebra_file(six), "--output", "json")
    report = json.loads(out)
    assert code == 0 and len(out) < 100_000
    assert report["checks"][0]["witness"] == {"max_arity": 3, "labelings_refuted": 117649}
    assert report["checks"][1] == {"name": "replay", "verdict": "pass", "witness": None}
    assert [c["name"] for c in report["checks"][2:]] == prefixes

    text = "ops: " + ", ".join(f"m{i}/3" for i in range(6)) + "\n"
    text += "".join(f"m{i}(x,x,y) = x\nm{i}(x,y,x) = x\nm{i}(y,x,x) = x\n" for i in range(6))
    code, out, _ = run(capsys, "ident", "sl-interp", "--system", system_file(text), "--output", "json")
    report = json.loads(out)
    assert code == 1 and len(out) < 100_000
    assert report["checks"][0]["witness"] == "UNSAT (117649 refutations)"
    assert [r["labeling"] for r in report["checks"][1]["witness"]] == prefixes


def test_alg_hm_evidence_certifies_a_constant_at_arity_bound_1(capsys, algebra_file):
    constant = FiniteAlgebra(1, {"c": OperationTable(0, 1, (0,))})
    code, out, _ = run(
        capsys, "alg", "hm-evidence", "--algebra", algebra_file(constant), "--max-arity", "1", "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["witness"] == {"max_arity": 1, "labelings_refuted": 0}


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


def test_negative_max_tuples_is_a_usage_error(capsys, structure_file, algebra_file, S, meet_algebra):
    """The parser refuses a negative bound and names the option; 0 is a
    bound like any other and reaches the library, which reports the overflow."""
    s, a = structure_file(S), algebra_file(meet_algebra)
    overflow = {
        "structure": "error: product needs 16 > 0 tuples",
        "free": "error: closure exceeded 0 elements",
        "alg": "error: closure exceeded 0 elements",
        "psl": "error: product walk needs > 0 tuples",
    }
    for argv in (
        ["structure", "power", s, "2"],
        ["free", "build", "--algebra", a],
        ["alg", "hm-evidence", "--algebra", a],
        ["psl", "decompose", "--target", s, "--factors", s, s, "--map", "0,1,1,1"],
    ):
        for bad, value in ((["--max-tuples", "-1"], -1), (["--max-tuples=-5"], -5)):
            code, out, err = run(capsys, *argv, *bad)
            assert (code, out) == (2, ""), argv
            assert err.splitlines()[-1].endswith(f"error: argument --max-tuples: must be >= 0, got {value}"), err
        code, out, err = run(capsys, *argv, "--max-tuples", "0")
        assert (code, out, err) == (2, "", overflow[argv[0]] + "\n"), argv


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

    decompose = ["psl", "decompose", "--target", path, "--factors", path, path, "--map", "0,1,1,1"]
    code, out, err = run(capsys, *decompose, "--max-tuples", "6")
    assert (code, out, err) == (2, "", "error: product walk needs > 6 tuples\n")
    code, out, _ = run(capsys, *decompose)
    assert code == 1 and "not a homomorphism: R tuple (1, 2, 0) maps to (1, 1, 0)" in out


# a valid argv after (group, command) for every command, with abbreviated
# and `=` forms of options; the files are never opened
VALID_ARGS = {
    ("structure", "validate"): ["s.json", "--outp", "json"],
    ("structure", "components"): ["s.json", "--output=json"],
    ("structure", "product"): ["a.json", "b.json", "--max-t", "9", "--out", "p.json"],
    ("structure", "power"): ["s.json", "3", "--max-tuples=9"],
    ("structure", "union"): ["a.json", "b.json", "--out=u.json"],
    ("structure", "induced"): ["s.json", "--ids", "0,1"],
    ("structure", "iso"): ["a.json", "b.json"],
    ("hom", "find"): ["a.json", "b.json", "--nonc", "--limit=2"],
    ("hom", "count"): ["--output", "json", "a.json", "b.json"],
    ("hom", "check"): ["a.json", "b.json", "--map=0,1"],
    ("hom", "retract"): ["a.json", "--", "b.json"],
    ("pol", "enumerate"): ["s.json", "--ar", "2", "--classify"],
    ("psl", "check"): ["s.json", "--outp", "json"],
    ("psl", "largest"): ["s.json"],
    ("psl", "meet"): ["s.json", "0", "-1"],
    ("psl", "decompose"): ["--target", "s.json", "--factors", "a.json", "b.json", "--map", "0,0,0,1", "--max-tuples=7"],
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
    monkeypatch.setattr(cli, "_emit_report", lambda args, command, checks, code, started: code)
    for (group, command), rest in VALID_ARGS.items():
        name = f"cmd_{group}_{command}".replace("-", "_")
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or ([], 0))
        argv = [group, command, *rest]
        assert run(capsys, *argv) == (0, "", "")
        assert vars(seen.pop()) == vars(cli._parsers()[0].parse_args(argv))
    # the console script reaches main with argv=None
    monkeypatch.setattr(sys, "argv", ["hmkit", "psl", "check", "s.json", "--output=json"])
    assert main() == 0
    assert vars(seen.pop()) == {"group": "psl", "command": "check", "file": "s.json", "output": "json"}


# a runnable argv after (group, command) for every command, on S, the
# majority algebra and the majority system; a printed structure goes to a
# directory that does not exist
REAL_ARGS = {
    ("structure", "validate"): ["{S}"],
    ("structure", "components"): ["{S}"],
    ("structure", "product"): ["{S}", "{S}", "--out", "{missing}"],
    ("structure", "power"): ["{S}", "2", "--out", "{missing}"],
    ("structure", "union"): ["{S}", "{S}", "--out", "{missing}"],
    ("structure", "induced"): ["{S}", "--ids", "0,1", "--out", "{missing}"],
    ("structure", "iso"): ["{S}", "{S}"],
    ("hom", "find"): ["{S}", "{S}"],
    ("hom", "count"): ["{S}", "{S}"],
    ("hom", "check"): ["{S}", "{S}", "--map", "0,1"],
    ("hom", "retract"): ["{S}", "{S}"],
    ("pol", "enumerate"): ["{S}", "--arity", "2"],
    ("psl", "check"): ["{S}"],
    ("psl", "largest"): ["{S}"],
    ("psl", "meet"): ["{S}", "0", "1"],
    ("psl", "decompose"): ["--target", "{S}", "--factors", "{S}", "{S}", "--map", "0,0,0,1"],
    ("free", "build"): ["--algebra", "{algebra}"],
    ("gadget", "apply"): ["--input", "{S}", "--out", "{missing}"],
    ("gadget", "analyze"): ["--input", "{S}"],
    ("ident", "parse"): ["--system", "{system}"],
    ("ident", "linear"): ["--system", "{system}"],
    ("ident", "saturate"): ["--system", "{system}"],
    ("ident", "hm-check"): ["--system", "{system}", "--term", "m"],
    ("ident", "sl-interp"): ["--system", "{system}"],
    ("alg", "hm-evidence"): ["--algebra", "{algebra}"],
}


@pytest.mark.parametrize("group, command", sorted(cli._parsers()[1]))
def test_main_writes_each_report_under_its_command_name(
    capsys, tmp_path, structure_file, algebra_file, system_file, S, majority_algebra, group, command
):
    """main names every report after the command that ran; a structure that
    cannot be written is unusable output, exit 2, as main writes it."""
    files = {
        "S": structure_file(S),
        "algebra": algebra_file(majority_algebra),
        "system": system_file(MAJORITY_SYSTEM),
        "missing": str(tmp_path / "missing" / "x.json"),
    }
    argv = [group, command, *(arg.format(**files) for arg in REAL_ARGS[group, command])]
    if "--output" not in cli._parsers()[1][group, command]._option_string_actions:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: "), err
        return
    code, out, err = run(capsys, *argv)
    assert code in (0, 1) and err == "" and out.splitlines()[0] == f"command: {group} {command}"
    code, out, err = run(capsys, *argv, "--output", "json")
    assert code in (0, 1) and err == "" and json.loads(out)["command"] == f"{group} {command}"


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
