"""Command-line front end.

Every subcommand is a thin adapter around one library call: its handler
loads the inputs, invokes the call and returns its checks and exit code,
or the structure it built.  `main` writes either: each report is named
after the command that ran and timed from `main`'s start, and an error
while writing (an `--out` path that cannot be opened) exits 2 as unusable
input does.  Exit codes follow one convention throughout: 0 for success
or all checks passing, 1 for a verified negative verdict (refutation,
refusal, absence), 2 for unusable input or usage errors, and also 2, with
`internal error: <type>: <message>` on stderr, for any other exception
(an exhausted resource or a bug), which is never a verdict.

The argument parser is built once per process, on the first `main()` call
(never at import), and reused by every later call; each call still parses
into a fresh namespace, so no option value carries over.  A call that
names a command is parsed by that command's own parser, and the top parser
reports its leftovers as the tree would; the whole tree parses only the
rest, which is help and errors (unknown names, options before a command).

Reports are plain text by default; `--output json` switches to a stable
schema {"command", "checks": [{"name", "verdict", "witness"}],
"elapsed_ms"} that is byte-identical across runs except for the timing
field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import freecons, gadget, identlang, semilat, structures
from .homsearch import (
    count_homs,
    find_homs,
    find_retraction,
    is_homomorphism,
    polymorphisms,
)
from .structures import (
    DEFAULT_MAX_TUPLES,
    RelationalStructure,
    SizeLimitExceeded,
    StructureError,
)


class Check(NamedTuple):
    name: str
    verdict: str  # pass | fail | refused
    witness: object = None


def _ids(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _bound(text: str) -> int:
    """A size bound: an int >= 0; argparse names the option on refusal."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_SCALARS = frozenset({str, int, float, bool, type(None)})  # exact types: subclasses take json.dumps


@functools.cache
def _flat_encoder(nl: str) -> json.JSONEncoder:
    """C-level encoder of a scalar, or of a flat list with one item per line at `nl`."""
    return json.JSONEncoder(check_circular=False, separators=("," + nl, ": "))


def _json_text(doc, nl: str = "\n") -> str:
    """Exactly `json.dumps(doc, indent=2)`, for `doc` nested at `nl` (a newline and its indent).

    Scalars and flat lists go through the C encoder.  Anything else that is
    no non-empty list, tuple or dict with `str` keys goes to json.dumps.
    """
    kind = type(doc)
    if kind in _SCALARS:
        return _flat_encoder(nl).encode(doc)
    inner = nl + "  "
    if (kind is list or kind is tuple) and doc:
        if _SCALARS.issuperset(map(type, doc)):
            return "[" + inner + _flat_encoder(inner).encode(doc)[1:-1] + nl + "]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in doc]) + nl + "]"
    if kind is dict and doc and {str}.issuperset(map(type, doc)):
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in doc.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(doc, indent=2).replace("\n", nl)


def _emit_structure(args, s: RelationalStructure) -> int:
    text = _json_text(structures.structure_to_json(s))
    if args.out:  # every command that prints a structure offers --out
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _emit_report(args, command: str, checks: list[Check], code: int, started: float) -> int:
    if args.output == "json":
        report = {
            "command": command,
            "checks": [{"name": c.name, "verdict": c.verdict, "witness": c.witness} for c in checks],
            "elapsed_ms": round((time.monotonic() - started) * 1000, 3),
        }
        print(_json_text(report))
        return code
    print(f"command: {command}")
    for c in checks:
        line = f"{c.name}: {c.verdict}"
        if isinstance(c.witness, str) and c.witness:
            line += f"  {c.witness}"
        print(line)
        if isinstance(c.witness, (list, tuple)):
            for item in c.witness:
                print(f"  {item if isinstance(item, str) else json.dumps(item)}")
        elif isinstance(c.witness, dict):
            for k, v in c.witness.items():
                print(f"  {k}: {v if isinstance(v, str) else json.dumps(v)}")
    return code


Report = tuple[list[Check], int]  # what a report handler returns: its checks and its exit code


# --- structure ---------------------------------------------------------------


def cmd_structure_validate(args) -> Report:
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        s = structures.structure_from_json(data)
    except StructureError as exc:
        return [Check("valid", "fail", str(exc))], 1
    witness = f"{s.size} elements, {sum(len(r.tuples) for r in s.relations.values())} tuples"
    return [Check("valid", "pass", witness)], 0


def cmd_structure_components(args) -> Report:
    s = structures.load_structure(args.file)
    return [Check("components", "pass", [list(b) for b in structures.connected_components(s)])], 0


def cmd_structure_product(args) -> RelationalStructure:
    factors = [structures.load_structure(f) for f in args.files]
    return structures.product(factors, max_tuples=args.max_tuples)


def cmd_structure_power(args) -> RelationalStructure:
    s = structures.load_structure(args.file)
    return structures.power(s, args.exponent, max_tuples=args.max_tuples)


def cmd_structure_union(args) -> RelationalStructure:
    return structures.disjoint_union([structures.load_structure(f) for f in args.files])


def cmd_structure_induced(args) -> RelationalStructure:
    return structures.induced_substructure(structures.load_structure(args.file), args.ids)


def cmd_structure_iso(args) -> Report:
    a, b = structures.load_structure(args.first), structures.load_structure(args.second)
    iso = structures.find_isomorphism(a, b)
    if iso is None:
        return [Check("isomorphic", "fail", structures.non_isomorphism_evidence(a, b))], 1
    return [Check("isomorphic", "pass", list(iso))], 0


# --- hom ----------------------------------------------------------------------


def cmd_hom_find(args) -> Report:
    src, tgt = structures.load_structure(args.source), structures.load_structure(args.target)
    homs = find_homs(src, tgt, limit=args.limit, nonconstant_only=args.nonconstant)
    return [Check("homomorphisms", "pass", [",".join(map(str, m)) for m in homs])], 0


def cmd_hom_count(args) -> Report:
    src, tgt = structures.load_structure(args.source), structures.load_structure(args.target)
    n = count_homs(src, tgt)
    return [Check("count", "pass", str(n))], 0


def cmd_hom_check(args) -> Report:
    src, tgt = structures.load_structure(args.source), structures.load_structure(args.target)
    result = is_homomorphism(src, tgt, args.map)
    if result.ok:
        return [Check("homomorphism", "pass")], 0
    witness = {
        "symbol": result.symbol,
        "source_tuple": list(result.source_tuple),
        "image_tuple": list(result.image_tuple),
    }
    return [Check("homomorphism", "fail", witness)], 1


def cmd_hom_retract(args) -> Report:
    big, small = structures.load_structure(args.big), structures.load_structure(args.small)
    pair = find_retraction(big, small)
    if pair is None:
        return [Check("retract", "fail")], 1
    return [Check("retract", "pass", {"into": list(pair[0]), "onto": list(pair[1])})], 0


# --- pol ----------------------------------------------------------------------


def cmd_pol_enumerate(args) -> Report:
    tables = polymorphisms(structures.load_structure(args.file), args.arity)
    checks = [Check("count", "pass", str(len(tables)))]
    code = 0
    if args.classify:
        for i, t in enumerate(tables):
            cls = semilat.classify_meet_operation(t)
            values = ",".join(map(str, t.values))
            if cls is None:
                checks.append(Check(f"table {i}", "refused", values))
                code = 1
            else:
                checks.append(Check(f"table {i}", "pass", f"{values}  {cls.describe()}"))
    else:
        checks.append(Check("tables", "pass", [",".join(map(str, t.values)) for t in tables]))
    return checks, code


# --- psl ----------------------------------------------------------------------


def cmd_psl_check(args) -> Report:
    s = structures.load_structure(args.file)
    result = semilat.is_partial_semilattice(s)
    if isinstance(result, semilat.Refusal):
        witness = {"reason": result.reason, "detail": list(result.detail or ())}
        return [Check("partial semilattice", "refused", witness)], 1
    witness = {"ambient_size": 2**s.size, "embedding": list(result.embedding)}
    return [Check("partial semilattice", "pass", witness)], 0


def cmd_psl_largest(args) -> Report:
    top = semilat.largest_element(structures.load_structure(args.file))
    if top is None:
        return [Check("largest element", "fail")], 1
    return [Check("largest element", "pass", str(top))], 0


def cmd_psl_meet(args) -> Report:
    value = semilat.meet_lookup(structures.load_structure(args.file), args.first, args.second)
    if value is None:
        return [Check("meet defined", "fail")], 1
    return [Check("meet defined", "pass", str(value))], 0


def cmd_psl_decompose(args) -> Report:
    factors = [structures.load_structure(f) for f in args.factors]
    target = structures.load_structure(args.target)
    try:
        decomposition = semilat.decompose_product_hom(factors, target, args.map, max_tuples=args.max_tuples)
    except semilat.DecompositionError as exc:  # unusable input is any other StructureError
        return [Check("decomposition", "fail", str(exc))], 1
    if decomposition.is_constant:
        witness = {"constant": decomposition.constant_value}
    else:
        witness = {"coordinate_maps": list(map(list, decomposition.coordinate_maps))}
    return [Check("decomposition", "pass", witness)], 0


# --- free ---------------------------------------------------------------------

_STATUS_TO_VERDICT = {freecons.PASS: "pass", freecons.FAIL: "fail", freecons.SKIPPED: "refused"}


def cmd_free_build(args) -> Report:
    if args.verify_claims is not None and args.verify_claims < 1:  # refused before the build it would waste
        raise StructureError(f"claim arity must be >= 1, got {args.verify_claims}")
    algebra = freecons.load_algebra(args.algebra)
    bundle = freecons.build_bundle(algebra, max_tuples=args.max_tuples)
    checks = [Check("build", "pass", freecons.bundle_summary(bundle))]
    reports = []
    if args.verify_lemma22:
        reports.append(freecons.verify_lemma22(bundle))
    if args.verify_claims is not None:
        reports.append(freecons.verify_claims(bundle, args.verify_claims))
    for report in reports:
        checks.extend(Check(r.name, _STATUS_TO_VERDICT[r.status], r.detail or None) for r in report.results)
    return checks, 0 if all(report.passed for report in reports) else 1


# --- gadget ---------------------------------------------------------------------


def cmd_gadget_apply(args) -> RelationalStructure:
    return gadget.gadget_transform(structures.load_structure(args.input))


def cmd_gadget_analyze(args) -> Report:
    d = structures.load_structure(args.input)
    semilat.single_ternary_relation(d)  # unusable input; a component that is no power is a verdict
    try:
        analysis = gadget.analyze_gadget_components(d)
    except StructureError as exc:
        return [Check("powers of the semilattice", "fail", str(exc))], 1
    checks = [
        Check("input exponents", "pass", list(analysis.input_exponents)),
        Check("output exponents", "pass", list(analysis.output_exponents)),
        Check("multiplicities", "pass", {str(k): v for k, v in analysis.multiplicities().items()}),
    ]
    return checks, 0


# --- ident ----------------------------------------------------------------------


def _read_system(path: str) -> identlang.TermSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return identlang.parse(fh.read())


def cmd_ident_parse(args) -> Report:
    try:
        sys_ = _read_system(args.system)
    except identlang.ParseError as exc:
        return [Check("parse", "fail", str(exc))], 1
    return [Check("parse", "pass", identlang.format_system(sys_).splitlines())], 0


def cmd_ident_linear(args) -> Report:
    checks = []
    code = 0
    for identity in _read_system(args.system).identities:
        ok = identlang.is_linear(identity)
        checks.append(Check(str(identity), "pass" if ok else "fail"))
        if not ok:
            code = 1
    return checks, code


def cmd_ident_saturate(args) -> Report:
    witness = [text for text, _, _ in identlang.saturation(_read_system(args.system))]
    return [Check("saturated identities", "pass", witness)], 0


def cmd_ident_hm_check(args) -> Report:
    sys_ = _read_system(args.system)
    saturated = identlang.saturate(identlang.linear_fragment(sys_))
    report = identlang.hm_term_check(saturated, args.term)
    checks = []
    for subset, identity in report.witnesses:
        checks.append(Check(f"I={{{','.join(map(str, subset))}}}", "pass", str(identity)))
    if report.missing is not None:
        checks.append(Check(f"I={{{','.join(map(str, report.missing))}}}", "fail", "no witness identity"))
    checks.append(Check("subset condition", "pass" if report.passed else "fail"))
    return checks, 0 if report.passed else 1


def cmd_ident_sl_interp(args) -> Report:
    sys_ = _read_system(args.system)
    result = identlang.sl_interp_search(sys_)
    if isinstance(result, identlang.SLLabeling):
        return [Check("interpretation", "pass", result.describe())], 0
    witness = [
        {
            "labeling": r.labeling.describe(),
            "identity": str(r.identity),
            "lhs_varset": sorted(r.lhs_varset),
            "rhs_varset": sorted(r.rhs_varset),
        }
        for r in result.refutations  # one per refuted prefix, under its partial labeling
    ]
    own = lambda r: r.identity if any(getattr(r, "identity", None) is i for i in sys_.identities) else None
    replay = identlang.replay_cover(sys_.declarations, result.refutations, own)  # own: by object, as == recurses on deep terms
    refuted = identlang.labeling_count(sys_.declarations.values())  # every labeling, by its restriction to the block
    checks = [Check("interpretation", "fail", f"UNSAT ({refuted} refutations)"), Check("refutations", "pass", witness)]
    return checks + [Check("replay", "pass" if replay else "fail")], 1 if replay else 2


# --- alg ------------------------------------------------------------------------


def cmd_alg_hm_evidence(args) -> Report:
    algebra = freecons.load_algebra(args.algebra)
    evidence = freecons.hm_evidence(algebra, args.max_arity, max_tuples=args.max_tuples)
    if isinstance(evidence, freecons.ConsistentLabelingFound):
        witness = {"surviving_labeling": evidence.labeling.describe(), "max_arity": evidence.max_arity}
        if evidence.witness is None:
            witness["note"] = "bounded evidence only; identities above the arity bound were not examined"
            return [Check("certified", "fail", witness)], 1
        (lo, hi), universe, bits, _ = evidence.witness
        label = algebra.labels.__getitem__
        witness |= {"a": label(lo), "b": label(hi), "subuniverse": list(map(label, universe))}
        witness |= {"h": dict(zip(map(label, universe), bits)), "note": "no labeling certificate exists at any arity"}
        replay = freecons.verify_witness(algebra, evidence.witness)
        return [Check("certified", "fail", witness), Check("replay", "pass" if replay else "fail")], 1 if replay else 2
    replay = freecons.verify_certificate(algebra, evidence)
    refuted = identlang.labeling_count(op.arity for op in algebra.operations.values())  # all of them, in the cover's blocks
    checks = [
        Check("certified", "pass", {"max_arity": evidence.max_arity, "labelings_refuted": refuted}),
        Check("replay", "pass" if replay else "fail"),
    ]
    for r in evidence.refutations:  # one per refuted prefix, named by its partial labeling
        checks.append(Check(r.labeling.describe(), "pass", f"{r.lhs} = {r.rhs} (arity {r.arity})"))
    return checks, 0 if replay else 1


# --- parser -----------------------------------------------------------------------


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[tuple[str, str], argparse.ArgumentParser]]:
    """The argument tree and its table (group, command) -> the command's own parser.

    Subcommands carry no handler: `main` looks up `cmd_<group>_<command>` in
    this module when each call runs, so the cached tree pins no function.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"), default="text")
    # only the subcommands that print a report offer --output, and only
    # those whose library call takes a size bound offer --max-tuples
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--max-tuples", type=_bound, default=DEFAULT_MAX_TUPLES)

    parser = argparse.ArgumentParser(prog="hmkit", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True)
    tables = {}  # group -> its subparsers action, whose choices are the command parsers

    def group(name: str, summary: str):
        tables[name] = groups.add_parser(name, help=summary).add_subparsers(dest="command", required=True)
        return tables[name]

    structure = group("structure", "structure file operations")
    p = structure.add_parser("validate", parents=[common])
    p.add_argument("file")
    p = structure.add_parser("components", parents=[common])
    p.add_argument("file")
    p = structure.add_parser("product", parents=[sized])
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    p = structure.add_parser("power", parents=[sized])
    p.add_argument("file")
    p.add_argument("exponent", type=int)
    p.add_argument("--out")
    p = structure.add_parser("union")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    p = structure.add_parser("induced")
    p.add_argument("file")
    p.add_argument("--ids", type=_ids, required=True)
    p.add_argument("--out")
    p = structure.add_parser("iso", parents=[common])
    p.add_argument("first")
    p.add_argument("second")

    hom = group("hom", "homomorphism search")
    p = hom.add_parser("find", parents=[common])
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--nonconstant", action="store_true")
    p.add_argument("--limit", type=int, default=0)
    p = hom.add_parser("count", parents=[common])
    p.add_argument("source")
    p.add_argument("target")
    p = hom.add_parser("check", parents=[common])
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--map", type=_ids, required=True)
    p = hom.add_parser("retract", parents=[common])
    p.add_argument("big")
    p.add_argument("small")

    pol = group("pol", "polymorphism enumeration")
    p = pol.add_parser("enumerate", parents=[common])
    p.add_argument("file")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--classify", action="store_true")

    psl = group("psl", "partial semilattice checks")
    p = psl.add_parser("check", parents=[common])
    p.add_argument("file")
    p = psl.add_parser("largest", parents=[common])
    p.add_argument("file")
    p = psl.add_parser("meet", parents=[common])
    p.add_argument("file")
    p.add_argument("first", type=int)
    p.add_argument("second", type=int)
    p = psl.add_parser("decompose", parents=[common, sized])
    p.add_argument("--target", required=True)
    p.add_argument("--factors", nargs="+", required=True)
    p.add_argument("--map", type=_ids, required=True)

    free = group("free", "free construction pipeline")
    p = free.add_parser("build", parents=[common, sized])
    p.add_argument("--algebra", required=True)
    p.add_argument("--verify-lemma22", action="store_true")
    p.add_argument("--verify-claims", type=int, default=None, metavar="N")

    gadget_group = group("gadget", "hom-set gadget")
    p = gadget_group.add_parser("apply")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p = gadget_group.add_parser("analyze", parents=[common])
    p.add_argument("--input", required=True)

    ident = group("ident", "identity systems")
    p = ident.add_parser("parse", parents=[common])
    p.add_argument("--system", required=True)
    p = ident.add_parser("linear", parents=[common])
    p.add_argument("--system", required=True)
    p = ident.add_parser("saturate", parents=[common])
    p.add_argument("--system", required=True)
    p = ident.add_parser("hm-check", parents=[common])
    p.add_argument("--system", required=True)
    p.add_argument("--term", required=True)
    p = ident.add_parser("sl-interp", parents=[common])
    p.add_argument("--system", required=True)

    alg = group("alg", "algebra-side evidence")
    p = alg.add_parser("hm-evidence", parents=[common, sized])
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-arity", type=int, default=None)

    commands = {(g, c): p for g, table in tables.items() for c, p in table.choices.items()}
    return parser, commands


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    try:
        command_parser = commands.get(tuple(argv[:2]))
        if command_parser is None:  # help, usage errors and unknown names take the whole tree
            args = parser.parse_args(argv)
        else:  # as the tree would, but without walking its two upper levels
            args, rest = command_parser.parse_known_args(argv[2:])
            if rest:
                parser.error(f"unrecognized arguments: {' '.join(rest)}")
            args.group, args.command = argv[:2]
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = globals()[f"cmd_{args.group}_{args.command}".replace("-", "_")](args)
        if isinstance(result, RelationalStructure):
            return _emit_structure(args, result)
        return _emit_report(args, f"{args.group} {args.command}", *result, started)
    except (SizeLimitExceeded, StructureError, identlang.ParseError, identlang.SystemError_,
            OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault or exhausted resource is never a verdict
        import traceback  # only here: start-up need not load it

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
