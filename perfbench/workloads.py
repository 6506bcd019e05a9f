"""The benchmark's workloads: seeded `hmkit` CLI jobs and the check on each answer.

`build(name, seed, rounds, root, workdir)` writes the inputs under
`root/workdir` and returns the workload's jobs.  A workload is `rounds`
repetitions of one recipe, each with fresh seeded draws, so a run averages
over many inputs as well as over time.  Every job runs
`hmkit.cli.main(argv)` with `--output json`; its check raises `WrongAnswer`
when the report disagrees with an answer known independently (gen.py) or
recorded at the commit the benchmark was defined on (expected.json).
Checks compare invariants only (verdicts, counts, sizes, exponents,
kernels), never representation bytes a deliberate change may alter.

Draws whose cost spreads widely inside one input class are stratified:
each round holds a fixed number of draws from each class, so the work of a
round moves little from seed to seed while every draw stays random.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


class WrongAnswer(Exception):
    """A job's report contradicts the known answer."""


@dataclass
class Job:
    argv: list[str]
    codes: tuple[int, ...]  # exit codes that are answers, not failures
    check: Callable[[int, dict | None], None]
    kind: str  # subcommand, for reports


def require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def verdicts(report: dict) -> list[list[str]]:
    return [[c["name"], c["verdict"]] for c in report["checks"]]


def witness(report: dict, name: str):
    for c in report["checks"]:
        if c["name"] == name:
            return c["witness"]
    raise WrongAnswer(f"report has no check named {name!r}")


class Inputs:
    """Writes input files under root/workdir and hands back their argv paths."""

    def __init__(self, root: Path, workdir: str) -> None:
        self.root, self.workdir = root, workdir
        (root / workdir).mkdir(parents=True, exist_ok=True)

    def put(self, name: str, text: str) -> str:
        (self.root / self.workdir / name).write_text(text)
        return f"{self.workdir}/{name}"

    def path(self, name: str) -> str:
        return f"{self.workdir}/{name}"


def cli(*argv: str) -> list[str]:
    return [*argv, "--output", "json"]


# --- free-pipeline ------------------------------------------------------------------

NAMED_ALGEBRAS = {
    "meet": gen.algebra(2, {"meet": gen.table(2, 2, min)}),
    "lattice": gen.algebra(2, {"meet": gen.table(2, 2, min), "join": gen.table(2, 2, max)}),
    "majority": gen.algebra(2, {"m": gen.table(2, 3, lambda a, b, c: int(a + b + c >= 2))}),
    "empty": gen.algebra(2, {}),
    "chain3": gen.algebra(3, {"meet": gen.table(3, 2, min)}),
}

# draws per round of idempotent 2-element algebras, by (ternary operations,
# size of the free algebra on two generators); that size sets the cost.
# Two operations with a 4-element free algebra take 0.2-4.3 s each, a spread
# no class here tames, so that class is exercised by hm-evidence only.
# One-operation draws with a 3-element free algebra take 5-85 ms, on either
# side of the lattice build, so they are left to hm-evidence too.  Four named
# algebras are faster than the lattice and the four draws slower, so the
# median job is the lattice build and the tail lies among the 4-element
# closures.
FREE_SLOTS = {(2, 3): 2, (1, 4): 2}


def summary_invariants(summary: dict) -> dict:
    return {
        "free_size": summary["free_size"],
        "unary_ops": summary["unary_ops"],
        "relation_size": summary["relation_size"],
        "image_size": summary["image_size"],
        "hom_counts": sorted(c["hom_count"] for c in summary["components"]),
        "collapsed_sizes": sorted(c["collapsed_size"] for c in summary["components"]),
        "kernel_blocks": sorted(len(b) for b in summary["kernel"]),
    }


def free_job(path: str, name: str, summary: dict, expect_verdicts: list) -> Job:
    def check(code, report):
        got = verdicts(report)
        require(got == expect_verdicts, f"{name}: verdicts {got} != {expect_verdicts}")
        got_summary = summary_invariants(report["checks"][0]["witness"])
        require(got_summary == summary, f"{name}: summary {got_summary} != {summary}")

    argv = cli("free", "build", "--algebra", path, "--verify-lemma22", "--verify-claims", "2")
    return Job(argv, (0,), check, "free build")


def seeded_free_verdicts(summary: dict) -> list[list[str]]:
    """Every item and claim passes on an idempotent 2-element algebra, except
    that the retract item is refused when H is empty."""
    return [
        [item, "refused" if item.startswith("item 3") and not summary["hom_counts"][0] else "pass"]
        for item, _ in EXPECTED["free"]["meet"]["verdicts"]
    ]


def stratified_algebras(rng: random.Random, slots: dict) -> list[dict]:
    """Idempotent 2-element algebras with ternary operations, classed by
    (operations, size of the free algebra on two generators): uniform
    draws inside each class until every slot is filled, in draw order."""
    want, out = dict(slots), []
    while any(want.values()):
        ops = rng.choice([k for k, v in want.items() if v])[0]
        alg = gen.algebra(2, {f"t{j}": gen.idempotent_table(rng, 2, 3) for j in range(ops)})
        key = (ops, gen.two_element_free_size(alg))
        if want.get(key):
            want[key] -= 1
            out.append(alg)
    return out


def free_pipeline(rng: random.Random, io: Inputs) -> list[Job]:
    jobs = []
    for name, alg in NAMED_ALGEBRAS.items():
        rec = EXPECTED["free"][name]
        jobs.append(free_job(io.put(f"{name}.json", gen.dumps(alg)), name, rec["summary"], rec["verdicts"]))
    for i, alg in enumerate(stratified_algebras(rng, FREE_SLOTS)):
        summary = gen.two_element_free_build(alg)
        jobs.append(free_job(io.put(f"draw{i}.json", gen.dumps(alg)), f"draw{i}", summary, seeded_free_verdicts(summary)))
    return jobs


# --- search ----------------------------------------------------------------------------


def gadget_job(path: str, exponents: list[int]) -> Job:
    want = {str(k): v for k, v in gen.gadget_multiplicities(exponents).items()}

    def check(code, report):
        require(sorted(witness(report, "input exponents")) == sorted(exponents), "input exponents")
        require(witness(report, "multiplicities") == want, f"multiplicities {witness(report, 'multiplicities')} != {want}")

    return Job(cli("gadget", "analyze", "--input", path), (0,), check, "gadget analyze")


def pol_job(path: str, arity: int, count: int, classify: bool) -> Job:
    """Polymorphisms of one arity.  Classification is defined over {0,1} only,
    so it is asked for on S, where every table must come out a meet or a
    constant, and larger structures check the count and the table list."""

    def check(code, report):
        require(witness(report, "count") == str(count), f"{witness(report, 'count')} polymorphisms, expected {count}")
        if classify:
            require(all(v == "pass" for _, v in verdicts(report)), "a polymorphism of S is neither meet nor constant")
        else:
            require(len(set(witness(report, "tables"))) == count, "table list does not match the count")

    argv = cli("pol", "enumerate", path, "--arity", str(arity), *(["--classify"] if classify else []))
    return Job(argv, (0,), check, "pol enumerate")


def is_hom(mapping, src: dict, tgt: dict) -> bool:
    tt = gen.triples(tgt)
    return len(mapping) == gen.size_of(src) and all(tuple(mapping[v] for v in t) in tt for t in gen.triples(src))


def search(rng: random.Random, io: Inputs) -> list[Job]:
    jobs = []
    s_path = io.put("S.json", gen.dumps(gen.semilattice()))
    S = gen.semilattice()
    powers = {n: gen.power(S, n) for n in range(1, 6)}
    for n in range(1, 6):
        jobs.append(gadget_job(io.put(f"S{n}.json", gen.dumps(powers[n])), [n]))
    for i, exps in enumerate([[4, rng.randint(1, 3)], [rng.randint(1, 3), rng.randint(1, 3)], [rng.randint(1, 2) for _ in range(3)]]):
        union = gen.disjoint_union([powers[a] for a in exps])
        jobs.append(gadget_job(io.put(f"union{i}.json", gen.dumps(union)), exps))

    for n in range(2, 6):
        jobs.append(pol_job(s_path, n, 2**n + 1, True))
    for name, doc in (("chain3", gen.chain3()), ("Y", gen.y_structure())):
        path = io.put(f"{name}.json", gen.dumps(doc))
        for arity, count in EXPECTED["pol"][name].items():
            jobs.append(pol_job(path, int(arity), count, False))

    for n in range(2, 6):
        perm = list(range(2**n))
        if n == 5:
            # isomorphism search against random relabelings of S^5 takes
            # 0.09-0.68 s, so S^5 meets one fixed relabeling instead
            perm = [i ^ 5 for i in perm]
        else:
            rng.shuffle(perm)
        copy = gen.relabel(powers[n], perm)
        copy_path = io.put(f"S{n}-relabeled.json", gen.dumps(copy))

        def check_retract(code, report, big=copy):
            w = witness(report, "retract")
            require(is_hom(w["into"], S, big) and is_hom(w["onto"], big, S), "retraction maps are not homomorphisms")
            require([w["onto"][v] for v in w["into"]] == [0, 1], "onto after into is not the identity")

        def check_iso(code, report, a=powers[n], b=copy):
            m = witness(report, "isomorphic")
            require(sorted(m) == list(range(gen.size_of(a))) and is_hom(m, a, b), "not an isomorphism")

        jobs.append(Job(cli("hom", "retract", copy_path, s_path), (0,), check_retract, "hom retract"))
        jobs.append(Job(cli("structure", "iso", io.path(f"S{n}.json"), copy_path), (0,), check_iso, "structure iso"))

    for i in range(6):
        src = gen.random_structure(rng, rng.randint(3, 5), 0.15)
        tgt = gen.random_structure(rng, rng.randint(2, 4), 0.5)
        want = str(gen.brute_hom_count(src, tgt))

        def check_count(code, report, want=want):
            require(witness(report, "count") == want, f"hom count {witness(report, 'count')} != {want}")

        argv = cli("hom", "count", io.put(f"src{i}.json", gen.dumps(src)), io.put(f"tgt{i}.json", gen.dumps(tgt)))
        jobs.append(Job(argv, (0,), check_count, "hom count"))
    return jobs


# --- psl ----------------------------------------------------------------------------------

# three 10-point fragments per round keep enough independent draws in the
# tail; 11 points is the largest size recognition handles in about 2 s
FRAGMENT_SIZES = (6, 7, 8, 9, 10, 10, 10, 11)
FUNCTIONAL_SIZES = (6, 7, 8, 9)
# factor sizes of the decomposition chains; each chain decomposes every
# homomorphism from the product of its factors into S.  The decompositions
# of the four small chains are the middle of a round, so the median job
# rests on many independent draws.
CHAINS = ((3, 4), (3, 4), (3, 4), (3, 4), (3, 3, 3))


def psl_check_job(path: str, n: int, accepted: bool) -> Job:
    def check(code, report):
        w = witness(report, "partial semilattice")
        if accepted:
            require(code == 0, "a partial semilattice was refused")
            emb = w["embedding"]
            require(len(emb) == n and len(set(emb)) == n and max(emb) < w["ambient_size"], "embedding not injective")
        else:
            require(code == 1, "a relation that is no partial semilattice was accepted")
            require(w["reason"] == "congruence merges elements", f"refused for {w['reason']!r}")

    return Job(cli("psl", "check", path), (0, 1), check, "psl check")


def psl(rng: random.Random, io: Inputs) -> list[Job]:
    jobs = []
    for i, n in enumerate(FRAGMENT_SIZES):
        jobs.append(psl_check_job(io.put(f"fragment{i}.json", gen.dumps(gen.meet_fragment(rng, n, 5))), n, True))
    for n in FUNCTIONAL_SIZES:
        doc = gen.random_functional(rng, n, 0.3)
        jobs.append(psl_check_job(io.put(f"functional{n}.json", gen.dumps(doc)), n, gen.psl_verdict(doc)))

    s_path = io.put("S.json", gen.dumps(gen.semilattice()))
    for c, sizes in enumerate(CHAINS):
        factors = [gen.meet_fragment(rng, n, 3) for n in sizes]
        paths = [io.put(f"chain{c}-factor{i}.json", gen.dumps(f)) for i, f in enumerate(factors)]
        prod = gen.product(factors)
        prod_path = io.path(f"chain{c}-product.json")

        def check_product(code, report, prod=prod, prod_path=prod_path):
            written = json.loads((io.root / prod_path).read_text())
            require(
                gen.size_of(written) == gen.size_of(prod) and gen.triples(written) == gen.triples(prod),
                "product differs from the coordinatewise product",
            )

        jobs.append(Job(["structure", "product", *paths, "--out", prod_path], (0,), check_product, "structure product"))
        tops = [0] * len(factors)
        homs = gen.product_homs_to_s(factors, tops)
        want = [",".join(map(str, h)) for h in homs]

        def check_find(code, report, want=want):
            got = witness(report, "homomorphisms")
            require(got == want, f"{len(got)} homomorphisms into S, expected {len(want)}")

        jobs.append(Job(cli("hom", "find", prod_path, s_path), (0,), check_find, "hom find"))
        for h in homs:

            def check_decompose(code, report, h=h, sizes=list(sizes)):
                w = witness(report, "decomposition")
                if len(set(h)) == 1:
                    require(w == {"constant": h[0]}, f"constant map decomposed as {w}")
                else:
                    want_maps = gen.coordinate_maps(h, sizes, tops)
                    require(w == {"coordinate_maps": want_maps}, "coordinate maps differ")

            argv = cli("psl", "decompose", "--target", s_path, "--factors", *paths, "--map", ",".join(map(str, h)))
            jobs.append(Job(argv, (0,), check_decompose, "psl decompose"))
    return jobs


# --- evidence ---------------------------------------------------------------------------------

EVIDENCE_SLOTS = {(1, 2): 1, (1, 3): 2, (1, 4): 2, (2, 3): 1, (2, 4): 2}
SEEDED_SYSTEMS = 4


def evidence_job(path: str, alg: dict) -> Job:
    max_arity = max([2] + [op["arity"] for op in alg["operations"].values()])  # hmkit's default bound
    survivor = gen.hm_evidence_survivor(alg, max_arity)

    def check(code, report):
        w = witness(report, "certified")
        if survivor is None:
            require(code == 0, f"exit {code}, but every labeling is refuted within arity {max_arity}")
            require(w["labelings_refuted"] == gen.labeling_count(alg), f"{w['labelings_refuted']} labelings refuted")
            require(witness(report, "replay") is None and verdicts(report)[1] == ["replay", "pass"], "replay failed")
        else:
            require(code == 1 and verdicts(report)[0] == ["certified", "fail"], f"exit {code}, but {survivor} survives")
            require(w["surviving_labeling"] == survivor, f"survivor {w['surviving_labeling']!r} != {survivor!r}")
            require(w["max_arity"] == max_arity, f"arity bound {w['max_arity']} != {max_arity}")

    return Job(cli("alg", "hm-evidence", "--algebra", path), (0, 1), check, "alg hm-evidence")


def ident_jobs(io: Inputs, name: str, system, recorded: dict | None) -> list[Job]:
    declarations, identities, idempotent = system
    path = io.put(f"{name}.txt", gen.system_text(declarations, identities, idempotent))
    term = sorted(declarations)[0]
    jobs = []

    def check_parse(code, report):
        lines = witness(report, "parse")
        require(len(lines) == 1 + bool(idempotent) + len(identities), "parsed system has the wrong number of lines")

    jobs.append(Job(cli("ident", "parse", "--system", path), (0,), check_parse, "ident parse"))

    if recorded is not None:

        def check_saturate(code, report):
            if code == 0:
                require(len(witness(report, "saturated identities")) == recorded["saturated"], "saturated size")

        def check_hm(code, report):
            require(verdicts(report)[-1] == ["subset condition", recorded["hm_check"]], "subset condition verdict")

        saturate_codes, hm_codes = (recorded["saturate_code"],), ({"pass": 0, "fail": 1}[recorded["hm_check"]],)
    else:

        def check_saturate(code, report):
            require(len(witness(report, "saturated identities")) >= 1, "empty saturation")

        def check_hm(code, report):
            require(verdicts(report)[-1] == ["subset condition", ["pass", "fail"][code]], "verdict and exit code disagree")

        saturate_codes, hm_codes = (0,), (0, 1)
    jobs.append(Job(cli("ident", "saturate", "--system", path), saturate_codes, check_saturate, "ident saturate"))
    jobs.append(Job(cli("ident", "hm-check", "--system", path, "--term", term), hm_codes, check_hm, "ident hm-check"))

    labeling, tried = gen.sl_interp(declarations, identities)

    def check_sl(code, report):
        if labeling is not None:
            require(witness(report, "interpretation") == labeling, f"labeling {witness(report, 'interpretation')} != {labeling}")
        else:
            require(witness(report, "interpretation") == f"UNSAT ({tried} refutations)", "UNSAT count")

    jobs.append(Job(cli("ident", "sl-interp", "--system", path), (0,) if labeling else (1,), check_sl, "ident sl-interp"))
    return jobs


def evidence(rng: random.Random, io: Inputs) -> list[Job]:
    jobs = []
    for i, alg in enumerate(stratified_algebras(rng, EVIDENCE_SLOTS)):
        jobs.append(evidence_job(io.put(f"alg{i}.json", gen.dumps(alg)), alg))
    for name, system in (("majority", gen.MAJORITY), ("maltsev", gen.MALTSEV), ("semilattice", gen.SEMILATTICE)):
        jobs.extend(ident_jobs(io, name, system, EXPECTED["ident"][name]))
    for i in range(SEEDED_SYSTEMS):
        jobs.extend(ident_jobs(io, f"linear{i}", gen.linear_system(rng), None))
    return jobs


WORKLOADS = {
    "free-pipeline": free_pipeline,
    "search": search,
    "psl": psl,
    "evidence": evidence,
}


def build(name: str, seed: int, rounds: int, root: Path, workdir: str) -> list[list[Job]]:
    """Write the inputs of one workload for one seed; the jobs of each round."""
    rng = random.Random(f"{name}:{seed}")
    return [WORKLOADS[name](rng, Inputs(root, f"{workdir}/r{r}")) for r in range(rounds)]
