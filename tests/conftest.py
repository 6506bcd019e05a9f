"""Shared fixtures: small structures, algebras, and identity systems."""

import itertools
import json

import pytest

from hmkit.freecons import FiniteAlgebra
from hmkit.homsearch import OperationTable
from hmkit.identlang import HmTermReport, SLLabeling, SystemError_, TermSystem, Variable
from hmkit.semilat import PartialSemilatticeWitness, single_ternary_relation
from hmkit.structures import (
    Relation,
    RelationalStructure,
    StructureError,
    structure_to_json,
    two_element_semilattice,
)

MAJORITY_SYSTEM = """ops: m/3
m(x,x,x) = x
m(x,x,y) = x
m(x,y,x) = x
m(y,x,x) = x
"""

MALTSEV_SYSTEM = """ops: p/3
p(x,x,x) = x
p(x,y,y) = x
p(y,y,x) = x
"""

SEMILATTICE_SYSTEM = """ops: f/2
idempotent: f
f(x,y) = f(y,x)
f(f(x,y),z) = f(x,f(y,z))
"""


def one_element_structure(symbol="R", arity=3):
    """One element with the single constant tuple (the ternary point by default)."""
    return RelationalStructure(1, {symbol: Relation(arity, frozenset({(0,) * arity}))}, ("0",))


def image_structure(phi):
    """The image of a homomorphism's source: mapped universe with mapped
    relation tuples, labelled by the target's labels."""
    image = sorted(set(phi.mapping))
    index = {v: k for k, v in enumerate(image)}
    rels = {
        sym: Relation(rel.arity, frozenset(tuple(index[phi.mapping[v]] for v in t) for t in rel.tuples))
        for sym, rel in phi.source.relations.items()
    }
    labels = tuple(phi.target.label(v) for v in image) if phi.target.labels is not None else None
    return RelationalStructure(len(image), rels, labels)


def kernel(phi):
    """Preimage classes of a homomorphism, as a canonical partition of its source."""
    classes = {}
    for v, w in enumerate(phi.mapping):
        classes.setdefault(w, []).append(v)
    return tuple(tuple(sorted(block)) for block in sorted(classes.values(), key=lambda b: b[0]))


@pytest.fixture
def S():
    return two_element_semilattice()


@pytest.fixture
def point():
    return one_element_structure()


@pytest.fixture
def chain3():
    """Meet graph of the 3-element chain 0 < 1 < 2."""
    triples = frozenset((a, b, min(a, b)) for a in range(3) for b in range(3))
    return RelationalStructure(3, {"R": Relation(3, triples)})


@pytest.fixture
def meet_table():
    return OperationTable(2, 2, (0, 0, 0, 1))


@pytest.fixture
def join_table():
    return OperationTable(2, 2, (0, 1, 1, 1))


@pytest.fixture
def majority_table():
    values = tuple(
        1 if sum(args) >= 2 else 0 for args in itertools.product((0, 1), repeat=3)
    )
    return OperationTable(3, 2, values)


@pytest.fixture
def meet_algebra(meet_table):
    return FiniteAlgebra(2, {"meet": meet_table}, ("0", "1"))


@pytest.fixture
def lattice_algebra(meet_table, join_table):
    return FiniteAlgebra(2, {"meet": meet_table, "join": join_table}, ("0", "1"))


@pytest.fixture
def majority_algebra(majority_table):
    return FiniteAlgebra(2, {"m": majority_table}, ("0", "1"))


@pytest.fixture
def bare_algebra():
    # two elements, no operations
    return FiniteAlgebra(2, {}, ("0", "1"))


@pytest.fixture
def small_corpus(S, point, chain3):
    """Structures of up to 3 elements used for engine cross-validation."""
    e0 = RelationalStructure(
        3,
        {"R": Relation(3, frozenset({(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1), (2, 2, 2)}))},
    )
    arrow = RelationalStructure(2, {"R": Relation(3, frozenset({(0, 0, 1)}))})
    empty_rel = RelationalStructure(2, {"R": Relation(3, frozenset())})
    mixed = RelationalStructure(
        3,
        {
            "E": Relation(2, frozenset({(0, 1), (1, 2)})),
            "T": Relation(3, frozenset({(0, 1, 2), (2, 2, 2)})),
        },
    )
    mixed_loop = RelationalStructure(
        2,
        {
            "E": Relation(2, frozenset({(0, 0), (0, 1)})),
            "T": Relation(3, frozenset({(0, 0, 0), (1, 1, 0)})),
        },
    )
    return [S, point, chain3, e0, arrow, empty_rel, mixed, mixed_loop]


def brute_force_homs(src, tgt):
    """Reference enumeration checking every total map directly."""
    if src.signature() != tgt.signature():
        raise ValueError("signature mismatch")
    out = []
    for mapping in itertools.product(range(tgt.size), repeat=src.size):
        ok = True
        for sym in src.symbols():
            target_tuples = tgt.relations[sym].tuples
            for t in src.relations[sym].tuples:
                if tuple(mapping[v] for v in t) not in target_tuples:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mapping)
    return out


def verify_witness(s, w: PartialSemilatticeWitness) -> None:
    """Re-check a partial-semilattice witness in full; raise StructureError on any failure.

    The ambient (subsets under union) is a semilattice by construction, so
    what is checked is that the embedding is an injective map into it that
    realizes every triple.
    """
    n = s.size
    h = w.embedding
    if len(h) != n:
        raise StructureError(f"embedding has {len(h)} values for {n} elements")
    if len(set(h)) != n:
        raise StructureError("embedding is not injective")
    for v in h:
        if not (0 <= v < 1 << n):
            raise StructureError("embedding value outside ambient universe")
    for a, b, c in single_ternary_relation(s).sorted_tuples():
        if h[a] | h[b] != h[c]:
            raise StructureError(f"witness does not realize triple ({a},{b},{c})")


def hm_pass_forces_unsat(sys: TermSystem, report: HmTermReport) -> bool:
    """Machine check that a subset-condition pass refutes every labeling.

    For each labeling of the checked symbol, the witness identity for
    I = sigma(symbol) must have different variable sets on its two sides.
    """
    if not report.passed:
        raise SystemError_("implication check requires a passing report")
    witness = dict(report.witnesses)
    arity = sys.declarations[report.symbol]
    for subset in coordinate_sets(arity):
        labeling = SLLabeling({report.symbol: subset})
        identity = witness[subset]
        if labeled_variables(identity.lhs, labeling) == labeled_variables(identity.rhs, labeling):
            return False
    return True


def coordinate_sets(n):
    """The non-empty subsets of {1..n} as sorted tuples, in lexicographic order."""
    return sorted(c for r in range(1, n + 1) for c in itertools.combinations(range(1, n + 1), r))


def labeled_variables(t, labeling):
    """The variables of t reachable through labeled coordinates, by a walk
    with an explicit stack."""
    names, stack = set(), [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Variable):
            names.add(u.name)
        else:
            stack.extend(u.args[i - 1] for i in labeling.sigma[u.symbol])
    return frozenset(names)


def all_labelings(declarations):
    """Every labeling, lazily, in lexicographic order of the sorted symbols' subsets."""
    symbols = sorted(declarations)
    combos = itertools.product(*(coordinate_sets(declarations[s]) for s in symbols))
    return (SLLabeling(dict(zip(symbols, combo))) for combo in combos)


def expand_cover(declarations, cover):
    """Each labeling a cover holds, as (labeling, the entry whose partial
    labeling it extends), block by block; entries of full labelings hold
    just their own."""
    for entry in cover:
        rest = {sym: n for sym, n in declarations.items() if sym not in entry.labeling.sigma}
        for tail in all_labelings(rest):
            yield SLLabeling(entry.labeling.sigma | tail.sigma), entry


def random_structure(rng, size, signature, density=None):
    """A seeded random structure; each relation keeps each tuple with one
    probability, drawn per relation unless given (0 leaves it empty)."""
    rels = {}
    for sym, arity in sorted(signature.items()):
        p = rng.choice((0.0, 0.2, 0.5, 0.9)) if density is None else density
        tuples = itertools.product(range(size), repeat=arity)
        rels[sym] = Relation(arity, frozenset(t for t in tuples if rng.random() < p))
    return RelationalStructure(size, rels)


def directed_cycles(*lengths):
    """Disjoint directed cycles of the given lengths, numbered consecutively."""
    edges, start = set(), 0
    for n in lengths:
        edges |= {(start + i, start + (i + 1) % n) for i in range(n)}
        start += n
    return RelationalStructure(start, {"E": Relation(2, frozenset(edges))})


def relabel(s, perm):
    """The copy of s with element i renamed perm[i]."""
    rels = {
        sym: Relation(rel.arity, frozenset(tuple(perm[v] for v in t) for t in rel.tuples))
        for sym, rel in s.relations.items()
    }
    return RelationalStructure(s.size, rels)


def report_lines(report):
    """One line per check of a VerificationReport: name, status and detail."""
    return [f"{r.name}: {r.status}" + (f" ({r.detail})" if r.detail else "") for r in report.results]


def algebra_doc(a):
    """The algebra file document of a: its labels (ids when it has none) and its tables."""
    labels = a.labels if a.labels is not None else [str(i) for i in range(a.size)]
    return {
        "universe": list(labels),
        "operations": {
            sym: {"arity": t.arity, "size": t.size, "values": list(t.values)} for sym, t in sorted(a.operations.items())
        },
    }


def iterated_meet(s, elements):
    """The left-associated fold of the single ternary relation of s read as
    a partial meet: None once a step is undefined; StructureError, worded as
    semilat words it, at a step with two values."""
    (rel,) = s.relations.values()
    meets = {}
    for a, b, c in sorted(rel.tuples):
        meets.setdefault((a, b), []).append(c)
    acc = elements[0]
    for e in elements[1:]:
        found = meets.get((acc, e), [])
        if len(found) > 1:
            raise StructureError(
                f"non-functional relation: ({acc},{e},{found[0]}) and ({acc},{e},{found[1]}) both present"
            )
        if not found:
            return None
        acc = found[0]
    return acc


@pytest.fixture
def structure_file(tmp_path):
    def write(s, name="structure.json"):
        path = tmp_path / name
        path.write_text(json.dumps(structure_to_json(s), indent=2) + "\n")
        return str(path)

    return write


@pytest.fixture
def algebra_file(tmp_path):
    def write(a, name="algebra.json"):
        path = tmp_path / name
        path.write_text(json.dumps(algebra_doc(a), indent=2) + "\n")
        return str(path)

    return write


@pytest.fixture
def system_file(tmp_path):
    def write(text, name="system.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write
