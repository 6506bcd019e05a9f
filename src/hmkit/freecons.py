"""Free algebras as subpowers, the collapse onto semilattice powers, and
the bounded search for evidence that no semilattice labeling survives.

The pipeline: free_structure builds the binary free algebra of the variety
generated by a finite algebra together with its ternary free relational
structure; compute_H finds, per connected component, the non-constant
homomorphisms into the two-element semilattice structure; collapse maps
every element to its component and its tuple of homomorphism values, a
point of the disjoint union of semilattice powers, and builds the image K
of those points.  The union is described, never built: K's ids are the
points in (component, bits) order, which is the order of their union ids,
and `decode` gives each K id its point.  Verification routines then
machine-check the structural facts the construction is designed around.

Claims 3 and 4 of verify_claims read one table of bit shapes per component
combination: the constants and the meets of single-coordinate
projections, restricted to the combination's points.  Claim 3 holds for a
restriction inside one component when each of its coordinate columns is a
key of the table.  Claim 4 counts the shaped extensions of a restriction
bit by bit.  A shaped piece into a component is a tuple of bit shapes, one
per coordinate, and distinct pieces are distinct tuples, since a piece's
id is the rank of its bits; so the count is the product over the
coordinates of the table entries that agree with the restriction there.
No piece is enumerated.

No polymorphism of K is built either: K^n is the disjoint union of the
products of n components of K, so the restrictions of polymorphisms to
such a product are exactly Hom(prod K_u, K), whose mapping tuples list the
values at the points in rank order over the sorted kids.

The free algebra, the free structure's triples, the unary term operations
and the evidence search are subpower closures run by one semi-naive
engine, `_rounds`; `_close` builds the first three on it, and `max_tuples`
bounds the elements each closure finds.  A `_close` closure stops as soon
as it holds the whole power, since nothing more could be added; the free
structure's triples often fill F^3 early in round 2.  The engine's
batches (`_batches`) map each table row over the last-argument column once per
head (the arguments before the last two) and batch start, and share the
mapped column with every argument prefix that selects that row: a
coordinate of size n holds at most n mapped columns of length `new`.

The evidence search, hm_evidence, decides per coordinate labeling and rank
j whether some term operation of F_j carries two labeled variable sets,
where an operation takes the union of its labeled arguments' sets.  Up to
a labeling's first such collision, the pairs (term operation, set) that
terms reach are the term operations, one set each, so one closure of F_j
per rank serves a window of labelings, each keeping one set per element;
the two derivations of the first collision are the reported identity.
Membership does not depend on evaluation order, so the verdicts are those
of any complete search; the identity is the first collision in semi-naive
order over sorted symbols and lexicographic argument tuples.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
from collections import Counter
from typing import Mapping, NamedTuple, Sequence

from .homsearch import (
    OperationTable,
    find_homs,
    hom_maps,
    operation_from_json,
)
from .identlang import (
    Application,
    Identity,
    SLLabeling,
    Term,
    Variable,
    _fold,
    all_labelings,
    holds_in,
    nonempty_subsets,
    sigma_varset,
)
from .semilat import (
    is_partial_semilattice,
    largest_element,
    PartialSemilatticeWitness,
)
from .structures import (
    DEFAULT_MAX_TUPLES,
    Homomorphism,
    Relation,
    RelationalStructure,
    SizeLimitExceeded,
    StructureError,
    connected_components,
    find_isomorphism,
    induced_substructure,
    is_reflexive,
    product,
    two_element_semilattice,
)

RELATION_SYMBOL = "R"


class IllDefinedOperation(StructureError):
    """A quotient operation received two different values on one class."""


class FiniteAlgebra:
    """A finite universe with named total operation tables."""

    __slots__ = ("size", "operations", "labels")

    def __init__(
        self, size: int, operations: Mapping[str, OperationTable], labels: tuple[str, ...] | None = None
    ) -> None:
        self.size, self.operations = size, dict(operations)
        self.labels = tuple(labels) if labels is not None else None
        for sym, table in self.operations.items():
            if table.size != size:
                raise StructureError(f"operation {sym}: size {table.size} != universe size {size}")

    def symbols(self) -> list[str]:
        return sorted(self.operations)

    def is_idempotent(self) -> bool:
        return all(t.is_idempotent() for t in self.operations.values())


def algebra_from_json(data: dict) -> FiniteAlgebra:
    if not isinstance(data, dict):
        raise StructureError("algebra document must be a JSON object")
    unknown = set(data) - {"universe", "operations"}
    if unknown:
        raise StructureError(f"unknown top-level keys: {sorted(unknown)}")
    universe = data.get("universe")
    if not isinstance(universe, list) or not all(isinstance(x, str) for x in universe):
        raise StructureError("'universe' must be a list of strings")
    ops_doc = data.get("operations", {})
    if not isinstance(ops_doc, dict):
        raise StructureError("'operations' must be an object")
    operations = {sym: operation_from_json(body) for sym, body in ops_doc.items()}
    return FiniteAlgebra(len(universe), operations, tuple(universe))


def load_algebra(path: str) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))


def variable_names(k: int) -> list[str]:
    if k <= 4:
        return list("xyzw")[:k]
    return [f"x{i + 1}" for i in range(k)]


class FreeAlgebra:
    """The subalgebra of A^(A^k) generated by the k projections.

    Elements are stored extensionally (tuples over A indexed by the
    assignments of generators to A elements, in lexicographic order), so
    element equality is equality of term operations.
    """

    __slots__ = ("base", "algebra", "elements", "generators", "derivations", "index")

    def __init__(
        self,
        base: FiniteAlgebra,
        algebra: FiniteAlgebra,  # induced tables on the closure elements, term names as labels
        elements: tuple[tuple[int, ...], ...],
        generators: tuple[int, ...],
        derivations: tuple[tuple, ...],  # ("var", j) or (symbol, arg element ids)
        index: Mapping[tuple[int, ...], int],  # element -> id
    ) -> None:
        self.base, self.algebra, self.elements = base, algebra, elements
        self.generators, self.derivations, self.index = generators, derivations, index

    def term_name(self, element: int) -> str:
        return self.algebra.labels[element]


def _batches(tables: Sequence[OperationTable], elements: Sequence[tuple[int, ...]], old: int, new: int):
    """Apply tables[c] at coordinate c to every argument tuple over
    range(new) that holds an id >= old, in lexicographic order.

    The tables share one arity m.  Yields (prefix, first, batch): batch[i] is
    the value at the arguments prefix + (first + i,).  A constant's empty
    argument tuple yields ((), 0, [value]), and only when old == 0.

    A prefix is a head (its first m - 2 arguments) and an end.  At a
    coordinate of size n the head leaves n table rows, one per value of the
    end.  Each row is mapped over the last-argument column once, on first
    use, and shared by every prefix of the head and of one first that
    selects it, so a coordinate holds at most n mapped columns of length
    new at a time.
    """
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
        # per coordinate, the row index of the head followed by a zero argument
        base = [0] * len(columns)
        for e in head:
            base = [(o + v) * n for o, v, n in zip(base, elements[e], sizes)]
        # under a head of old ids, a prefix of old ids batches the new last arguments only
        stale = not head or max(head) < old
        for ends, first in ((range(old), old), (range(old, new), 0)) if stale else ((range(new), 0),):
            memos = [[None] * n for n in sizes]  # per coordinate, value -> mapped column
            for end in ends:
                point = elements[end]
                mapped = list(map(list.__getitem__, memos, point))
                if None in mapped:
                    for memo, v, o, vals, n, col in zip(memos, point, base, values, sizes, columns):
                        if memo[v] is None:
                            memo[v] = list(map(vals[(o + v) * n : (o + v + 1) * n].__getitem__, col[first:new]))
                    mapped = list(map(list.__getitem__, memos, point))
                yield head + (end,), first, list(zip(*mapped))


def _rounds(elements: list[tuple[int, ...]], algebras: Sequence[FiniteAlgebra]):
    """Semi-naive rounds over the growing list `elements`, with algebras[c]
    acting at coordinate c (the algebras share their symbols).

    A round evaluates only the argument tuples that hold an element the
    caller added in the previous round, as the rest give nothing new, so ids
    and first derivations are those of full rounds over sorted symbols and
    lexicographic tuples.  Yields (symbol, arity, the symbol's `_batches`
    of the round), and ends after a round in which nothing was added.
    """
    old = 0
    while old < len(elements):
        new = len(elements)
        for sym in algebras[0].symbols():
            tables = [alg.operations[sym] for alg in algebras]
            yield sym, tables[0].arity, _batches(tables, elements, old, new)
        old = new


def _close(
    seeds: Sequence[tuple[int, ...]], algebras: Sequence[FiniteAlgebra], max_elements: int
) -> tuple[list, list, dict]:
    """Closure of equal-width seed tuples under the basic operations, with
    algebras[c] acting at coordinate c, in the semi-naive `_rounds`.

    The closure stops after a batch that leaves it holding the whole power
    (the product of the algebra sizes): nothing more could be added, so the
    result is the same.  Returns the elements, their derivations (("var",
    j) for seed j, else (symbol, smaller argument ids)) and the element ->
    id index.  Raises SizeLimitExceeded past max_elements elements.
    """
    elements: list[tuple[int, ...]] = []
    derivations: list[tuple] = []
    index: dict[tuple[int, ...], int] = {}

    def add(t: tuple[int, ...], derivation: tuple) -> None:
        if len(elements) >= max_elements:
            raise SizeLimitExceeded(f"closure exceeded {max_elements} elements")
        index[t] = len(elements)
        elements.append(t)
        derivations.append(derivation)

    for j, seed in enumerate(seeds):
        if seed not in index:
            add(seed, ("var", j))
    whole = math.prod(alg.size for alg in algebras)
    for sym, m, batches in _rounds(elements, algebras):
        for prefix, first, batch in batches:
            # positions of unseen values, tested lazily: a value repeated
            # within the batch is seen once its first occurrence is added
            unseen = map(operator.not_, map(index.__contains__, batch))
            for i in itertools.compress(itertools.count(), unseen):
                add(batch[i], (sym, prefix + (first + i,) if m else ()))
            if len(elements) == whole:
                return elements, derivations, index
    return elements, derivations, index


def free_algebra(a: FiniteAlgebra, k: int, max_tuples: int = DEFAULT_MAX_TUPLES) -> FreeAlgebra:
    """Close the k projection tuples under the basic operations, pointwise."""
    if k < 1:
        raise StructureError(f"need at least one generator, got {k}")
    if a.size < 1:
        raise StructureError("empty universe")
    assignments = list(itertools.product(range(a.size), repeat=k))
    projections = [tuple(assign[j] for assign in assignments) for j in range(k)]
    elements, derivations, index = _close(projections, [a] * len(assignments), max_tuples)

    n = len(elements)
    tables = {}
    for sym in a.symbols():
        table = a.operations[sym]
        batches = _batches([table] * len(assignments), elements, 0, n)
        tables[sym] = OperationTable(table.arity, n, tuple(index[v] for _, _, batch in batches for v in batch))
    # term names in one pass: derivation arguments have smaller ids
    names = variable_names(k)
    labels: list[str] = []
    for sym, arg in derivations:
        labels.append(names[arg] if sym == "var" else f"{sym}({','.join(labels[e] for e in arg)})")
    return FreeAlgebra(
        base=a,
        algebra=FiniteAlgebra(n, tables, tuple(labels)),
        elements=tuple(elements),
        generators=tuple(index[p] for p in projections),
        derivations=tuple(derivations),
        index=index,
    )


class ComponentData(NamedTuple):
    members: tuple[int, ...]  # free-algebra element ids, sorted
    homs: tuple[tuple[int, ...], ...] = ()  # non-constant maps into S, local ids
    kids: tuple[int, ...] = ()  # collapsed image ids, sorted (after collapse)
    collapsed: RelationalStructure | None = None  # K induced on kids (after collapse)


class FreeBundle:
    """Staged output of the free construction over a finite algebra."""

    __slots__ = ("free", "x", "y", "structure", "semilattice", "unary_ops", "component_of",
                 "components", "decode", "quotient_map", "K")

    def __init__(
        self,
        free: FreeAlgebra,  # its `base` is the algebra
        x: int,
        y: int,
        structure: RelationalStructure,  # the free relational structure
        semilattice: RelationalStructure,  # the fixed 2-element target
        unary_ops: tuple[tuple[int, ...], ...],  # U, identity first
        component_of: tuple[int, ...],  # free element -> index into unary_ops
        components: tuple[ComponentData, ...] | None = None,  # the component of unary_ops[u] at u
        decode: tuple[tuple[int, tuple[int, ...]], ...] | None = None,  # K id -> (component, coordinate bits)
        quotient_map: tuple[int, ...] | None = None,  # free element -> K id
        K: RelationalStructure | None = None,
    ) -> None:
        self.free, self.x, self.y, self.structure, self.semilattice = free, x, y, structure, semilattice
        self.unary_ops, self.component_of, self.components = unary_ops, component_of, components
        self.decode, self.quotient_map, self.K = decode, quotient_map, K

    def element_name(self, element: int) -> str:
        return self.free.term_name(element)

    def hom_count(self, u: int) -> int:
        assert self.components is not None
        return len(self.components[u].homs)

    def generator_image(self, u: int, generator: int) -> int:
        """K id of the image of u applied to a generator (x or y)."""
        assert self.quotient_map is not None
        applied = apply_unary(self, u, generator)
        return self.quotient_map[applied]


def apply_unary(bundle: FreeBundle, u: int, element: int) -> int:
    """Apply the u-th unary term operation to a free-algebra element."""
    umap = bundle.unary_ops[u]
    return bundle.free.index[tuple(umap[v] for v in bundle.free.elements[element])]


def free_structure(a: FiniteAlgebra, max_tuples: int = DEFAULT_MAX_TUPLES) -> FreeBundle:
    """Build the free algebra on two generators and its ternary free structure.

    Elements are grouped by their diagonal, a unary term operation
    (component_of).  That these diagonal classes are the connected
    components is lemma 2.2 item 2, which verify_lemma22 checks; nothing
    here does.
    """
    free = free_algebra(a, 2, max_tuples)
    x, y = free.generators[0], free.generators[1]

    seeds = [(x, x, x), (x, y, x), (y, x, x), (y, y, y)]
    triples = _close(seeds, [free.algebra] * 3, max_tuples)[0]
    structure = RelationalStructure(
        free.algebra.size,
        {RELATION_SYMBOL: Relation(3, frozenset(triples))},
        free.algebra.labels,
    )

    # the unary term operations: the elements of the rank-1 free algebra
    unary_ops, _, unary_index = _close([tuple(range(a.size))], [a] * a.size, max_tuples)
    diagonal = [b * a.size + b for b in range(a.size)]
    component_of = [unary_index[tuple(map(t.__getitem__, diagonal))] for t in free.elements]

    return FreeBundle(
        free=free,
        x=x,
        y=y,
        structure=structure,
        semilattice=two_element_semilattice(RELATION_SYMBOL),
        unary_ops=tuple(unary_ops),
        component_of=tuple(component_of),
    )


def compute_H(bundle: FreeBundle) -> FreeBundle:
    """Fill per-component non-constant homomorphism sets into the semilattice."""
    components = []
    for u in range(len(bundle.unary_ops)):
        members = tuple(
            e for e in range(bundle.free.algebra.size) if bundle.component_of[e] == u
        )
        sub = induced_substructure(bundle.structure, members)
        homs = tuple(find_homs(sub, bundle.semilattice, nonconstant_only=True))
        components.append(ComponentData(members, homs))
    bundle.components = tuple(components)
    return bundle


def _classes(qmap: Sequence[int]) -> dict[int, list[int]]:
    """The kernel classes of qmap by class id, each in id order, listed in
    the order of their first members."""
    classes: dict[int, list[int]] = {}
    for e, c in enumerate(qmap):
        classes.setdefault(c, []).append(e)
    return classes


def _quotient_tables(free: FiniteAlgebra, qmap: Sequence[int]) -> dict[str, OperationTable]:
    """Operations induced on quotient classes, each evaluated at its
    classes' first members; raises when ill-defined."""
    classes = _classes(qmap)
    size = len(classes)
    tables = {}
    for sym in free.symbols():
        table = free.operations[sym]
        values = []
        for args in itertools.product(range(size), repeat=table.arity):
            value = qmap[table.apply(*(classes[c][0] for c in args))]
            for combo in itertools.product(*(classes[c] for c in args)):
                other = qmap[table.apply(*combo)]
                if other != value:
                    raise IllDefinedOperation(
                        f"operation {sym} at classes {args}: representatives give "
                        f"{value} but members {combo} give {other}"
                    )
            values.append(value)
        tables[sym] = OperationTable(table.arity, size, tuple(values))
    return tables


def collapse(bundle: FreeBundle) -> FreeBundle:
    """Map each element to its point (component, homomorphism bits); build K.

    The points lie in the disjoint union of power(S, h) over the
    components (a point when h = 0), which is described, never built: a
    union id is the component's offset plus the rank of the bits, so the
    distinct points sorted by (component, bits) are K's ids in union-id
    order.  `decode` lists them, `quotient_map` sends each element to its
    point's K id, and K's relations are the free structure's mapped
    through it.  Nothing is checked here: whether the kernel is a
    congruence, and so whether the free algebra's operations act on K, is
    lemma 2.2 items 5 and 6, which verify_lemma22 reports with their
    witnesses.
    """
    assert bundle.components is not None, "compute_H must run first"
    points: list = [None] * bundle.free.algebra.size  # free element -> (component, bits)
    for u, comp in enumerate(bundle.components):
        for local, e in enumerate(comp.members):
            points[e] = (u, tuple(hom[local] for hom in comp.homs))
    decode = sorted(set(points))
    kid_of = {p: k for k, p in enumerate(decode)}
    qmap = tuple(map(kid_of.__getitem__, points))
    rels = {
        sym: Relation(rel.arity, frozenset(tuple(map(qmap.__getitem__, t)) for t in rel.tuples))
        for sym, rel in bundle.structure.relations.items()
    }
    labels = tuple(f"{u}:({','.join(map(str, bits))})" if bits else f"{u}:0" for u, bits in decode)
    K = RelationalStructure(len(decode), rels, labels)

    bundle.decode = tuple(decode)
    bundle.quotient_map = qmap
    bundle.K = K
    components = []
    for c in bundle.components:
        kids = tuple(sorted({qmap[e] for e in c.members}))
        components.append(c._replace(kids=kids, collapsed=induced_substructure(K, kids)))
    bundle.components = tuple(components)
    return bundle


def build_bundle(a: FiniteAlgebra, max_tuples: int = DEFAULT_MAX_TUPLES) -> FreeBundle:
    return collapse(compute_H(free_structure(a, max_tuples)))


# --- verification: the six structural items ----------------------------------

PASS = "pass"
FAIL = "fail"
SKIPPED = "hypothesis absent"


class CheckResult(NamedTuple):
    name: str
    status: str
    detail: str = ""


class VerificationReport(NamedTuple):
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.results)


def _is_constant_or_projection(bundle: FreeBundle, u: int, mapping: Sequence[int]) -> bool:
    """Whether a map from a collapsed component into {0,1} is constant or
    the projection to one of its coordinates."""
    values = tuple(mapping)
    # column c holds coordinate bit c of every kid of the component
    return len(set(values)) <= 1 or values in zip(*(bundle.decode[kid][1] for kid in bundle.components[u].kids))


def _separating_translation(falg: FiniteAlgebra, qmap: Sequence[int]) -> str:
    """The first unary translation of a basic operation that sends two
    elements of one kernel class to different classes, described, or ""
    when there is none.

    Symbols are sorted, then the translated position, the parameters in
    lexicographic order, the classes by their first member and the members
    in id order.
    """
    classes = _classes(qmap).values()
    for sym in falg.symbols():
        table = falg.operations[sym]
        m = table.arity
        for pos in range(m):
            for params in itertools.product(range(falg.size), repeat=m - 1):
                def translate(t: int) -> int:
                    return qmap[table.apply(*params[:pos], t, *params[pos:])]

                for first, *others in classes:
                    base = translate(first)
                    for other in others:
                        if translate(other) != base:
                            return (
                                f"{sym} at position {pos + 1}, parameters {params}: "
                                f"elements {first} and {other} separate"
                            )
    return ""


def verify_lemma22(bundle: FreeBundle) -> VerificationReport:
    """Machine-check the six structural facts about the collapsed image."""
    assert bundle.K is not None, "collapse must run first"
    results = []
    S = bundle.semilattice

    # 1: reflexivity of the image and of every collapsed component
    ok = is_reflexive(bundle.K) and all(is_reflexive(c.collapsed) for c in bundle.components)
    results.append(CheckResult("item 1 (reflexive)", PASS if ok else FAIL))

    # 2: the components of the free structure are its diagonal classes
    # (the classes partition it, so it is enough that each is a block), and
    # those of the image are the collapsed classes
    blocks = {frozenset(b) for b in connected_components(bundle.structure)}
    split = next((u for u, c in enumerate(bundle.components) if frozenset(c.members) not in blocks), None)
    if split is not None:
        detail = f"diagonal class {split} {list(bundle.components[split].members)} is not one component"
    else:
        blocks = {frozenset(b) for b in connected_components(bundle.K)}
        classes = {frozenset(c.kids) for c in bundle.components}
        detail = "" if blocks == classes else f"blocks {sorted(map(sorted, blocks))} vs {sorted(map(sorted, classes))}"
    results.append(CheckResult("item 2 (components)", FAIL if detail else PASS, detail))

    # 3: the semilattice is a retract of the identity component, via a -> [a]
    id_comp = bundle.components[0]
    if not id_comp.homs:
        results.append(CheckResult("item 3 (retract)", SKIPPED, "no non-constant homomorphisms on the identity component"))
    else:
        kx = bundle.generator_image(0, bundle.x)
        ky = bundle.generator_image(0, bundle.y)
        sub = id_comp.collapsed
        lx, ly = id_comp.kids.index(kx), id_comp.kids.index(ky)
        status, detail = FAIL, ""
        try:
            Homomorphism(S, sub, (lx, ly))
            if next(hom_maps(sub, S, {lx: 0b01, ly: 0b10}), None) is not None:
                status = PASS
            else:
                detail = "no retraction fixing the generator images"
        except StructureError as exc:
            detail = f"coretraction is not a homomorphism: {exc}"
        results.append(CheckResult("item 3 (retract)", status, detail))

    # 4: maps from a collapsed component into the semilattice are constants
    # or single-coordinate projections
    ok, detail = True, ""
    for u, comp in enumerate(bundle.components):
        for hom in find_homs(comp.collapsed, S):
            if not _is_constant_or_projection(bundle, u, hom):
                ok, detail = False, f"component {u}: map {hom} is neither"
                break
        if not ok:
            break
    results.append(CheckResult("item 4 (coordinate maps)", PASS if ok else FAIL, detail))

    # 5: the collapse kernel is preserved by every unary translation of a
    # basic operation (these generate all unary polynomials)
    falg, qmap = bundle.free.algebra, bundle.quotient_map
    detail = _separating_translation(falg, qmap)
    results.append(CheckResult("item 5 (kernel is a congruence)", FAIL if detail else PASS, detail))

    # 6: induced quotient tables are single-valued
    try:
        _quotient_tables(falg, qmap)
        results.append(CheckResult("item 6 (induced operations)", PASS))
    except IllDefinedOperation as exc:
        results.append(CheckResult("item 6 (induced operations)", FAIL, str(exc)))

    return VerificationReport(tuple(results))


# --- verification: the four polymorphism claims -------------------------------


def _shape_table(bundle: FreeBundle, comb: tuple[int, ...], points: list[tuple[int, ...]]) -> Counter:
    """The bit shapes of a component combination, by restriction, for claims 3 and 4.

    A bit shape is a 0/1 function on the product of the combination's
    powers: constant 0, constant 1, or the meet of chosen coordinates of
    non-trivial factors, at most one per factor.  The table maps each
    restriction of a shape to the points (kid tuples) to the number of
    shapes with that restriction.  Shapes are distinct on the whole
    product: a meet is 1 exactly above the point that is 1 on its chosen
    coordinates, and no meet is constant.
    """
    bits = [[bundle.decode[kid][1] for kid in p] for p in points]  # per point, per factor
    shapes = Counter([(0,) * len(points), (1,) * len(points)])
    # per factor, no coordinate (None) or one of its coordinates
    options = [[None, *range(bundle.hom_count(u))] for u in comb]
    for choice in itertools.product(*options):
        chosen = [(ell, phi) for ell, phi in enumerate(choice) if phi is not None]
        if chosen:
            shapes[tuple(min(b[ell][phi] for ell, phi in chosen) for b in bits)] += 1
    return shapes


def _count_shaped_extensions(bundle: FreeBundle, shapes: Counter, values: Sequence[int]) -> int:
    """Count the distinct shaped maps on the product of powers that extend f.

    values[i] is f at the i-th point of the combination whose shape table
    is `shapes`.  A shaped piece is constant, or lands in one non-trivial
    component u with each coordinate bit a bit shape.  Its id there is the
    offset of u plus the rank of the bits, and rank is injective, so the
    distinct pieces into u are the tuples of shapes, and a piece extends f
    exactly when each shape extends the matching coordinate of f.  A
    constant piece into u is the piece of constant shapes.  So f inside a
    non-trivial component has the product over its coordinates of the
    table entries, f inside a trivial one only its constant, and f across
    components none.
    """
    decoded = [bundle.decode[v] for v in values]
    if len({u for u, _ in decoded}) != 1:
        return 0
    return math.prod(shapes[column] for column in zip(*(bits for _, bits in decoded)))


def verify_claims(bundle: FreeBundle, max_arity: int = 2) -> VerificationReport:
    """Check the four polymorphism claims for arities 1..max_arity.

    Claims 3 and 4 run on every restriction of a polymorphism of K to a
    product of collapsed components (a combination), read off `hom_maps`
    on the product (see the module notes), in the order arity, combination
    (lexicographic), restriction (search order); a failure detail names
    the first failure in that order.  Per combination the product, points
    and shape table are built once, and both claims read the table: claim
    3 asks whether each coordinate's column is one of its keys, and claim
    4 counts extensions bit by bit from its entries.  Claim 3 stops at its
    first failure, claim 4 runs until both have failed.  A max_arity below
    1 raises StructureError.
    """
    assert bundle.K is not None, "collapse must run first"
    if max_arity < 1:
        raise StructureError(f"claim arity must be >= 1, got {max_arity}")
    S = bundle.semilattice
    results = []
    nU = len(bundle.components)

    # Claim 1: each collapsed component is a partial semilattice whose
    # largest element is the image of u applied to the second generator
    ok, detail = True, ""
    for u, comp in enumerate(bundle.components):
        sub = comp.collapsed
        witness = is_partial_semilattice(sub)
        if not isinstance(witness, PartialSemilatticeWitness):
            ok, detail = False, f"component {u} refused: {witness.reason}"
            break
        top = largest_element(sub)
        expected = comp.kids.index(bundle.generator_image(u, bundle.y))
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

    # Claims 3 and 4 quantify over Hom(prod K_u, K), per combination
    claim3_ok, claim3_detail = True, ""
    claim4_ok, claim4_detail = True, ""
    combinations = (
        (arity, comb) for arity in range(1, max_arity + 1) for comb in itertools.product(range(nU), repeat=arity)
    )
    for arity, comb in combinations:
        prod = product([bundle.components[u].collapsed for u in comb])
        points = list(itertools.product(*(bundle.components[u].kids for u in comb)))
        shapes = _shape_table(bundle, comb, points)
        for values in hom_maps(prod, bundle.K):
            targets = sorted({bundle.decode[v][0] for v in values})
            if len(targets) != 1:
                if claim3_ok:
                    claim3_ok, claim3_detail = False, f"arity {arity}: restriction spans components {targets}"
            elif claim3_ok:
                # claim 3: each coordinate of the restriction is a meet of
                # single-coordinate projections or a constant, a key of the table
                columns = zip(*(bundle.decode[v][1] for v in values))
                c = next((c for c, column in enumerate(columns) if column not in shapes), None)
                if c is not None:
                    claim3_ok = False
                    claim3_detail = f"arity {arity}, components {comb}: coordinate {c} is not a meet of coordinate projections"

            # claim 4: the restriction extends to exactly one piece of the
            # declared shape on the full product of powers
            if claim4_ok:
                count = _count_shaped_extensions(bundle, shapes, values)
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


# --- bounded labeling-refutation evidence ---------------------------------------


class LabelingRefutation(NamedTuple):
    labeling: SLLabeling
    arity: int
    lhs: Term
    rhs: Term
    lhs_varset: frozenset[str]
    rhs_varset: frozenset[str]


class CertifiedHM(NamedTuple):
    max_arity: int
    refutations: tuple[LabelingRefutation, ...]


class ConsistentLabelingFound(NamedTuple):
    labeling: SLLabeling
    max_arity: int


def default_evidence_arity(a: FiniteAlgebra) -> int:
    arities = [t.arity for t in a.operations.values()]
    return max([2] + arities)


def _derived_terms(derivations: Sequence[tuple], names: Sequence[str], ids: Sequence[int]) -> list[Term]:
    """The terms of the closure elements ids, built bottom-up from their derivations."""
    needed, stack = set(ids), list(ids)
    while stack:
        sym, arg = derivations[stack.pop()]
        if sym != "var":
            stack.extend(set(arg) - needed)
            needed.update(arg)
    terms: dict[int, Term] = {}
    for e in sorted(needed):  # arguments before the terms they build
        sym, arg = derivations[e]
        terms[e] = Variable(names[arg]) if sym == "var" else Application(sym, tuple(map(terms.__getitem__, arg)))
    return [terms[e] for e in ids]


def _refute_window(
    a: FiniteAlgebra, window: Sequence[SLLabeling], j: int, max_tuples: int, outcomes: list
) -> None:
    """Close F_j once for the undecided labelings of a window, and record
    in `outcomes` what each of them meets first at rank j.

    A labeling's pairs (term operation, labeled variable set) are in
    bijection with the term operations until its first collision, a tuple
    whose value is an element with another set, with the same ids,
    derivations and batch order as a closure of its own pairs.  That
    element's derivation is the identity's lhs and the tuple its rhs.  The
    closure never holds the whole power first: for |A| >= 2, F_j lies
    inside the idempotent operations, and for |A| = 1 the seeds collide.
    Labelings that agree on the symbols evaluated so far have the same
    sets and are kept as one group, split by each symbol's coordinates at
    its first batch, all in round 1.

    outcomes[k] stays None while labeling k is undecided (it survives rank
    j if the closure completes), or becomes a LabelingRefutation or a
    SizeLimitExceeded: its own pairs would pass max_tuples on the
    closure's (max_tuples + 1)-th element or at a collision with
    max_tuples elements present.
    """
    undecided = [k for k, o in enumerate(outcomes) if o is None]
    if not undecided:
        return
    names = variable_names(j)
    assignments = list(itertools.product(range(a.size), repeat=j))
    elements: list[tuple[int, ...]] = []
    derivations: list[tuple] = []
    index: dict[tuple[int, ...], int] = {}
    serials = itertools.count()
    live = {next(serials): ([], undecided)}  # group -> (the set of each element as bits, its labelings)
    split: set[str] = set()  # the symbols the groups were split by
    # within a round, (group, set of the labeled prefix, first) -> the sets of the batch positions
    # when the last argument is labeled: at most 2 (2^j - 1) lists per group, none longer than its bits
    unions: dict[tuple[int, int, int], list[int]] = {}
    round_new = 0
    seeds = [tuple(assign[g] for assign in assignments) for g in range(j)]
    seed_bits = [1 << g for g in range(j)]
    # the seeds are a batch of their own, with the symbol None
    for sym, m, batches in itertools.chain([(None, 1, [((), 0, seeds)])], _rounds(elements, [a] * len(assignments))):
        if sym is not None and sym not in split:
            split.add(sym)
            parts = []
            for bits, members in live.values():
                by_coords: dict[tuple[int, ...], list[int]] = {}
                for k in members:
                    by_coords.setdefault(window[k].sigma[sym], []).append(k)
                parts += [(bits if n == 0 else bits[:], ks) for n, ks in enumerate(by_coords.values())]
            live = {next(serials): part for part in parts}
        for prefix, first, batch in batches:
            derive = (lambda i: ("var", i)) if sym is None else (lambda i: (sym, prefix + (first + i,)))
            start, added, end, new = len(elements), [], len(batch), first + len(batch)
            if new != round_new:
                unions.clear()
                round_new = new
            try:
                ids = list(map(index.__getitem__, batch))
            except KeyError:  # add the unseen values; one repeated in the batch is found once it is added
                ids = list(map(index.get, batch))
                for i in itertools.compress(itertools.count(), map(operator.is_, ids, itertools.repeat(None))):
                    e = index.get(batch[i])
                    if e is None:
                        if len(elements) >= max_tuples:
                            end = i
                            del ids[i:]
                            break
                        e = index[batch[i]] = len(elements)
                        elements.append(batch[i])
                        derivations.append(derive(i))
                        added.append(i)
                    ids[i] = e
            # then decide each group that collides or overflows in the batch
            for g, (bits, members) in list(live.items()):
                if sym is None:
                    union = seed_bits
                else:
                    coords = window[members[0]].sigma[sym]
                    p = 0
                    for c in coords:
                        if c < m:
                            p |= bits[prefix[c - 1]]
                    if coords[-1] < m:  # the last argument is not labeled
                        union = [p] * len(batch)
                    else:
                        union = unions.get((g, p, first))
                        if union is None:
                            union = unions[g, p, first] = list(map(p.__or__, bits[first:new]))
                if added:
                    bits.extend(map(union.__getitem__, added))
                here = list(map(bits.__getitem__, ids))
                if here == union:
                    continue
                i = next(itertools.compress(itertools.count(), map(operator.ne, here, union)), end)
                if i < end and start + bisect.bisect_left(added, i) < max_tuples:
                    derivations.append(derive(i))  # the colliding tuple, derived as if it were an element
                    found = _derived_terms(derivations, names, (ids[i], len(derivations) - 1))
                    derivations.pop()
                    found += [frozenset(n for h, n in enumerate(names) if s >> h & 1) for s in (here[i], union[i])]
                    decided = [LabelingRefutation(window[k], j, *found) for k in members]
                elif i < len(batch):
                    decided = [SizeLimitExceeded(f"closure exceeded {max_tuples} elements")] * len(members)
                else:
                    continue
                for k, outcome in zip(members, decided):
                    outcomes[k] = outcome
                del live[g]
            if not live:
                return


def hm_evidence(
    a: FiniteAlgebra, max_arity: int | None = None, max_tuples: int = DEFAULT_MAX_TUPLES
) -> CertifiedHM | ConsistentLabelingFound:
    """Refute every coordinate labeling, or report the first survivor.

    A refuted labeling comes with an identity that holds in the generated
    variety but changes labeled variable sets.  Refuting all labelings is a
    sound certificate; a survivor is bounded evidence only, since identities
    above the arity bound are never examined.

    Windows of 1, 2, 4, ... labelings in labeling order each close every
    rank once (`_refute_window`); max_tuples bounds each labeling's pairs
    per rank.  Outcomes are read in labeling order, so the first overflow
    raises and the first survivor is returned, as in a search of one
    labeling at a time.  Rank 1 is not searched: every labeled coordinate
    set is non-empty, so at rank 1 every union is {x}.
    """
    if not a.is_idempotent():
        raise StructureError("evidence search requires an idempotent algebra")
    if a.size < 1:
        raise StructureError("empty universe")
    m = default_evidence_arity(a) if max_arity is None else max_arity
    if m < 1:
        raise StructureError(f"arity bound must be >= 1, got {m}")
    labelings = all_labelings({sym: a.operations[sym].arity for sym in a.symbols()})
    refutations = []
    size = 1
    while window := list(itertools.islice(labelings, size)):  # the windows hold 1, 2, 4, ... labelings
        outcomes: list = [None] * len(window)
        for j in range(2, m + 1):
            _refute_window(a, window, j, max_tuples, outcomes)
        for labeling, outcome in zip(window, outcomes):
            if isinstance(outcome, SizeLimitExceeded):
                raise outcome
            if outcome is None:
                return ConsistentLabelingFound(labeling, m)
            refutations.append(outcome)
        size *= 2
    return CertifiedHM(m, tuple(refutations))


def verify_certificate(a: FiniteAlgebra, certificate: CertifiedHM) -> bool:
    """Replay a certificate: coverage (one refutation per labeling, in
    labeling order), well-formed terms and validity in the algebra of each
    identity (`holds_in` evaluates each side once, column-wise), and the
    labeled variable sets of every refutation.  An identity is replayed
    once per pair of term objects, keyed by their ids: the refutations of
    one group share their terms, and the certificate keeps every term alive
    for the call."""
    symbols = a.symbols()
    arity = {sym: a.operations[sym].arity for sym in symbols}
    combos = itertools.product(*(nonempty_subsets(arity[sym]) for sym in symbols))
    valid: dict[tuple[int, int], bool] = {}
    for combo, r in itertools.zip_longest(combos, certificate.refutations):
        if combo is None or r is None or r.labeling.sigma != dict(zip(symbols, combo)):
            return False
        key = (id(r.lhs), id(r.rhs))
        if key not in valid:  # every application names one of a's symbols, at its arity
            valid[key] = all(
                _fold(t, lambda v: True, lambda u, ok: all(ok) and len(ok) == arity.get(u.symbol))
                for t in (r.lhs, r.rhs)
            ) and holds_in(a, Identity(r.lhs, r.rhs), a.operations)
        if not valid[key]:
            return False
        lhs, rhs = sigma_varset(r.lhs, r.labeling), sigma_varset(r.rhs, r.labeling)
        if lhs == rhs or lhs != r.lhs_varset or rhs != r.rhs_varset:
            return False
    return True


def bundle_summary(bundle: FreeBundle) -> dict:
    """A plain-data description of a completed bundle."""
    assert bundle.K is not None
    rel = bundle.structure.relations[RELATION_SYMBOL]
    return {
        "free_size": bundle.free.algebra.size,
        "unary_ops": len(bundle.unary_ops),
        "relation_size": len(rel.tuples),
        "components": [
            {
                "index": u,
                "members": [bundle.element_name(e) for e in c.members],
                "hom_count": len(c.homs),
                "collapsed_size": len(c.kids),
            }
            for u, c in enumerate(bundle.components)
        ],
        "image_size": bundle.K.size,
        "kernel": [
            sorted(bundle.element_name(e) for e in block) for block in _classes(bundle.quotient_map).values()
        ],
    }
