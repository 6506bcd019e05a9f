"""Free algebras as subpowers, the collapse onto semilattice powers, and
the bounded search for evidence that no semilattice labeling survives.

The pipeline: free_structure builds the binary free algebra of the variety
generated by a finite algebra, its ternary free relational structure and
one component per unary term operation u, holding the elements whose
diagonal is u and the images u(x) and u(y); compute_H finds, per component,
the non-constant homomorphisms into the two-element semilattice structure
S, built where it is used; collapse maps every element to its component and
its tuple of homomorphism values, a point of the disjoint union of
semilattice powers, and builds the image K of those points.  The union is
described, never built: K's ids are the points in (component, bits) order,
which is the order of their union ids, and `decode` gives each K id its
point.  Verification routines then machine-check the structural facts the
construction is designed around.

Item 4 of verify_lemma22 and claims 3 and 4 of verify_claims read one
table of bit shapes per component combination: the constants and the meets
of single-coordinate projections, restricted to the combination's points.
Item 4 holds when each map from a collapsed component into S is a key of
its arity-1 table, and claim 3 for a restriction inside one component when
each of its coordinate columns is a key.  Claim 4 counts the shaped
extensions of a restriction bit by bit.  A shaped piece into a component
is a tuple of bit shapes, one per coordinate, and distinct pieces are
distinct tuples, since a piece's id is the rank of its bits; so the count
is the product over the coordinates of the table entries that agree with
the restriction there, and none across components.  No piece is enumerated.

No polymorphism of K is built either: K^n is the disjoint union of the
products of n components of K, so the restrictions of polymorphisms to
such a product are exactly Hom(prod K_u, K), whose mapping tuples list the
values at the points in rank order over the sorted kids.

The free algebra, the free structure's triples, the unary term operations
and the evidence search close subpowers of one algebra each (A^(A^k), F^3,
A^A, A^(A^2) and, for the witness, the diagonal of A^2), its operations
acting pointwise, by one semi-naive engine, `_grow`, the only code that
adds to a closure; `_close` runs it for the first three.  `max_tuples`
bounds the elements each closure finds by one rule: the batch that holds
the (max_tuples + 1)-th element is cut there, and the engine raises
SizeLimitExceeded once it has yielded it.  A closure also ends as soon as
it holds the whole power; the free structure's triples often fill F^3
early in round 2.  That closure alone has a mirror, the swap of the first
two coordinates, which maps its seeds and so R onto themselves: each new
triple's mirror joins right after it and counts against max_tuples, about
half the argument tuples are evaluated, and ids and derivations follow
full rounds only without a mirror.  The engine's batches (`_batches`) map
each table row over the last-argument column once per head (the arguments
before the last two) and batch start, sharing it with every argument
prefix that selects that row: a coordinate holds at most one mapped column
per universe element.

The evidence search, hm_evidence, decides per coordinate labeling whether
some term operation of F_2 carries two labeled variable sets, where an
operation takes the union of its labeled arguments' sets.  Up to a
labeling's first such collision, the pairs (term operation, set) that
terms reach are the term operations, one set each, so one closure of F_2
serves every labeling, each keeping one set per element; the two
derivations of the first collision are the reported identity.  Labelings
that agree on the symbols evaluated so far share their sets, so the
closure keeps them as one labeling prefix (a coordinate set, a sorted
tuple, per sorted symbol, extended at each symbol's first batch).
Labeling order is the lexicographic order of full labelings, so the
prefixes decided, disjoint blocks of it, read in labeling order once
sorted, and so listed they are the certificate: a cover of the labelings,
one partial labeling and identity per decided prefix, whose replay walks
the prefix tree.  Membership does not depend on evaluation order, so the
verdicts are those of any complete search; the identity is the first
collision in semi-naive order over sorted symbols and lexicographic
argument tuples.

A labeling survives every rank when it has a two-element witness: a != b
in A and a map h from B = Sg(a, b) onto {0, 1}, h(a) = 0 and h(b) = 1,
with h(f(t)) the meet of h(t_i) over the labeled coordinates i of f, for
every symbol f and t in B^m.  The two-element algebra of those meets is
then in HS(A), every term acts there as the meet of its labeled variables,
and distinct non-empty variable sets give distinct meets, so every
identity of A keeps its two labeled sets equal.  `_two_element_witness`
tests one labeling with the loop that refutes labelings,
`_labeled_closure`, run per ordered pair on Sg(a, b) with one bit per
seed, 1 for a and 0 for b: an element's bit is then 1 - h, the OR over
labeled arguments is 1 - their meet, and the labeling survives the closure
exactly when its h is a witness.

A labeling that survives the closure of rank 2 survives every rank.  Its
labeled sets are then well defined on F_2, and taking a term operation to
0 when its set holds x and to 1 otherwise is a homomorphism onto the
two-element algebra of the labeling's meets.  That algebra is so in
H(F_2), inside HSP(A): every identity of A holds there, and keeps its two
labeled sets equal, as under a witness.  So hm_evidence closes rank 2
alone, every certificate entry is an identity over x and y, and a labeling
that survives rank 2 is an exact negative.  It tests only P, the first
labeling not yet refuted, for a witness: a witnessed labeling is never
refuted, so P comes at or before the least witnessed labeling L, and is
witnessed exactly when it is L.  `verify_witness` replays a witness by
direct evaluation.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter, deque
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
    SLRefutation,
    Term,
    Variable,
    _fold,
    holds_in,
    replay_cover,
    subsets,
)
from .semilat import (
    is_partial_semilattice,
    largest_element,
    PartialSemilatticeWitness,
)
from .structures import (
    DEFAULT_MAX_TUPLES,
    Homomorphism,
    Record,
    Relation,
    RelationalStructure,
    SizeLimitExceeded,
    StructureError,
    connected_components,
    coordinate_tuples,
    find_isomorphism,
    induced_substructure,
    is_reflexive,
    product,
    rank,
    read_document,
    read_json,
    two_element_semilattice,
)

RELATION_SYMBOL = "R"


class FiniteAlgebra(Record):
    """A finite universe with named total operation tables; unhashable, as it holds a dict."""

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
    universe, ops_doc = read_document(data, "algebra", "operations")
    operations = {}
    for sym, body in ops_doc.items():
        try:
            operations[sym] = operation_from_json(body)
        except StructureError as exc:
            raise StructureError(f"operation {sym}: {exc}") from None
    return FiniteAlgebra(len(universe), operations, tuple(universe))


def load_algebra(path: str) -> FiniteAlgebra:
    return algebra_from_json(read_json(path))


def variable_names(k: int) -> list[str]:
    if k <= 4:
        return list("xyzw")[:k]
    return [f"x{i + 1}" for i in range(k)]


class FreeAlgebra(NamedTuple):
    """The subalgebra of A^(A^k) generated by the k projections.

    Elements are stored extensionally (tuples over A indexed by the
    assignments of generators to A elements, in lexicographic order), so
    element equality is equality of term operations.
    """

    algebra: FiniteAlgebra  # induced tables on the closure elements, term names as labels
    elements: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]
    derivations: tuple[tuple, ...]  # ("var", j) or (symbol, arg element ids)
    index: Mapping[tuple[int, ...], int]  # element -> id


def _batches(table: OperationTable, elements: Sequence[tuple[int, ...]], old: int, new: int, twins: Sequence[int] = ()):
    """Apply table at every coordinate to every argument tuple over
    range(new) that holds an id >= old, in lexicographic order, but for the
    prefixes above their mirror given `twins`, the mirror ids (see `_grow`).

    Yields (prefix, first, batch): batch[i] is the value at the arguments
    prefix + (first + i,).  A constant's empty argument tuple yields ((), 0,
    [value]), and only when old == 0.

    For arity m and size n, a prefix is a head (its first m - 2 arguments)
    and an end, and at each coordinate the head leaves n table rows, one
    per value of the end.  Each row is mapped over the last-argument column
    once, on first use, and shared by every prefix of the head and of one
    first that selects it, so a coordinate holds at most n mapped columns of
    length new at a time.
    """
    m, n, values = table.arity, table.size, table.values
    if m == 0:
        if old == 0:
            yield (), 0, [(values[0],) * len(elements[0])]
        return
    if m == 1:
        yield (), old, [tuple(map(values.__getitem__, e)) for e in elements[old:new]]
        return
    columns = list(zip(*elements[:new]))
    for head in itertools.product(range(new), repeat=m - 2):
        mirrored = tuple(map(twins.__getitem__, head)) if twins else head
        if mirrored < head:  # a prefix above its mirror: a head here, an end under a fixed head below
            continue
        # per coordinate, the row index of the head followed by a zero argument
        # (Horner's rule inline, not structures.rank: this is the hot loop)
        base = [0] * len(columns)
        for e in head:
            base = [(o + v) * n for o, v in zip(base, elements[e])]
        # under a head of old ids, a prefix of old ids batches the new last arguments only
        stale = not head or max(head) < old
        for ends, first in ((range(old), old), (range(old, new), 0)) if stale else ((range(new), 0),):
            memos = [[None] * n for _ in columns]  # per coordinate, value -> mapped column
            for end in [end for end in ends if end <= twins[end]] if twins and mirrored == head else ends:
                point = elements[end]
                mapped = list(map(list.__getitem__, memos, point))
                if None in mapped:
                    for memo, v, o, col in zip(memos, point, base, columns):
                        if memo[v] is None:
                            memo[v] = list(map(values[(o + v) * n : (o + v + 1) * n].__getitem__, col[first:new]))
                    mapped = list(map(list.__getitem__, memos, point))
                yield head + (end,), first, list(zip(*mapped))


def _grow(
    seeds: Sequence[tuple[int, ...]], algebra: FiniteAlgebra, max_elements: int,
    elements: list[tuple[int, ...]], derivations: list[tuple], index: dict[tuple[int, ...], int],
    mirror: tuple[int, ...] | None = None,
):
    """The closure engine, the only code that writes to a closure: grow the
    subpower of `algebra` generated by equal-width seeds, operations acting
    pointwise, into the empty `elements`, their `derivations` (("var", j)
    for seed j, else (symbol, argument ids)) and the element -> id `index`.
    The seeds are the first batch, with the symbol None; each semi-naive
    round then runs `_batches` over the argument tuples that hold an element
    the previous round added, as the rest give nothing new, so ids and first
    derivations are those of full rounds over sorted symbols and
    lexicographic tuples.  A batch adds its unseen values in order, a value
    it repeats once, and is yielded as (symbol, arity, prefix, first, batch,
    ids, added): ids[i] is the id of batch[i], added the positions added.
    The batch that holds the (max_elements + 1)-th element is cut there, so
    ids stops short, and once it is yielded the engine raises
    SizeLimitExceeded.  The closure also ends after a batch that leaves it
    holding the whole power and after a round that adds nothing.  A
    `mirror`, a coordinate involution that fixes the seed set (else
    ValueError), adds each value's mirror right after it, derived by the
    same symbol at the mirrored arguments and counted as an element, so a
    batch is cut at a value whose mirror would overflow; rounds skip the
    prefixes above their mirror, so ids and derivations leave full rounds.
    """
    whole = algebra.size ** len(seeds[0])
    signature = [(sym, algebra.operations[sym]) for sym in algebra.symbols()]
    if mirror is not None and {tuple(map(s.__getitem__, mirror)) for s in seeds} != set(seeds):
        raise ValueError("the seeds are not closed under the mirror")
    steps, old, twins, mirror_ids = [(None, 1, [((), 0, seeds)])], 0, (), []  # twins from round 1, with a mirror: (mirror_ids,)
    while steps:
        for sym, m, batches in steps:
            for prefix, first, batch in batches:
                try:
                    ids, added = list(map(index.__getitem__, batch)), ()
                except KeyError:  # add the unseen values
                    ids, added = list(map(index.get, batch)), []
                    for i in itertools.compress(itertools.count(), map(operator.is_, ids, itertools.repeat(None))):
                        e = index.get(batch[i])  # a value repeated in the batch is seen once added
                        if e is None:
                            twin = tuple(map(batch[i].__getitem__, mirror)) if twins else batch[i]
                            if len(elements) + (twin != batch[i]) >= max_elements:
                                del ids[i:]
                                break
                            e = index[batch[i]] = len(elements)
                            elements.append(batch[i])
                            args = prefix + (first + i,) if m else ()
                            derivations.append(("var", i) if sym is None else (sym, args))
                            added.append(i)
                            if twin != batch[i]:  # its mirror, right after it, at the mirrored arguments
                                index[twin] = len(elements)
                                elements.append(twin)
                                derivations.append((sym, tuple(map(twins[0].__getitem__, args))))
                        ids[i] = e
                yield sym, m, prefix, first, batch, ids, added
                if len(ids) < len(batch):
                    raise SizeLimitExceeded(f"closure exceeded {max_elements} elements")
                if len(elements) == whole:
                    return
        new = len(elements)
        if mirror is not None:  # the mirror ids, extended by those of the elements this round added
            mirror_ids.extend(index[tuple(map(t.__getitem__, mirror))] for t in elements[len(mirror_ids):])
            twins = (mirror_ids,)
        steps = [(sym, table.arity, _batches(table, elements, old, new, *twins)) for sym, table in signature] if old < new else []
        old = new


def _close(
    seeds: Sequence[tuple[int, ...]], algebra: FiniteAlgebra, max_elements: int, mirror: tuple[int, ...] | None = None
) -> tuple[list, list, dict]:
    """Close equal-width seeds under the operations of `algebra`, pointwise,
    by running `_grow` to its end, with its `mirror`, which raises
    SizeLimitExceeded past max_elements elements.  Returns the elements,
    their derivations and the element -> id index."""
    elements, derivations, index = [], [], {}
    deque(_grow(seeds, algebra, max_elements, elements, derivations, index, mirror), maxlen=0)
    return elements, derivations, index


def free_algebra(a: FiniteAlgebra, k: int, max_tuples: int = DEFAULT_MAX_TUPLES) -> FreeAlgebra:
    """Close the k projection tuples under the basic operations, pointwise."""
    if k < 1:
        raise StructureError(f"need at least one generator, got {k}")
    if a.size < 1:
        raise StructureError("empty universe")
    projections = list(zip(*coordinate_tuples([a.size] * k)))  # over assignments in lexicographic order
    elements, derivations, index = _close(projections, a, max_tuples)

    n = len(elements)
    tables = {
        sym: OperationTable(t.arity, n, tuple(index[v] for _, _, batch in _batches(t, elements, 0, n) for v in batch))
        for sym, t in sorted(a.operations.items())
    }
    # term names in one pass: derivation arguments have smaller ids
    names = variable_names(k)
    labels: list[str] = []
    for sym, arg in derivations:
        labels.append(names[arg] if sym == "var" else f"{sym}({','.join(labels[e] for e in arg)})")
    generators = tuple(index[p] for p in projections)
    return FreeAlgebra(FiniteAlgebra(n, tables, tuple(labels)), tuple(elements), generators, tuple(derivations), index)


class ComponentData(NamedTuple):
    """The component of one unary term operation u: the free elements whose
    diagonal is u, the images u(x) and u(y), and what the later stages
    find on it."""

    members: tuple[int, ...]  # free-algebra element ids, sorted
    images: tuple[int, int]  # free-algebra element ids of u(x) and u(y)
    homs: tuple[tuple[int, ...], ...] = ()  # non-constant maps into S, local ids (after compute_H)
    kids: tuple[int, ...] = ()  # collapsed image ids, sorted (after collapse)
    collapsed: RelationalStructure | None = None  # K induced on kids (after collapse)


class FreeBundle(NamedTuple):
    """Staged output of the free construction over a finite algebra."""

    free: FreeAlgebra
    structure: RelationalStructure  # the free relational structure
    components: tuple[ComponentData, ...]  # one per unary term operation, identity first
    decode: tuple[tuple[int, tuple[int, ...]], ...] | None = None  # K id -> (component, coordinate bits)
    quotient_map: tuple[int, ...] | None = None  # free element -> K id
    K: RelationalStructure | None = None


def free_structure(a: FiniteAlgebra, max_tuples: int = DEFAULT_MAX_TUPLES) -> FreeBundle:
    """Build the free algebra on two generators, its ternary free structure,
    closed with the swap of the first two coordinates as the mirror (see
    `_grow`), and its components.

    The unary term operations u are the elements of the rank-1 free
    algebra, identity first, and component u holds the elements whose
    diagonal is u, with the images u(x) and u(y).  That these diagonal
    classes are the connected components is lemma 2.2 item 2, which
    verify_lemma22 checks; nothing here does.
    """
    free = free_algebra(a, 2, max_tuples)
    x, y = free.generators

    seeds = [(x, x, x), (x, y, x), (y, x, x), (y, y, y)]
    triples = _close(seeds, free.algebra, max_tuples, (1, 0, 2))[0]
    structure = RelationalStructure(
        free.algebra.size,
        {RELATION_SYMBOL: Relation(3, frozenset(triples))},
        free.algebra.labels,
    )

    unary_ops, _, unary_index = _close(list(zip(*coordinate_tuples([a.size]))), a, max_tuples)  # the rank-1 projection
    diagonal = [rank((b, b), (a.size, a.size)) for b in range(a.size)]
    classes = _classes([unary_index[tuple(map(t.__getitem__, diagonal))] for t in free.elements])
    components = tuple(
        ComponentData(
            tuple(classes[u]),
            tuple(free.index[tuple(map(umap.__getitem__, free.elements[g]))] for g in (x, y)),
        )
        for u, umap in enumerate(unary_ops)
    )
    return FreeBundle(free, structure, components)


def compute_H(bundle: FreeBundle) -> FreeBundle:
    """The bundle with each component's non-constant homomorphisms into the
    semilattice, as maps on the component's local ids."""
    S = two_element_semilattice(RELATION_SYMBOL)
    return bundle._replace(components=tuple(
        c._replace(homs=tuple(find_homs(induced_substructure(bundle.structure, c.members), S, nonconstant_only=True)))
        for c in bundle.components
    ))


def _classes(qmap: Sequence[int]) -> dict[int, list[int]]:
    """The kernel classes of qmap by class id, each in id order, listed in
    the order of their first members."""
    classes: dict[int, list[int]] = {}
    for e, c in enumerate(qmap):
        classes.setdefault(c, []).append(e)
    return classes


def _ill_defined_operation(falg: FiniteAlgebra, qmap: Sequence[int]) -> str:
    """The first operation value that the kernel classes of qmap do not
    determine, described, or "" when every operation acts on the classes.

    Symbols are sorted, then the class tuples in lexicographic order, each
    evaluated at its classes' first members and then at every tuple of
    their members in lexicographic order.
    """
    classes = _classes(qmap)
    for sym in falg.symbols():
        table = falg.operations[sym]
        for args in itertools.product(range(len(classes)), repeat=table.arity):
            value = qmap[table.apply(*(classes[c][0] for c in args))]
            for combo in itertools.product(*(classes[c] for c in args)):
                other = qmap[table.apply(*combo)]
                if other != value:
                    return (
                        f"operation {sym} at classes {args}: representatives give "
                        f"{value} but members {combo} give {other}"
                    )
    return ""


def collapse(bundle: FreeBundle) -> FreeBundle:
    """The bundle with each element mapped to its point (component,
    homomorphism bits) and with K built.

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
    components = []
    for c in bundle.components:
        kids = tuple(sorted({qmap[e] for e in c.members}))
        components.append(c._replace(kids=kids, collapsed=induced_substructure(K, kids)))
    return bundle._replace(decode=tuple(decode), quotient_map=qmap, K=K, components=tuple(components))


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
    S = two_element_semilattice(RELATION_SYMBOL)

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
        kx, ky = (bundle.quotient_map[e] for e in id_comp.images)
        sub = id_comp.collapsed
        lx, ly = id_comp.kids.index(kx), id_comp.kids.index(ky)
        detail = ""
        try:
            Homomorphism(S, sub, (lx, ly))
            if next(hom_maps(sub, S, {lx: 0b01, ly: 0b10}), None) is None:
                detail = "no retraction fixing the generator images"
        except StructureError as exc:
            detail = f"coretraction is not a homomorphism: {exc}"
        results.append(CheckResult("item 3 (retract)", FAIL if detail else PASS, detail))

    # 4: maps from a collapsed component into the semilattice are constants
    # or single-coordinate projections, the keys of its arity-1 shape table
    tables = [_shape_table(bundle, (u,), [(k,) for k in c.kids]) for u, c in enumerate(bundle.components)]
    maps = ((u, hom) for u, comp in enumerate(bundle.components) for hom in find_homs(comp.collapsed, S))
    bad = next(((u, hom) for u, hom in maps if hom not in tables[u]), None)
    detail = f"component {bad[0]}: map {bad[1]} is neither" if bad else ""
    results.append(CheckResult("item 4 (coordinate maps)", FAIL if detail else PASS, detail))

    # 5: the collapse kernel is preserved by every unary translation of a
    # basic operation (these generate all unary polynomials)
    falg, qmap = bundle.free.algebra, bundle.quotient_map
    detail = _separating_translation(falg, qmap)
    results.append(CheckResult("item 5 (kernel is a congruence)", FAIL if detail else PASS, detail))

    # 6: the operations induced on the kernel classes are single-valued
    detail = _ill_defined_operation(falg, qmap)
    results.append(CheckResult("item 6 (induced operations)", FAIL if detail else PASS, detail))

    return VerificationReport(tuple(results))


# --- verification: the four polymorphism claims -------------------------------


def _shape_table(bundle: FreeBundle, comb: tuple[int, ...], points: list[tuple[int, ...]]) -> Counter:
    """The bit shapes of a component combination, by restriction, for item 4 and claims 3 and 4.

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
    options = [[None, *range(len(bundle.components[u].homs))] for u in comb]
    for choice in itertools.product(*options):
        chosen = [(ell, phi) for ell, phi in enumerate(choice) if phi is not None]
        if chosen:
            shapes[tuple(min(b[ell][phi] for ell, phi in chosen) for b in bits)] += 1
    return shapes


def verify_claims(bundle: FreeBundle, max_arity: int = 2) -> VerificationReport:
    """Check the four polymorphism claims for arities 1..max_arity.

    Claims 3 and 4 run on every restriction of a polymorphism of K to a
    product of collapsed components (a combination), read off `hom_maps`
    on the product (see the module notes), in the order arity, combination
    (lexicographic), restriction (search order); a failure detail names
    the first failure in that order.  Per combination the product, points
    and shape table are built once, each restriction decoded once and its
    columns looked up once: claim 3 fails across components or at a zero
    count, and claim 4's count is their product.  Claim 3 stops at its
    first failure, claim 4 runs until both have failed.  A max_arity below
    1 raises StructureError.
    """
    assert bundle.K is not None, "collapse must run first"
    if max_arity < 1:
        raise StructureError(f"claim arity must be >= 1, got {max_arity}")
    S = two_element_semilattice(RELATION_SYMBOL)
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
        expected = comp.kids.index(bundle.quotient_map[comp.images[1]])
        if top != expected:
            ok, detail = False, f"component {u}: largest {top} != image of generator {expected}"
            break
    results.append(CheckResult("claim 1 (partial semilattices with tops)", PASS if ok else FAIL, detail))

    # Claim 2: triviality of a component is equivalent to the two generator
    # images agreeing; non-trivial ones induce the 2-element semilattice
    ok, detail = True, ""
    for u, comp in enumerate(bundle.components):
        kx, ky = (bundle.quotient_map[e] for e in comp.images)
        singleton = len(comp.kids) == 1
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
            decoded = [bundle.decode[v] for v in values]
            targets = sorted({u for u, _ in decoded})
            # per coordinate, the shapes restricting to its column; none across components
            counts = [shapes[column] for column in zip(*(bits for _, bits in decoded))] if len(targets) == 1 else [0]
            # claim 3: each coordinate of the restriction is a meet of
            # single-coordinate projections or a constant, a key of the table
            if claim3_ok and len(targets) != 1:
                claim3_ok, claim3_detail = False, f"arity {arity}: restriction spans components {targets}"
            elif claim3_ok and 0 in counts:
                claim3_ok = False
                claim3_detail = f"arity {arity}, components {comb}: coordinate {counts.index(0)} is not a meet of coordinate projections"

            # claim 4: the restriction extends to exactly one piece of the
            # declared shape on the full product of powers
            if claim4_ok:
                count = math.prod(counts)
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


# --- labeling-refutation evidence ------------------------------------------------


class CertifiedHM(NamedTuple):
    max_arity: int
    refutations: tuple[SLRefutation, ...]  # a cover: one rank-2 identity per refuted labeling prefix, in labeling order


class TwoElementWitness(NamedTuple):
    """A map h from B = Sg(a, b) onto {0, 1}, h(a) = 0 and h(b) = 1, through
    which each symbol acts as the meet of its labeled coordinates."""

    pair: tuple[int, int]  # a and b
    subuniverse: tuple[int, ...]  # B, sorted
    bits: tuple[int, ...]  # h on B, in B's order
    labeling: SLLabeling


class ConsistentLabelingFound(NamedTuple):
    labeling: SLLabeling
    max_arity: int
    witness: TwoElementWitness | None = None  # None: exact after the rank-2 closure, bounded evidence at max_arity 1


def _two_element_witness(a: FiniteAlgebra, labeling: tuple) -> TwoElementWitness | None:
    """The witness of `labeling`, one coordinate set per sorted symbol, at
    the first ordered pair in lexicographic order that witnesses it, or None
    when no pair does (see the module notes).

    Per ordered pair (a, b), `_labeled_closure` closes Sg(a, b) with the
    bit 1 for a and 0 for b: an element's bit is g = 1 - h, a symbol's OR
    over its labeled coordinates is g(f(t)) = max g = 1 - min h, and the
    labeling survives exactly when h is a witness with h(a) = 0, h(b) = 1.
    The seeds are the diagonal (a, a), (b, b) of A^2, which never fills
    A^2: `_grow` ends a closure once it holds the whole power, as seeds
    (a,), (b,) would on reaching B = A, before every tuple over B is
    checked (on two elements, before any).
    """
    for pair in itertools.permutations(range(a.size), 2):
        survivors, elements, _ = _labeled_closure(a, [(v, v) for v in pair], [1, 0], a.size, [labeling], [])
        if survivors:  # B sorted, with h = 1 - bit
            universe, bits = zip(*sorted((e, 1 - g) for (e, _), g in zip(elements, survivors[0][1])))
            return TwoElementWitness(pair, universe, bits, SLLabeling(dict(zip(a.symbols(), labeling))))
    return None


def verify_witness(a: FiniteAlgebra, witness: TwoElementWitness) -> bool:
    """Replay a two-element witness by direct evaluation (`apply`): B is
    closed under every operation, holds a and b, and h maps it onto {0, 1}
    with h(a) = 0 and h(b) = 1; each symbol's coordinate set lies in its
    arity, and h(f(t)) is the meet of h at those coordinates for every t in
    B^m.  Shares no code with the closure engine or the witness search;
    anything malformed returns False rather than raising."""
    if not isinstance(witness, TwoElementWitness) or not isinstance(witness.labeling, SLLabeling):
        return False

    def ids(values, bound: int) -> bool:
        return isinstance(values, tuple) and all(type(v) is int and 0 <= v < bound for v in values)

    pair, universe, bits, labeling = witness
    sigma = labeling.sigma
    if not (ids(pair, a.size) and len(pair) == 2 and ids(universe, a.size) and ids(bits, 2)):
        return False
    h = dict(zip(universe, bits))
    if len(h) != len(universe) or len(bits) != len(universe) or [h.get(v) for v in pair] != [0, 1]:
        return False
    if not isinstance(sigma, dict) or set(sigma) != set(a.operations):
        return False
    for sym, table in a.operations.items():
        coords = sigma[sym]  # a non-empty set of coordinates, sorted
        if not ids(coords, table.arity + 1) or not coords or 0 in coords or list(coords) != sorted(set(coords)):
            return False
        for t in itertools.product(universe, repeat=table.arity):
            value = h.get(table.apply(*t))
            if value is None or value != min(h[t[i - 1]] for i in coords):
                return False
    return True


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


def _labeled_closure(
    a: FiniteAlgebra, seeds: list, seed_bits: list[int], max_tuples: int, prefixes: Sequence[tuple], decided: list
) -> tuple[list, list, list]:
    """Close `seeds` by `_grow` once for the labeling prefixes (equal in
    length, in labeling order), each keeping a bit set per element: seed
    g's is seed_bits[g], a tuple's the OR of its labeled arguments'.
    Appends to `decided` what each prefix meets first; returns the
    survivors as (prefix, sets by element id), in labeling order, with the
    closure's elements and derivations.

    A prefix holds a coordinate set, a sorted tuple, for each of the first
    sorted symbols and stands for every labeling that extends it.  The sets
    depend only on the coordinate sets of the symbols evaluated so far, so
    at a symbol's first batch, in round 1, each live prefix splits into one
    child per coordinate set, in order; from then on every prefix is a full
    labeling.  A prefix is decided at its first collision, a tuple whose set
    is not its value's, as (prefix, (value id, symbol, arguments, batch
    position, value's set, tuple's set)), a seed having the symbol None and
    no arguments; or as (prefix, SizeLimitExceeded) when its own sets would
    pass max_tuples elements: no collision before the engine's cut, or one
    with max_tuples elements present.
    """
    elements, derivations = [], []
    live = [(chosen, []) for chosen in prefixes]  # each prefix with the set of each element as bits
    position = {sym: t for t, sym in enumerate(a.symbols())}
    for sym, m, prefix, first, batch, ids, added in _grow(seeds, a, max_tuples, elements, derivations, {}):
        t = position.get(sym)
        if t == len(live[0][0]):  # the symbol's first batch: split by its coordinate sets
            live = [(chosen + (c,), bits if c == (1,) else bits[:]) for chosen, bits in live for c in subsets(m)]
        # decide each prefix that collides or overflows in the batch
        survivors = []
        for chosen, bits in live:
            if sym is None:
                union = seed_bits
            else:
                coords = chosen[t]
                p = 0
                for c in coords:
                    if c < m:
                        p |= bits[prefix[c - 1]]
                union = [p] * len(batch) if coords[-1] < m else list(map(p.__or__, bits[first : first + len(batch)]))
            if added:
                bits.extend(map(union.__getitem__, added))
            here = list(map(bits.__getitem__, ids))
            if here == union:
                survivors.append((chosen, bits))
                continue
            # `here` stops at a cut, so a prefix with no collision before it overflows
            i = next(itertools.compress(itertools.count(), map(operator.ne, here, union)), None)
            if i is not None and len(elements) - len(added) + bisect.bisect_left(added, i) < max_tuples:
                args = () if sym is None else (*prefix, first + i)  # the colliding tuple's arguments
                decided.append((chosen, (ids[i], sym, args, i, here[i], union[i])))
            else:
                decided.append((chosen, SizeLimitExceeded(f"closure exceeded {max_tuples} elements")))
        live = survivors
        if not live:  # so after a cut batch: the engine, which would raise, is not pulled again
            break
    return live, elements, derivations


def _refute_rank(
    a: FiniteAlgebra, max_tuples: int, prefixes: Sequence[tuple], decided: list
) -> list[tuple[tuple[int, ...], ...]]:
    """Close F_2 once for the live labeling prefixes by `_labeled_closure`,
    projection g with the variable set {x_g} as bit g, append to `decided`
    what each prefix meets first, and return the prefixes that survive the
    closure.

    A labeling's pairs (term operation, labeled variable set) are in
    bijection with the term operations until its first collision, with the
    same ids, derivations and batch order as a closure of its own pairs.
    The colliding value's derivation is the identity's lhs and the tuple its
    rhs.  The engine never stops at the whole power before a collision: for
    |A| >= 2, F_2 lies inside the idempotent operations, and for |A| = 1
    the seeds collide.

    A decided prefix is appended as (prefix, (identity, lhs set, rhs set)),
    or as (prefix, SizeLimitExceeded) when its own pairs would pass
    max_tuples.  The terms of every collision are built in one
    `_derived_terms` pass, and prefixes that meet the same collision (value
    id, symbol, arguments, position) share one Identity object, so a cover
    is checked and printed once per distinct identity.
    """
    names = variable_names(2)
    seeds = list(zip(*coordinate_tuples([a.size] * 2)))  # over assignments in lexicographic order
    met: list = []
    live, _, derivations = _labeled_closure(a, seeds, [1, 2], max_tuples, prefixes, met)
    sides = dict.fromkeys(outcome[:4] for _, outcome in met if not isinstance(outcome, SizeLimitExceeded))
    terms = iter(_derived_terms(derivations, names, [v for e, _, args, _ in sides for v in (e, *args)]))
    for e, sym, args, i in sides:
        lhs, subterms = next(terms), tuple(itertools.islice(terms, len(args)))
        sides[e, sym, args, i] = Identity(lhs, Variable(names[i]) if sym is None else Application(sym, subterms))
    for chosen, outcome in met:
        if not isinstance(outcome, SizeLimitExceeded):
            sets = (frozenset(n for g, n in enumerate(names) if s >> g & 1) for s in outcome[4:])
            outcome = (sides[outcome[:4]], *sets)
        decided.append((chosen, outcome))
    return [chosen for chosen, _ in live]


def hm_evidence(
    a: FiniteAlgebra, max_arity: int | None = None, max_tuples: int = DEFAULT_MAX_TUPLES
) -> CertifiedHM | ConsistentLabelingFound:
    """Refute every coordinate labeling, or report the first survivor.

    A refuted labeling comes with an identity that holds in the generated
    variety but changes labeled variable sets.  Refuting all labelings is a
    sound certificate.  A labeling that survives the rank-2 closure, or has
    a two-element witness (`_two_element_witness`), survives at every arity,
    so no certificate exists (see the module notes).

    Rank 2, the only rank closed, is closed once for all the labeling
    prefixes (`_refute_rank`, on the engine `_grow`); max_tuples bounds each
    labeling's pairs, by the engine's overflow rule.  The decided prefixes
    and the survivors are disjoint blocks of the labeling order, which is
    the lexicographic order of tuples of coordinate sets, so the least
    prefix alive or overflowed holds the first labeling not yet refuted, P:
    its first labeling, every later symbol at (1,).  P alone is tested for a
    witness, after rank 2 or, when no rank is closed (m = 1), at once.  A
    witnessed P is returned with its witness; an overflowed P raises; a live
    P is returned without one, an exact negative when m >= 2 and bounded
    evidence only when m = 1.  The answer is the one a search of one
    labeling at a time gives: L, the least witnessed labeling, is never
    refuted, so P <= L, and P is witnessed exactly when P = L, which is when
    every labeling before L is refuted; otherwise P is the first survivor or
    overflow before L.  A certificate is a cover: one refutation per decided
    prefix, in labeling order, whose partial labeling labels the prefix's
    symbols and stands for every labeling extending it.  Rank 1 is not
    searched: every labeled coordinate set is non-empty, so at rank 1 every
    union is {x}.
    """
    if not a.is_idempotent():
        raise StructureError("evidence search requires an idempotent algebra")
    if a.size < 1:
        raise StructureError("empty universe")
    m = default_evidence_arity(a) if max_arity is None else max_arity
    if m < 1:
        raise StructureError(f"arity bound must be >= 1, got {m}")
    symbols = a.symbols()
    prefixes = [()] if all(a.operations[sym].arity for sym in symbols) else []  # a constant has no coordinate set
    decided: list = []
    if m >= 2 and prefixes:
        prefixes = _refute_rank(a, max_tuples, prefixes, decided)
    undecided = [(p, None) for p in prefixes] + [e for e in decided if isinstance(e[1], SizeLimitExceeded)]
    if not undecided:
        cover = sorted(decided, key=operator.itemgetter(0))
        return CertifiedHM(m, tuple(SLRefutation(SLLabeling(dict(zip(symbols, p))), *outcome) for p, outcome in cover))
    prefix, overflow = min(undecided, key=operator.itemgetter(0))
    labeling = prefix + ((1,),) * (len(symbols) - len(prefix))  # P, the prefix's first labeling
    witness = _two_element_witness(a, labeling)
    if witness is not None:
        return ConsistentLabelingFound(witness.labeling, m, witness)
    if overflow is not None:
        raise overflow
    return ConsistentLabelingFound(SLLabeling(dict(zip(symbols, labeling))), m)


def verify_certificate(a: FiniteAlgebra, certificate: CertifiedHM) -> bool:
    """Replay a certificate by `replay_cover`.  Every entry is a rank-2
    refutation, so a certificate with entries needs an int max_arity >= 2,
    and each identity must be made of well-formed terms over x, y and the
    algebra's symbols and hold in the algebra (`holds_in` evaluates each
    side once, column-wise); `replay_cover` asks this once per identity
    object and checks each entry's labeling on its own.  Anything malformed
    returns False rather than raising."""
    if not isinstance(certificate, CertifiedHM) or not isinstance(certificate.refutations, tuple):
        return False
    if not isinstance(certificate.max_arity, int) or certificate.max_arity < 2 and certificate.refutations:
        return False
    arity = {sym: op.arity for sym, op in a.operations.items()}
    names = variable_names(2)

    def node(u, ok: list) -> bool:
        return isinstance(u, Application) and isinstance(u.symbol, str) and all(ok) and len(ok) == arity.get(u.symbol)

    def children(u) -> tuple:
        return u.args if isinstance(u, Application) else ()

    def valid(identity: Identity) -> bool:  # every variable is x or y, every application one of a's symbols at its arity
        well_formed = all(_fold(t, lambda v: v.name in names, node, children) for t in identity)
        return well_formed and holds_in(a, identity, a.operations)

    return replay_cover(arity, certificate.refutations, valid)


def bundle_summary(bundle: FreeBundle) -> dict:
    """A plain-data description of a completed bundle."""
    assert bundle.K is not None
    rel = bundle.structure.relations[RELATION_SYMBOL]
    names = bundle.free.algebra.labels
    return {
        "free_size": bundle.free.algebra.size,
        "unary_ops": len(bundle.components),
        "relation_size": len(rel.tuples),
        "components": [
            {
                "index": u,
                "members": [names[e] for e in c.members],
                "hom_count": len(c.homs),
                "collapsed_size": len(c.kids),
            }
            for u, c in enumerate(bundle.components)
        ],
        "image_size": bundle.K.size,
        "kernel": [
            sorted(names[e] for e in block) for block in _classes(bundle.quotient_map).values()
        ],
    }
