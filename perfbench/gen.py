"""Seeded inputs for the hmkit benchmark, and the answers known without hmkit.

Nothing here imports hmkit, so neither the inputs nor the answers they are
checked against can move with an engine change.  Every draw comes from a
`random.Random` the caller seeds; the same seed gives the same documents,
byte for byte.

Structures are plain dicts in the hmkit structure format, algebras in the
algebra format, and identity terms are nested tuples: a variable is a
string, an application is `(symbol, (arg, ...))`.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb

# --- documents ------------------------------------------------------------------


def structure(size: int, tuples) -> dict:
    """A structure with one ternary relation R."""
    return {
        "universe": [str(i) for i in range(size)],
        "relations": {"R": {"arity": 3, "tuples": sorted(list(t) for t in set(map(tuple, tuples)))}},
    }


def triples(doc: dict) -> set[tuple[int, ...]]:
    return {tuple(t) for t in doc["relations"]["R"]["tuples"]}


def size_of(doc: dict) -> int:
    return len(doc["universe"])


def table(size: int, arity: int, fn) -> dict:
    """An operation table, row-major with the first argument most significant."""
    values = [fn(*args) for args in itertools.product(range(size), repeat=arity)]
    return {"arity": arity, "size": size, "values": values}


def algebra(size: int, operations: dict) -> dict:
    return {"universe": [str(i) for i in range(size)], "operations": operations}


def dumps(doc) -> str:
    """The one serialisation used for every JSON input."""
    return json.dumps(doc, sort_keys=True) + "\n"


# --- named structures -------------------------------------------------------------


def semilattice() -> dict:
    """S: the two-element meet semilattice as a ternary relation."""
    return structure(2, [(a, b, min(a, b)) for a in range(2) for b in range(2)])


def chain3() -> dict:
    return structure(3, [(a, b, min(a, b)) for a in range(3) for b in range(3)])


def y_structure() -> dict:
    """The four-element Y: bottom 0, maximal 1 and 2, their meet 3."""
    below = {0: {0}, 1: {0, 3, 1}, 2: {0, 3, 2}, 3: {0, 3}}

    def meet(a, b):
        return max(below[a] & below[b], key=lambda v: len(below[v]))

    return structure(4, [(a, b, meet(a, b)) for a in range(4) for b in range(4)])


def product(factors: list[dict]) -> dict:
    """Direct product; element ids are lexicographic ranks of coordinate tuples."""
    sizes = [size_of(f) for f in factors]

    def rank(coords):
        r = 0
        for c, n in zip(coords, sizes):
            r = r * n + c
        return r

    out = []
    for combo in itertools.product(*(sorted(triples(f)) for f in factors)):
        out.append(tuple(rank([t[i] for t in combo]) for i in range(3)))
    return structure(rank([n - 1 for n in sizes]) + 1, out)


def power(doc: dict, n: int) -> dict:
    return product([doc] * n)


def disjoint_union(parts: list[dict]) -> dict:
    out, offset = [], 0
    for p in parts:
        out.extend(tuple(v + offset for v in t) for t in triples(p))
        offset += size_of(p)
    return structure(offset, out)


def relabel(doc: dict, perm: list[int]) -> dict:
    """The isomorphic copy in which element i is renamed perm[i]."""
    return structure(size_of(doc), [tuple(perm[v] for v in t) for t in triples(doc)])


def random_structure(rng: random.Random, size: int, density: float) -> dict:
    """A ternary relation holding each triple independently with the given chance."""
    return structure(
        size, [t for t in itertools.product(range(size), repeat=3) if rng.random() < density]
    )


# --- partial semilattices -----------------------------------------------------------


def meet_fragment(rng: random.Random, n: int, dim: int) -> dict:
    """n points of the Boolean lattice 2^dim, the top among them, with the
    meet kept wherever it lands inside the set.  Always a partial
    semilattice, and the top is its largest element (id 0)."""
    top = (1 << dim) - 1
    points = [top] + rng.sample(range(top), n - 1)
    index = {p: i for i, p in enumerate(points)}
    return structure(
        n,
        [(i, j, index[a & b]) for (i, a), (j, b) in itertools.product(enumerate(points), repeat=2) if a & b in index],
    )


def random_functional(rng: random.Random, n: int, density: float) -> dict:
    """A reflexive relation in which each off-diagonal pair has at most one value."""
    out = [(a, a, a) for a in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        if a != b and rng.random() < density:
            out.append((a, b, rng.randrange(n)))
    return structure(n, out)


def psl_verdict(doc: dict) -> bool:
    """Is a reflexive functional relation a partial semilattice?

    Decided by Horn closure, independently of the congruence procedure in
    hmkit: with implications {a,b} -> c, c -> a and c -> b for each triple
    (a,b,c), two elements are identified in the freest semilattice exactly
    when each lies in the closure of the other.
    """
    n = size_of(doc)
    rules = sorted(triples(doc))

    def closure(k):
        closed, changed = {k}, True
        while changed:
            changed = False
            for a, b, c in rules:
                if a in closed and b in closed and c not in closed:
                    closed.add(c)
                    changed = True
                if c in closed and not (a in closed and b in closed):
                    closed.update((a, b))
                    changed = True
        return closed

    cl = [closure(k) for k in range(n)]
    return not any(j in cl[i] and i in cl[j] for i in range(n) for j in range(i + 1, n))


def homs_to_s(doc: dict) -> list[tuple[int, ...]]:
    """Every homomorphism into S, by brute force over all 0/1 maps."""
    ts = triples(doc)
    return [
        m
        for m in itertools.product((0, 1), repeat=size_of(doc))
        if all(m[c] == min(m[a], m[b]) for a, b, c in ts)
    ]


def product_homs_to_s(factors: list[dict], tops: list[int]) -> list[tuple[int, ...]]:
    """Hom(H_1 x ... x H_k, S) for partial semilattices with largest elements.

    Each non-constant homomorphism is x -> min_i f_i(x_i) for homomorphisms
    f_i: H_i -> S with f_i(top_i) = 1; the all-ones choice gives the constant
    1, and the constant 0 is the only other one.  Returned in the
    lexicographic order hmkit's search reports.
    """
    choices = [[f for f in homs_to_s(h) if f[t] == 1] for h, t in zip(factors, tops)]
    sizes = [size_of(h) for h in factors]
    points = list(itertools.product(*(range(n) for n in sizes)))
    out = {tuple(0 for _ in points)}
    for fs in itertools.product(*choices):
        out.add(tuple(min(f[c] for f, c in zip(fs, x)) for x in points))
    return sorted(out)


def coordinate_maps(mapping, sizes: list[int], tops: list[int]) -> list[list[int]]:
    """f_i(x) = f(tops with x at position i), the decomposition's factor maps."""
    def rank(coords):
        r = 0
        for c, n in zip(coords, sizes):
            r = r * n + c
        return r

    return [
        [mapping[rank(tops[:i] + [x] + tops[i + 1:])] for x in range(n)] for i, n in enumerate(sizes)
    ]


# --- homomorphism counts and gadget facts ----------------------------------------------


def brute_hom_count(src: dict, tgt: dict) -> int:
    st, tt = sorted(triples(src)), triples(tgt)
    return sum(
        all((m[a], m[b], m[c]) in tt for a, b, c in st)
        for m in itertools.product(range(size_of(tgt)), repeat=size_of(src))
    )


def gadget_multiplicities(exponents: list[int]) -> dict[int, int]:
    """Components of the gadget of a union of powers S^a: C(a, k) copies of S^k
    for each summand, because the gadget of a disjoint union is the disjoint
    union of the gadgets."""
    out: dict[int, int] = {}
    for a in exponents:
        for k in range(a + 1):
            out[k] = out.get(k, 0) + comb(a, k)
    return dict(sorted(out.items()))


# --- algebras ------------------------------------------------------------------------


def idempotent_table(rng: random.Random, size: int, arity: int) -> dict:
    return table(size, arity, lambda *args: args[0] if len(set(args)) == 1 else rng.randrange(size))


def _two_generated(alg: dict) -> list[tuple[int, int]]:
    """The free algebra on two generators of an idempotent 2-element algebra.

    A binary term operation is fixed on the diagonal, so it is its pair of
    values at (0,1) and (1,0); close x = (0,1), y = (1,0) under the operations.
    """
    ops = list(alg["operations"].values())
    elements, changed = {(0, 1), (1, 0)}, True
    while changed:
        changed = False
        for op in ops:
            for args in itertools.product(sorted(elements), repeat=op["arity"]):
                value = tuple(
                    op["values"][int("".join(str(a[c]) for a in args), 2)] for c in range(2)
                )
                if value not in elements:
                    elements.add(value)
                    changed = True
    return sorted(elements)


def two_element_free_size(alg: dict) -> int:
    return len(_two_generated(alg))


def two_element_free_build(alg: dict) -> dict:
    """The invariants `free build` reports for an idempotent 2-element algebra.

    Every element of the free algebra F on x, y has the identity as its
    diagonal, so F is one component.  Its relation R is the subalgebra of
    F^3 generated by (x,x,x), (x,y,x), (y,x,x), (y,y,y); H is the set of
    non-constant homomorphisms from (F, R) into S; the image identifies
    elements on which every member of H agrees.
    """
    elements = _two_generated(alg)
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    ops = []
    for op in alg["operations"].values():
        table = {}
        for args in itertools.product(range(n), repeat=op["arity"]):
            table[args] = index[
                tuple(op["values"][int("".join(str(elements[a][c]) for a in args), 2)] for c in range(2))
            ]
        ops.append((op["arity"], table))

    x, y = index[(0, 1)], index[(1, 0)]
    relation = [(x, x, x), (x, y, x), (y, x, x), (y, y, y)]
    seen = set(relation)
    k = 0
    while k < len(relation) and len(relation) < n**3:
        for arity, table in ops:
            for combo in _tuples_containing(k, arity):
                args = [relation[i] for i in combo]
                t = tuple(table[tuple(a[c] for a in args)] for c in range(3))
                if t not in seen:
                    seen.add(t)
                    relation.append(t)
        k += 1

    homs = [
        h
        for h in itertools.product((0, 1), repeat=n)
        if len(set(h)) == 2 and all(h[c] == min(h[a], h[b]) for a, b, c in relation)
    ]
    blocks: dict[tuple, int] = {}
    for e in range(n):
        key = tuple(h[e] for h in homs)
        blocks[key] = blocks.get(key, 0) + 1
    return {
        "free_size": n,
        "unary_ops": 1,
        "relation_size": len(relation),
        "image_size": len(blocks),
        "hom_counts": [len(homs)],
        "collapsed_sizes": [len(blocks)],
        "kernel_blocks": sorted(blocks.values()),
    }


def labeling_count(alg: dict) -> int:
    """Number of coordinate labelings: a non-empty coordinate set per operation."""
    n = 1
    for op in alg["operations"].values():
        n *= (1 << op["arity"]) - 1
    return n


def labelings(declarations: dict[str, int]) -> list[dict[str, tuple[int, ...]]]:
    """Every coordinate labeling, in the order hmkit tries them: symbols
    sorted, each coordinate set a non-empty subset of 1..arity in
    lexicographic order, the last symbol varying fastest."""
    symbols = sorted(declarations)
    subsets = [
        sorted(c for r in range(1, declarations[s] + 1) for c in itertools.combinations(range(1, declarations[s] + 1), r))
        for s in symbols
    ]
    return [dict(zip(symbols, combo)) for combo in itertools.product(*subsets)]


def describe_labeling(sigma: dict[str, tuple[int, ...]]) -> str:
    """A labeling as hmkit prints it."""
    return " ".join(f"{s}->{{{','.join(map(str, sigma[s]))}}}" for s in sorted(sigma))


def _tuples_containing(k: int, arity: int):
    """Index tuples over 0..k in which k occurs, each once."""
    for p in range(arity):
        for before in itertools.product(range(k), repeat=p):
            for after in itertools.product(range(k + 1), repeat=arity - p - 1):
                yield (*before, k, *after)


def _refuted_at_rank(ops: list, sigma: dict, j: int) -> bool:
    """Does some j-ary term operation of a 2-element algebra have two terms
    whose variable sets under the labeling differ?

    Closes the pairs (term operation, variable set) generated by the j
    projections, semi-naively: a term operation is a bitmask over the 2^j
    points of {0,1}^j, computed by sum of products from the operation's
    table, and a variable set is a bitmask over the j variables.  Stops at
    the first term operation reached with a second variable set.
    """
    points = 1 << j
    full = (1 << points) - 1
    gens = [(sum(1 << p for p in range(points) if p >> (j - 1 - g) & 1), 1 << g) for g in range(j)]
    elems, varset = list(gens), dict(gens)
    k = 0
    while k < len(elems):
        for sym, arity, ones in ops:
            coords = [c - 1 for c in sigma[sym]]
            for combo in _tuples_containing(k, arity):
                args = [elems[i] for i in combo]
                value = 0
                for bits in ones:
                    term = full
                    for (f, _), bit in zip(args, bits):
                        term &= f if bit else full ^ f
                    value |= term
                vs = 0
                for c in coords:
                    vs |= args[c][1]
                if value not in varset:
                    varset[value] = vs
                    elems.append((value, vs))
                elif varset[value] != vs:
                    return True
        k += 1
    return False


def hm_evidence_survivor(alg: dict, max_arity: int) -> str | None:
    """The first coordinate labeling of an idempotent 2-element algebra that
    no identity in at most `max_arity` variables refutes, described as
    hmkit prints it, or None when every labeling is refuted.

    A labeling is refuted at rank j when two terms in j variables denote
    the same term operation but get different variable sets, which is the
    bounded search `alg hm-evidence` runs; decided here on truth tables.
    """
    ops = [
        (sym, op["arity"], [bits for bits, v in zip(itertools.product((0, 1), repeat=op["arity"]), op["values"]) if v])
        for sym, op in sorted(alg["operations"].items())
    ]
    declarations = {sym: arity for sym, arity, _ in ops}
    for sigma in labelings(declarations):
        if not any(_refuted_at_rank(ops, sigma, j) for j in range(1, max_arity + 1)):
            return describe_labeling(sigma)
    return None


# --- identity systems ---------------------------------------------------------------------


def render(term) -> str:
    if isinstance(term, str):
        return term
    symbol, args = term
    return f"{symbol}({','.join(render(a) for a in args)})"


def system_text(declarations: dict[str, int], identities, idempotent=()) -> str:
    lines = ["ops: " + ", ".join(f"{s}/{a}" for s, a in declarations.items())]
    if idempotent:
        lines.append("idempotent: " + ", ".join(idempotent))
    lines.extend(f"{render(l)} = {render(r)}" for l, r in identities)
    return "\n".join(lines) + "\n"


def _app(symbol, text):
    return (symbol, tuple(text))


MAJORITY = ({"m": 3}, [(_app("m", "xxx"), "x"), (_app("m", "xxy"), "x"), (_app("m", "xyx"), "x"), (_app("m", "yxx"), "x")], ())
MALTSEV = ({"p": 3}, [(_app("p", "xxx"), "x"), (_app("p", "xyy"), "x"), (_app("p", "yyx"), "x")], ())
SEMILATTICE = (
    {"f": 2},
    [(_app("f", "xy"), _app("f", "yx")), (("f", (_app("f", "xy"), "z")), ("f", ("x", _app("f", "yz"))))],
    ("f",),
)


def linear_system(rng: random.Random):
    """One or two idempotent symbols of arity 2-4 and 2-4 linear identities in x, y."""
    declarations = {s: rng.randint(2, 4) for s in ("f", "g")[: rng.randint(1, 2)]}
    symbols = list(declarations)
    identities = []
    for _ in range(rng.randint(2, 4)):
        lhs = _app(s := rng.choice(symbols), [rng.choice("xy") for _ in range(declarations[s])])
        if rng.random() < 0.4:
            rhs = rng.choice("xy")
        else:
            rhs = _app(s := rng.choice(symbols), [rng.choice("xy") for _ in range(declarations[s])])
        identities.append((lhs, rhs))
    return declarations, identities, tuple(symbols)


def _varset(term, sigma) -> frozenset:
    if isinstance(term, str):
        return frozenset({term})
    symbol, args = term
    return frozenset().union(*(_varset(args[i - 1], sigma) for i in sigma[symbol]))


def sl_interp(declarations: dict[str, int], identities) -> tuple[str | None, int]:
    """The first satisfying coordinate labeling, described as hmkit prints it,
    or None, with the number of labelings tried."""
    tried = 0
    for sigma in labelings(declarations):
        tried += 1
        if all(_varset(l, sigma) == _varset(r, sigma) for l, r in identities):
            return describe_labeling(sigma), tried
    return None, tried
