"""A small equational language: terms, identities, and two syntactic tests.

The text format is line oriented:

    ops: f/2, g/1        # declarations, required first
    idempotent: f        # optional
    f(x,y) = f(y,x)      # one identity per line, '#' starts a comment

Undeclared identifiers are variables.  The two analyses differ in scope:
the coordinate-labeling search treats arbitrary terms, one block of symbols
joined by identities at a time, and answers UNSAT with the first refuted
block's cover, one refuting identity per refuted labeling prefix, which
`replay_cover` replays; saturation and the subset-condition check live in
the fragment of linear identities in at most two variables, where
saturation is an equivalence closure by union-find over the flat forms
(symbol, argument names) of their sides, building terms only for its
result.  One regex pass splits an identity line into tokens, each an
identifier or one other character after optional blanks, and a loop over
them builds the terms.  Terms may nest arbitrarily deep, and no walk
recurses: that loop keeps an explicit stack, variable and symbol sets come
from a plain walk, and `_fold`, for the walks whose order matters
(printing, `holds_in`, a certificate's well-formedness), keeps a frame
(application, iterator over its children, their values) per open
application, so it visits each node once and the leaves left to right.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .structures import Record, Relation, RelationalStructure, connected_components


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SystemError_(ValueError):
    """An identity system violates a structural precondition."""


class Variable(Record):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __hash__(self) -> int:
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


class Application(Record):
    __slots__ = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple) -> None:
        self.symbol, self.args = symbol, tuple(args)

    # in Python, not C: a term too deep to hash raises RecursionError
    def __hash__(self) -> int:
        return hash((self.symbol, self.args))

    def __str__(self) -> str:
        return _fold(self, str, lambda t, parts: f"{t.symbol}({','.join(parts)})")


Term = Variable | Application


def _fold(t: Term, leaf: Callable, node: Callable, children: Callable = lambda t: t.args):
    """Post-order fold without recursion: `leaf(v)` values a variable, and
    `node(t, values)` combines the values of `children(t)` for an application t.
    """
    if isinstance(t, Variable):
        return leaf(t)
    stack = [(t, iter(children(t)), [])]  # (application, its unvisited children, their values)
    while True:
        u, kids, values = stack[-1]
        for k in kids:
            if isinstance(k, Variable):
                values.append(leaf(k))
            else:  # descend; this frame resumes at the child after k
                stack.append((k, iter(children(k)), []))
                break
        else:
            stack.pop()
            value = node(u, values)
            if not stack:
                return value
            stack[-1][2].append(value)


class Identity(NamedTuple):
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


class TermSystem(Record):
    __slots__ = ("declarations", "identities", "idempotent")

    def __init__(
        self, declarations: Mapping[str, int], identities: tuple[Identity, ...], idempotent: frozenset[str] = frozenset()
    ) -> None:
        self.declarations, self.identities = dict(declarations), tuple(identities)
        self.idempotent = frozenset(idempotent)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# blanks, then an identifier or one other character: tokens cover the whole line
_TOKEN = re.compile(rf"[ \t]*(?:({_IDENT.pattern})|(.))")


def _identity(line: str, lineno: int, declarations: Mapping[str, int]) -> Identity:
    """One identity line, read from its (identifier, other character) tokens
    with an explicit stack of open applications."""
    tokens = _TOKEN.findall(line) + [("", "")]  # the end of the line

    def error(message: str, at: int) -> ParseError:  # at: the index of the offending token
        starts = [m.start(m.lastindex) for m in _TOKEN.finditer(line)] + [len(line)]
        return ParseError(message, lineno, starts[at] + 1)

    k, sides = 0, []
    for after in ("=", ""):
        open_apps: list[tuple[str, int, list[Term]]] = []  # symbol, its token, args so far
        while True:
            name = tokens[k][0]
            if not name:
                raise error("expected an identifier", k)
            k += 1
            if tokens[k][1] == "(":
                if name not in declarations:
                    raise error(f"undeclared symbol '{name}'", k - 1)
                open_apps.append((name, k - 1, []))
                k += 1
                continue
            if name in declarations:
                raise error(f"declared symbol '{name}' used without arguments", k - 1)
            done: Term = Variable(name)
            # a finished argument either precedes a ',' or closes its application
            while open_apps:
                open_apps[-1][2].append(done)
                if tokens[k][1] == ",":
                    k += 1
                    break
                if tokens[k][1] != ")":
                    raise error("expected ')'", k)
                k += 1
                name, at, args = open_apps.pop()
                if len(args) != declarations[name]:
                    raise error(
                        f"symbol '{name}' declared with arity {declarations[name]}, applied to {len(args)} arguments", at
                    )
                done = Application(name, tuple(args))
            else:
                break
        if tokens[k] != ("", after):
            raise error(f"expected '{after}'" if after else "trailing input after identity", k)
        k += 1
        sides.append(done)
    return Identity(*sides)


def parse(text: str) -> TermSystem:
    declarations: dict[str, int] = {}
    idempotent: set[str] = set()
    identities: list[Identity] = []
    seen_ops = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ops:"):
            if seen_ops:
                raise ParseError("duplicate 'ops:' header", lineno, 1)
            seen_ops = True
            body = line[len("ops:"):].strip()
            if body:
                for part in body.split(","):
                    part = part.strip()
                    if "/" not in part:
                        raise ParseError(f"expected name/arity, got '{part}'", lineno, 1)
                    name, _, arity_s = part.partition("/")
                    name = name.strip()
                    if not _IDENT.fullmatch(name):
                        raise ParseError(f"bad symbol name '{name}'", lineno, 1)
                    try:
                        arity = int(arity_s.strip())
                    except ValueError:
                        raise ParseError(f"bad arity '{arity_s.strip()}'", lineno, 1) from None
                    if arity < 1:
                        raise ParseError(f"arity must be >= 1 for '{name}'", lineno, 1)
                    if name in declarations:
                        raise ParseError(f"symbol '{name}' declared twice", lineno, 1)
                    declarations[name] = arity
            continue
        if not seen_ops:
            raise ParseError("first line must be an 'ops:' header", lineno, 1)
        if line.startswith("idempotent:"):
            for part in line[len("idempotent:"):].split(","):
                name = part.strip()
                if not name:
                    continue
                if name not in declarations:
                    raise ParseError(f"idempotent symbol '{name}' is not declared", lineno, 1)
                idempotent.add(name)
            continue
        identities.append(_identity(line, lineno, declarations))
    if not seen_ops:
        raise ParseError("missing 'ops:' header", 1, 1)
    return TermSystem(declarations, tuple(identities), frozenset(idempotent))


def format_system(sys: TermSystem) -> str:
    lines = ["ops: " + ", ".join(f"{n}/{a}" for n, a in sorted(sys.declarations.items()))]
    if sys.idempotent:
        lines.append("idempotent: " + ", ".join(sorted(sys.idempotent)))
    lines.extend(str(i) for i in sys.identities)
    return "\n".join(lines) + "\n"


def _varset(t: Term, children: Callable) -> frozenset[str]:
    names, stack = set(), [t]  # a plain walk, as in `term_symbols`: their order does not matter
    while stack:
        u = stack.pop()
        if isinstance(u, Variable):
            names.add(u.name)
        else:
            stack.extend(children(u))
    return frozenset(names)


def term_variables(t: Term) -> frozenset[str]:
    return _varset(t, lambda u: u.args)


def term_symbols(t: Term) -> set[str]:
    """The symbols of a term; their order does not matter, so a plain walk
    collects them rather than `_fold`."""
    symbols, stack = set(), [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Application):
            symbols.add(u.symbol)
            stack.extend(u.args)
    return symbols


def is_linear(i: Identity) -> bool:
    """At most one function symbol on each side."""
    return all(
        isinstance(t, Variable) or all(isinstance(a, Variable) for a in t.args) for t in (i.lhs, i.rhs)
    )


def linear_fragment(sys: TermSystem) -> TermSystem:
    """The sub-system keeping only linear identities in at most 2 variables."""
    kept = tuple(
        i
        for i in sys.identities
        if is_linear(i) and len(term_variables(i.lhs) | term_variables(i.rhs)) <= 2
    )
    return TermSystem(sys.declarations, kept, sys.idempotent)


# --- saturation of linear two-variable identities ---------------------------

_X = Variable("x")

# the substitutions of {x, y} into itself as images of (x, y): identity, swap, the identifications
_SUBSTITUTIONS = ("xy", "yx", "xx", "yy")


def saturate(sys: TermSystem) -> TermSystem:
    """Close a linear 2-variable identity set under sound derivations (see `saturation`)."""
    return TermSystem(sys.declarations, [Identity(s, t) for _, s, t in saturation(sys)], sys.idempotent)


def saturation(sys: TermSystem) -> list[tuple[str, Term, Term]]:
    """The identities of `saturate(sys)` as (text, lhs, rhs), sorted by their texts.

    Rules: symmetry, transitivity, and the substitutions of {x, y} into
    itself (swap, identify either way); pairing (s1 = v, s2 = v give
    s1 = s2) is symmetry then transitivity.  Seeds: the identities renamed
    to x, y by first occurrence, and f(x,...,x) = x for idempotent f.
    The substitutions compose among themselves and map derivations to
    derivations, so the closure is every ordered pair within one class of
    the equivalence generated by the substitution instances of the seeds.
    A side is held flat, as (symbol, argument names), with symbol None for
    a variable, and a term is built only for each member of the result.
    """
    seeds = []
    for i in sys.identities:
        if not is_linear(i):
            raise SystemError_(f"non-linear identity: {i}")
        sides = [(None, (t.name,)) if isinstance(t, Variable) else (t.symbol, tuple(a.name for a in t.args)) for t in i]
        if len(dict.fromkeys(sides[0][1] + sides[1][1])) > 2:
            raise SystemError_(f"identity in more than 2 variables: {i}")
        seeds.append(sides)
    for name in sorted(sys.idempotent):
        seeds.append([(name, ("x",) * sys.declarations[name]), (None, ("x",))])

    forms: dict[tuple, int] = {}  # flat form -> id as met; flat forms hash and compare in C
    pairs = set()
    for (f, u), (g, v) in seeds:
        order = dict.fromkeys(u + v)  # the seed's variables by first occurrence, renamed x, y
        for images in _SUBSTITUTIONS:
            rename = dict(zip(order, images)).__getitem__
            s, t = (f, tuple(map(rename, u))), (g, tuple(map(rename, v)))
            pairs.add((forms.setdefault(s, len(forms)), forms.setdefault(t, len(forms))))
    members = [  # the (text, term) of each flat form, by id
        (u[0], Variable(u[0])) if f is None else (f"{f}({','.join(u)})", Application(f, tuple(map(Variable, u))))
        for f, u in forms
    ]
    classes = connected_components(RelationalStructure(len(forms), {"": Relation(2, frozenset(pairs))}))
    # sorted by the identities' texts, f"{s} = {t}", which are distinct
    return sorted(
        (f"{members[a][0]} = {members[b][0]}", members[a][1], members[b][1]) for c in classes for a in c for b in c
    )


# --- the subset-condition test ----------------------------------------------


def next_subset(s: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """The sorted non-empty subset of {1..n} after s in lexicographic order,
    None after (n,): a preorder step on the subset as its own stack, which
    pushes the next coordinate, else pops the last and steps the one before."""
    if s[-1] < n:
        return s + (s[-1] + 1,)
    return s[:-2] + (s[-2] + 1,) if len(s) > 1 else None


def subsets(n: int) -> Iterator[tuple[int, ...]]:
    """Non-empty subsets of {1..n} as sorted tuples, lazily, in lexicographic
    order; the first is (1,)."""
    s = (1,) if n > 0 else None
    while s is not None:
        yield s
        s = next_subset(s, n)


class HmTermReport(NamedTuple):
    symbol: str
    passed: bool
    witnesses: tuple[tuple[tuple[int, ...], Identity], ...]
    missing: tuple[int, ...] | None


def _witness_for(identity: Identity, symbol: str, subset: tuple[int, ...]) -> bool:
    """Does the identity witness the subset condition for this coordinate set?

    Both sides must be applications of the symbol to variables, two distinct
    variables overall; with x at every subset position on the left and y at
    some subset position on the right (either naming of the two variables).
    """
    lhs, rhs = identity.lhs, identity.rhs
    if not all(isinstance(t, Application) and t.symbol == symbol for t in (lhs, rhs)):
        return False
    if not all(isinstance(a, Variable) for a in lhs.args + rhs.args):
        return False
    vars_ = {a.name for a in lhs.args + rhs.args}
    if len(vars_) != 2:
        return False
    p, q = sorted(vars_)
    for x, y in ((p, q), (q, p)):
        if all(lhs.args[i - 1].name == x for i in subset) and any(
            rhs.args[i - 1].name == y for i in subset
        ):
            return True
    return False


def hm_term_check(sys: TermSystem, symbol: str) -> HmTermReport:
    """The per-subset two-variable identity condition for one symbol.

    Expects a saturated system.  For each non-empty coordinate subset I,
    scans for an identity t(u) = t(v) with x at every I-position on the
    left and y at some I-position on the right.
    """
    if symbol not in sys.declarations:
        raise SystemError_(f"symbol '{symbol}' is not declared")
    arity = sys.declarations[symbol]
    # compared by ==, not hashed: an identity of any depth differs from idem within one level
    idem = Identity(Application(symbol, (_X,) * arity), _X)
    if symbol not in sys.idempotent and not any(isinstance(i.rhs, Variable) and i == idem for i in sys.identities):
        raise SystemError_(f"symbol '{symbol}' is not known to be idempotent")

    witnesses = []
    for subset in subsets(arity):  # lazily: the first subset without a witness ends the check
        found = next((i for i in sys.identities if _witness_for(i, symbol, subset)), None)
        if found is None:
            return HmTermReport(symbol, False, tuple(witnesses), subset)
        witnesses.append((subset, found))
    return HmTermReport(symbol, True, tuple(witnesses), None)


# --- coordinate labelings ----------------------------------------------------


class SLLabeling(Record):
    __slots__ = ("sigma",)

    def __init__(self, sigma: Mapping[str, tuple[int, ...]]) -> None:
        self.sigma = {k: tuple(sorted(v)) for k, v in dict(sigma).items()}  # symbol -> sorted 1-based coordinates

    def describe(self) -> str:
        if not self.sigma:
            return "(empty labeling)"
        parts = [f"{sym}->{{{','.join(map(str, coords))}}}" for sym, coords in sorted(self.sigma.items())]
        return " ".join(parts)


def sigma_varset(t: Term, labeling: SLLabeling) -> frozenset[str]:
    """Variables reachable through labeled coordinates only."""
    return _varset(t, lambda u: [u.args[i - 1] for i in labeling.sigma[u.symbol]])


class SLRefutation(NamedTuple):
    labeling: SLLabeling
    identity: Identity
    lhs_varset: frozenset[str]
    rhs_varset: frozenset[str]


class SLUnsat(NamedTuple):
    refutations: tuple[SLRefutation, ...]  # a cover of one block: one per refuted labeling prefix, in labeling order


def labeling_count(arities: Iterable[int]) -> int:
    """The number of labelings of symbols of these arities."""
    return math.prod(2**n - 1 for n in arities)


def cover_walk(arities: Sequence[int], refute: Callable[[tuple], object]) -> tuple[list, tuple | None]:
    """Walk the labelings of sorted symbols of these positive arities in
    lexicographic order, by prefixes (tuples of coordinate sets) from ().
    An entry from `refute(prefix)` refutes all labelings extending it: the
    walk steps the last set to the next (`next_subset`), or after the last
    drops it and steps the one before.  None extends the prefix by (1,).
    Returns the entries, a cover in order of the labelings before the first
    full prefix `refute` passes, and that labeling, None if there is none."""
    prefix, entries = (), []
    while (entry := refute(prefix)) is not None or len(prefix) < len(arities):
        if entry is None:
            prefix += ((1,),)
            continue
        entries.append(entry)
        while prefix and (last := next_subset(prefix[-1], arities[len(prefix) - 1])) is None:
            prefix = prefix[:-1]
        if not prefix:
            return entries, None
        prefix = prefix[:-1] + (last,)
    return entries, prefix


def replay_cover(declarations: Mapping[str, int], entries: Sequence, valid: Callable[[Identity], bool]) -> bool:
    """Replay a cover of SLRefutation entries by `cover_walk` over the sorted
    symbols they label; covering their labelings refutes every labeling by
    restriction, and a symbol of arity 0 leaves none to refute, so only ()
    replays.  Each entry's SLLabeling must be the prefix reached, its
    identity an Identity that `valid` accepts and that uses labeled symbols
    only, and its labeled variable sets must differ and equal `lhs_varset`
    and `rhs_varset`.  The walk must take every entry and end the order.
    Anything malformed returns False rather than raising.

    `valid` is called, and the symbols collected, once per identity object,
    by object identity within this call; the labeled variable sets are
    computed for each entry, under that entry's labeling."""
    labelings = [e.labeling if isinstance(e, SLRefutation) else None for e in entries]
    if not all(isinstance(l, SLLabeling) and l.sigma.keys() <= declarations.keys() for l in labelings):
        return False
    if not all(declarations.values()):
        return not entries
    symbols, todo = sorted(set().union(*(l.sigma for l in labelings))), list(entries)[::-1]  # the next entry last
    used: dict[int, tuple[object, set[str] | None]] = {}  # id(identity) -> (identity, its symbols, None if invalid); held

    def refute(prefix: tuple):
        e = todo[-1] if todo else None
        if e is None or e.labeling.sigma != dict(zip(symbols, prefix)):
            return None  # past the first fault the walk only extends, to a survivor
        identity = e.identity
        if id(identity) not in used:
            ok = isinstance(identity, Identity) and valid(identity)
            used[id(identity)] = identity, term_symbols(identity.lhs) | term_symbols(identity.rhs) if ok else None
        named = used[id(identity)][1]
        if named is None or not named <= e.labeling.sigma.keys():
            return None
        lhs, rhs = sigma_varset(identity.lhs, e.labeling), sigma_varset(identity.rhs, e.labeling)
        return todo.pop() if lhs != rhs and (lhs, rhs) == (e.lhs_varset, e.rhs_varset) else None

    return cover_walk([declarations[sym] for sym in symbols], refute)[1] is None and not todo


def sl_interp_search(sys: TermSystem) -> SLLabeling | SLUnsat:
    """First labeling (lexicographic) satisfying every identity, else UNSAT
    with a cover, by refuted prefixes, of one block's labelings.

    A labeling assigns each symbol a non-empty coordinate subset; an
    identity holds when both sides reach the same variables through
    labeled coordinates.  This semantics is exact for semilattice
    interpretations, where a term is determined by its variable set.

    Blocks, the connected components of "two symbols occur in one
    identity", run after the identities with no symbol, in the order of
    their first sorted symbols.  The labelings are the product of theirs,
    so the first survivor joins each block's first, and the first block
    with none is refuted alone.  A block's `cover_walk` over its sorted
    symbols decides at a k-prefix the identities whose last symbol is the
    k-th; the first of them that fails, in system order, refutes it.
    """
    symbols = sorted(sys.declarations)
    if not all(sys.declarations.values()):  # a symbol with no coordinate set: no labeling
        return SLUnsat(())
    uses = [sorted(term_symbols(i.lhs) | term_symbols(i.rhs)) for i in sys.identities]
    index = {sym: k for k, sym in enumerate(symbols)}
    edges = Relation(2, frozenset((index[used[0]], index[sym]) for used in uses for sym in used))
    blocks = [()] + [[symbols[k] for k in b] for b in connected_components(RelationalStructure(len(symbols), {"": edges}))]
    where = {sym: (b, depth) for b, block in enumerate(blocks) for depth, sym in enumerate(block, start=1)}
    due: dict[tuple[int, int], list[Identity]] = {}  # (block, k): the identities a k-prefix of the block decides
    for identity, used in zip(sys.identities, uses):
        due.setdefault(where[used[-1]] if used else (0, 0), []).append(identity)
    sigma = {}
    for b, block in enumerate(blocks):

        def refute(prefix: tuple) -> SLRefutation | None:
            labeling = SLLabeling(dict(zip(block, prefix)))
            for identity in due.get((b, len(prefix)), ()):
                lhs, rhs = sigma_varset(identity.lhs, labeling), sigma_varset(identity.rhs, labeling)
                if lhs != rhs:
                    return SLRefutation(labeling, identity, lhs, rhs)
            return None

        entries, survivor = cover_walk([sys.declarations[sym] for sym in block], refute)
        if survivor is None:
            return SLUnsat(tuple(entries))
        sigma.update(zip(block, survivor))
    return SLLabeling(sigma)


# --- evaluation bridge -------------------------------------------------------


def holds_in(algebra, identity: Identity, interp: Mapping[str, "object"]) -> bool:
    """True iff both sides agree under every assignment of algebra elements.

    `algebra` only needs a .size attribute; `interp` maps each symbol to an
    operation table of matching arity.  Each side is evaluated once, column
    by column over all assignments: an application's column is its table
    applied, with `apply`'s checks, row by row to its children's columns.
    """
    names = sorted(term_variables(identity.lhs) | term_variables(identity.rhs))
    assignments = list(itertools.product(range(algebra.size), repeat=len(names)))
    columns = {name: [values[i] for values in assignments] for i, name in enumerate(names)}

    def apply(u: Application, args: list) -> list[int]:
        table = interp[u.symbol]
        return list(map(table.apply, *args)) if args else [table.apply()] * len(assignments)

    lhs, rhs = (_fold(t, lambda v: columns[v.name], apply) for t in (identity.lhs, identity.rhs))
    return lhs == rhs
