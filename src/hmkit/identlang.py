"""A small equational language: terms, identities, and two syntactic tests.

The text format is line oriented:

    ops: f/2, g/1        # declarations, required first
    idempotent: f        # optional
    f(x,y) = f(y,x)      # one identity per line, '#' starts a comment

Undeclared identifiers are variables.  The two analyses differ in scope:
the coordinate-labeling search treats arbitrary terms, while saturation
and the subset-condition check live in the fragment of linear identities
with at most two variables, where saturation is an equivalence closure
computed by union-find.  Terms may nest arbitrarily deep: the parser and
`_fold`, the walker over arbitrary terms, keep explicit stacks; `_fold`
keeps a frame (application, iterator over its children, their values) per
open application, so it visits each node once and the leaves left to right.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Iterator, Mapping, NamedTuple


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SystemError_(ValueError):
    """An identity system violates a structural precondition."""


class Variable:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


class Application:
    __slots__ = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple) -> None:
        self.symbol, self.args = symbol, tuple(args)

    # in Python, not C: a term too deep to compare or hash raises RecursionError
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.symbol, self.args) == (other.symbol, other.args)

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


class TermSystem:
    __slots__ = ("declarations", "identities", "idempotent")

    def __init__(
        self, declarations: Mapping[str, int], identities: tuple[Identity, ...], idempotent: frozenset[str] = frozenset()
    ) -> None:
        self.declarations, self.identities = dict(declarations), tuple(identities)
        self.idempotent = frozenset(idempotent)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.declarations, self.identities, self.idempotent) == (
            other.declarations, other.identities, other.idempotent
        )


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _LineParser:
    def __init__(self, text: str, lineno: int, declarations: Mapping[str, int]) -> None:
        self.text = text
        self.lineno = lineno
        self.pos = 0
        self.declarations = declarations

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.lineno, self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise self.error("expected an identifier")
        self.pos = m.end()
        return m.group()

    def term(self) -> Term:
        open_apps: list[tuple[str, int, list[Term]]] = []  # symbol, column, args so far
        while True:
            start_col = self.pos + 1
            name = self.ident()
            if self.peek() == "(":
                if name not in self.declarations:
                    raise ParseError(f"undeclared symbol '{name}'", self.lineno, start_col)
                self.pos += 1
                open_apps.append((name, start_col, []))
                continue
            if name in self.declarations:
                raise ParseError(
                    f"declared symbol '{name}' used without arguments", self.lineno, start_col
                )
            done: Term = Variable(name)
            # a finished argument either precedes a ',' or closes its application
            while open_apps:
                open_apps[-1][2].append(done)
                if self.peek() == ",":
                    self.pos += 1
                    break
                self.expect(")")
                name, start_col, args = open_apps.pop()
                want = self.declarations[name]
                if len(args) != want:
                    raise ParseError(
                        f"symbol '{name}' declared with arity {want}, applied to {len(args)} arguments",
                        self.lineno,
                        start_col,
                    )
                done = Application(name, tuple(args))
            else:
                return done

    def identity(self) -> Identity:
        lhs = self.term()
        self.expect("=")
        rhs = self.term()
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error("trailing input after identity")
        return Identity(lhs, rhs)


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
        identities.append(_LineParser(line, lineno, declarations).identity())
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
    return _fold(t, lambda v: frozenset({v.name}), lambda u, sets: frozenset().union(*sets), children)


def term_variables(t: Term) -> frozenset[str]:
    return _varset(t, lambda u: u.args)


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


def _rename(t: Term, table: Mapping[str, str]) -> Term:
    return _fold(t, lambda v: Variable(table.get(v.name, v.name)), lambda u, args: Application(u.symbol, args))


def _normalize(i: Identity) -> Identity:
    """Rename variables to x, y by first occurrence (left to right, lhs first)."""
    order: dict[str, None] = {}  # `_fold` visits the leaves from left to right
    for side in (i.lhs, i.rhs):
        _fold(side, lambda v: order.setdefault(v.name), lambda u, values: None)
    table = dict(zip(order, ("x", "y")))
    return Identity(_rename(i.lhs, table), _rename(i.rhs, table))


# the substitutions of {x, y} into itself: identity, swap, and the two identifications
_SUBSTITUTIONS = ({}, {"x": "y", "y": "x"}, {"y": "x"}, {"x": "y"})


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
    """
    for i in sys.identities:
        if not is_linear(i):
            raise SystemError_(f"non-linear identity: {i}")
        if len(term_variables(i.lhs) | term_variables(i.rhs)) > 2:
            raise SystemError_(f"identity in more than 2 variables: {i}")

    seeds = [_normalize(i) for i in sys.identities]
    for name in sorted(sys.idempotent):
        seeds.append(Identity(Application(name, (_X,) * sys.declarations[name]), _X))

    # union-find over the terms' texts, each computed once: str is injective
    # on terms with identifier names, and texts hash and compare cheaply
    terms: dict[str, Term] = {}
    parent: dict[str, str] = {}

    def node(t: Term) -> str:
        key = str(t)
        terms.setdefault(key, t)
        parent.setdefault(key, key)
        return key

    def find(key: str) -> str:
        while parent[key] != key:
            parent[key] = parent[parent[key]]  # path halving
            key = parent[key]
        return key

    for seed in seeds:
        for table in _SUBSTITUTIONS:
            parent[find(node(_rename(seed.lhs, table)))] = find(node(_rename(seed.rhs, table)))

    classes: dict[str, list[str]] = {}
    for key in parent:
        classes.setdefault(find(key), []).append(key)
    # sorted by the identities' texts, f"{s} = {t}", which are distinct
    pairs = sorted((f"{s} = {t}", s, t) for members in classes.values() for s in members for t in members)
    return [(text, terms[s], terms[t]) for text, s, t in pairs]


# --- the subset-condition test ----------------------------------------------


def nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    """Non-empty subsets of {1..n} as sorted tuples, in lexicographic order."""
    return sorted(c for r in range(1, n + 1) for c in itertools.combinations(range(1, n + 1), r))


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
    idem = Identity(Application(symbol, (_X,) * arity), _X)
    if symbol not in sys.idempotent and idem not in set(sys.identities):
        raise SystemError_(f"symbol '{symbol}' is not known to be idempotent")

    witnesses = []
    for subset in nonempty_subsets(arity):
        found = next((i for i in sys.identities if _witness_for(i, symbol, subset)), None)
        if found is None:
            return HmTermReport(symbol, False, tuple(witnesses), subset)
        witnesses.append((subset, found))
    return HmTermReport(symbol, True, tuple(witnesses), None)


# --- coordinate labelings ----------------------------------------------------


class SLLabeling:
    __slots__ = ("sigma",)

    def __init__(self, sigma: Mapping[str, tuple[int, ...]]) -> None:
        self.sigma = {k: tuple(sorted(v)) for k, v in dict(sigma).items()}  # symbol -> sorted 1-based coordinates

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sigma == other.sigma

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
    refutations: tuple[SLRefutation, ...]


def all_labelings(declarations: Mapping[str, int]) -> Iterator[SLLabeling]:
    """Every labeling, lazily, in lexicographic order of the sorted symbols' subsets."""
    symbols = sorted(declarations)
    combos = itertools.product(*(nonempty_subsets(declarations[s]) for s in symbols))
    return (SLLabeling(dict(zip(symbols, combo))) for combo in combos)


def check_labeling(sys: TermSystem, labeling: SLLabeling) -> SLRefutation | None:
    """The first identity violated under the labeling, or None if all hold."""
    for identity in sys.identities:
        l = sigma_varset(identity.lhs, labeling)
        r = sigma_varset(identity.rhs, labeling)
        if l != r:
            return SLRefutation(labeling, identity, l, r)
    return None


def sl_interp_search(sys: TermSystem) -> SLLabeling | SLUnsat:
    """First labeling (lexicographic) satisfying every identity, else UNSAT.

    A labeling assigns each symbol a non-empty coordinate subset; an
    identity holds when both sides reach the same variables through
    labeled coordinates.  This semantics is exact for semilattice
    interpretations, where a term is determined by its variable set.
    """
    refutations = []
    for labeling in all_labelings(sys.declarations):
        refutation = check_labeling(sys, labeling)
        if refutation is None:
            return labeling
        refutations.append(refutation)
    return SLUnsat(tuple(refutations))


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
