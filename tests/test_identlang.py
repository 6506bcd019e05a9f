import itertools
import random
import re
import sys
import tracemalloc
from collections import Counter
from typing import Callable, Iterator, Mapping, Sequence

import pytest

from hmkit.freecons import FiniteAlgebra
from hmkit.homsearch import OperationTable
from hmkit.identlang import (
    Application,
    HmTermReport,
    Identity,
    ParseError,
    SLLabeling,
    SLRefutation,
    SLUnsat,
    SystemError_,
    Variable,
    format_system,
    hm_term_check,
    holds_in,
    is_linear,
    labeling_count,
    linear_fragment,
    next_subset,
    parse,
    replay_cover,
    saturate,
    sigma_varset,
    sl_interp_search,
    subsets,
    term_variables,
    _witness_for,
)
from hmkit.identlang import _IDENT, Term, TermSystem
from hmkit.structures import StructureError

from conftest import (
    MAJORITY_SYSTEM,
    MALTSEV_SYSTEM,
    SEMILATTICE_SYSTEM,
    all_labelings,
    coordinate_sets,
    expand_cover,
    hm_pass_forces_unsat,
    labeled_variables,
)

_X = Variable("x")


def fold_reference(t: Term, leaf: Callable, node: Callable, children: Callable = lambda t: t.args):
    """The term walker `_fold` replaced, kept verbatim apart from its name as an oracle."""
    values: list = []
    stack: list = [(t, None)]  # (term, None) to expand; (application, children) to combine
    while stack:
        u, kids = stack.pop()
        if isinstance(u, Variable):
            values.append(leaf(u))
        elif kids is None:
            kids = children(u)
            stack.append((u, kids))
            stack.extend((k, None) for k in reversed(kids))
        else:
            start = len(values) - len(kids)
            values[start:] = [node(u, values[start:])]
    return values[0]


def evaluate(t: Term, env: Mapping[str, int], interp: Mapping[str, "object"]) -> int:
    return fold_reference(t, lambda v: env[v.name], lambda u, values: interp[u.symbol].apply(*values))


def reference_rename(t: Term, table: Mapping[str, str]) -> Term:
    """t with each variable named in `table` renamed, by the oracle walker."""
    return fold_reference(t, lambda v: Variable(table.get(v.name, v.name)), lambda u, args: Application(u.symbol, args))


def reference_normalize(i: Identity) -> Identity:
    """i with its variables renamed x, y by first occurrence, lhs first."""
    order: dict[str, None] = {}
    for side in (i.lhs, i.rhs):
        fold_reference(side, lambda v: order.setdefault(v.name), lambda u, values: None)
    table = dict(zip(order, ("x", "y")))
    return Identity(reference_rename(i.lhs, table), reference_rename(i.rhs, table))


def holds_in_reference(algebra, identity: Identity, interp: Mapping[str, "object"]) -> bool:
    """The per-assignment `holds_in` that column-wise evaluation replaced, kept as an oracle."""
    names = sorted(term_variables(identity.lhs) | term_variables(identity.rhs))
    for values in itertools.product(range(algebra.size), repeat=len(names)):
        env = dict(zip(names, values))
        if evaluate(identity.lhs, env, interp) != evaluate(identity.rhs, env, interp):
            return False
    return True


def saturate_reference(sys: TermSystem) -> TermSystem:
    """The rule loop that `saturate` replaced, kept as an oracle: rounds of
    symmetry, swap, identification, transitivity and pairing until no
    identity is new.  Semi-naive: a round derives only from the identities
    new in the round before, each joined with every identity known so far.
    An identity is a pair of term numbers, so sets hash two ints, and a term
    is numbered by its side as plain data, (symbol, argument names) with
    symbol None for a variable, since each is linear: dict probes compare
    tuples of strings, and the result's terms are built once at the end."""
    for i in sys.identities:
        if not is_linear(i):
            raise SystemError_(f"non-linear identity: {i}")
        if len(term_variables(i.lhs) | term_variables(i.rhs)) > 2:
            raise SystemError_(f"identity in more than 2 variables: {i}")

    number: dict[tuple, int] = {}
    terms: list[tuple] = []

    def numbered(side: tuple) -> int:
        if side not in number:
            number[side] = len(terms)
            terms.append(side)
        return number[side]

    def side_of(t: Term) -> tuple:
        return (None, (t.name,)) if isinstance(t, Variable) else (t.symbol, tuple(a.name for a in t.args))

    def renamed_side(side: tuple, table: dict) -> tuple:
        return side[0], tuple(table.get(n, n) for n in side[1])

    def normal_pair(lhs: tuple, rhs: tuple) -> tuple[int, int]:  # renamed x, y by first occurrence, lhs first
        table = dict(zip(dict.fromkeys(lhs[1] + rhs[1]), ("x", "y")))
        return numbered(renamed_side(lhs, table)), numbered(renamed_side(rhs, table))

    def renamed(k: int, table: dict, memo: dict) -> int:
        if k not in memo:
            memo[k] = numbered(renamed_side(terms[k], table))
        return memo[k]

    def text(side: tuple) -> str:
        return side[1][0] if side[0] is None else f"{side[0]}({','.join(side[1])})"

    def term(side: tuple) -> Term:
        return Variable(side[1][0]) if side[0] is None else Application(side[0], tuple(map(Variable, side[1])))

    new = {normal_pair(side_of(i.lhs), side_of(i.rhs)) for i in sys.identities}
    for name in sorted(sys.idempotent):
        arity = sys.declarations[name]
        new.add((numbered((name, ("x",) * arity)), numbered((None, ("x",)))))

    swap, swapped = {"x": "y", "y": "x"}, {}
    collapse, collapsed = {"y": "x"}, {}
    normalized: dict = {}  # identified pair -> its normal form
    current: set[tuple[int, int]] = set()
    by_lhs: dict = {}  # lhs -> the rhs of every known identity
    by_rhs: dict = {}  # rhs -> the lhs of every known identity
    by_var_rhs: dict = {}  # variable -> the lhs of every known identity with that rhs
    while new:
        current |= new
        for a, b in new:  # indexed first, so two new identities join too
            by_lhs.setdefault(a, []).append(b)
            by_rhs.setdefault(b, []).append(a)
            if terms[b][0] is None:
                by_var_rhs.setdefault(b, []).append(a)
        derived: set[tuple[int, int]] = set()
        for a, b in new:
            derived.add((renamed(a, swap, swapped), renamed(b, swap, swapped)))
            derived.add((b, a))
            c, d = renamed(a, collapse, collapsed), renamed(b, collapse, collapsed)
            if (c, d) not in normalized:
                normalized[c, d] = normal_pair(terms[c], terms[d])
            derived.add(normalized[c, d])
            derived.update((a, r) for r in by_lhs.get(b, ()))  # transitivity, (a, b) first
            derived.update((l, b) for l in by_rhs.get(a, ()))  # transitivity, (a, b) second
            for s in by_var_rhs.get(b, ()):  # pairing through a common variable
                derived.add((a, s))
                derived.add((s, a))
        new = derived - current

    texts, built = [text(side) for side in terms], [term(side) for side in terms]
    ordered = sorted(current, key=lambda ab: f"{texts[ab[0]]} = {texts[ab[1]]}")
    return TermSystem(sys.declarations, tuple(Identity(built[a], built[b]) for a, b in ordered), sys.idempotent)


def random_linear_system(
    rng: random.Random, symbols: Sequence[str] = ("f", "g", "h"), pairs: Sequence[Sequence[str]] = ("xy", "yx", "ab", "uv")
) -> TermSystem:
    """1-3 of the symbols, of arity 1-4, and 0-5 linear identities in one of the variable pairs."""
    declarations = {name: rng.randint(1, 4) for name in symbols[: rng.randint(1, 3)]}
    names = rng.choice(pairs)

    def side() -> object:
        if rng.random() < 0.25:
            return Variable(rng.choice(names))
        symbol = rng.choice(sorted(declarations))
        return Application(symbol, tuple(Variable(rng.choice(names)) for _ in range(declarations[symbol])))

    identities = [Identity(side(), side()) for _ in range(rng.randint(0, 5))]
    idempotent = {s for s in declarations if rng.random() < 0.5}
    return TermSystem(declarations, identities, idempotent)


def test_parse_majority():
    sys_ = parse(MAJORITY_SYSTEM)
    assert sys_.declarations == {"m": 3}
    assert len(sys_.identities) == 4
    assert str(sys_.identities[1]) == "m(x,x,y) = x"
    assert sys_.idempotent == frozenset()


def test_parse_idempotent_and_comments():
    sys_ = parse("# header\nops: f/2, g/1\nidempotent: f\nf(x,y) = g(x)  # tail\n")
    assert sys_.declarations == {"f": 2, "g": 1}
    assert sys_.idempotent == frozenset({"f"})
    assert len(sys_.identities) == 1
    # empty entries in an idempotent header are skipped
    assert parse("ops: f/2, g/1\nidempotent: f, ,g,\n").idempotent == frozenset({"f", "g"})


def test_format_round_trip():
    sys_ = parse(SEMILATTICE_SYSTEM)
    again = parse(format_system(sys_))
    assert again == sys_


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="ops:"):
        parse("f(x,y) = x\n")
    with pytest.raises(ParseError, match="line 2"):
        parse("ops: f/2\nf(x) = x\n")
    with pytest.raises(ParseError, match="undeclared"):
        parse("ops: f/2\ng(x,y) = x\n")
    with pytest.raises(ParseError):
        parse("ops: f/2\nf(x,y) = x extra\n")
    with pytest.raises(ParseError):
        parse("ops: f/0\n")
    with pytest.raises(ParseError):
        parse("ops: f/2, f/3\n")


def test_declared_symbol_needs_arguments():
    with pytest.raises(ParseError):
        parse("ops: f/2\nf = x\n")


class _LineParser:
    """The character scanner `_identity` replaced, kept verbatim as an oracle
    apart from one rule: a symbol error takes its column after the blanks
    that precede the name."""

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
            self.skip_ws()
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


def parse_reference(text: str) -> TermSystem:
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


# characters and tokens a malformed line is made of
SOUP = ["x", "y", "f", "g", "h", "u", "x1", "_z", "1", "9", "(", ")", ",", "=", " ", "\t", "\x0b", "#", "*"]


def random_side(rng: random.Random, arities: Mapping[str, int], depth: int) -> str:
    """A term as text, with blanks around the arguments, and sometimes an
    undeclared symbol, a wrong argument count or a nest past depth 50."""
    if depth == 0 or rng.random() < 0.3:
        return "f" if rng.random() < 0.02 else rng.choice(("x", "y", "zz"))  # f is a symbol when declared
    symbol = rng.choice(sorted(arities)) if rng.random() < 0.99 else "u"
    n = arities.get(symbol, 2) + (rng.random() < 0.02) * rng.choice((-1, 1))
    if rng.random() < 0.05:  # a left-nested chain
        text = "x"
        for _ in range(rng.randint(51, 80)):
            text = f"{symbol}({text}{',y' * (n - 1)})"
        return text
    blank = lambda: rng.choice(("", "", " ", "\t"))  # noqa: E731
    args = (blank() + random_side(rng, arities, depth - 1) + blank() for _ in range(n))
    return symbol + blank() + "(" + ",".join(args) + ")"


def random_system_text(rng: random.Random) -> str:
    arities = {s: rng.randint(1, 3) for s in rng.sample("fgh", rng.randint(1, 3))}
    lines = ["ops: " + ", ".join(f"{s}/{n}" for s, n in arities.items())]
    if rng.random() < 0.2:
        lines.append("idempotent: " + rng.choice(sorted(arities)))
    for _ in range(rng.randint(1, 4)):
        lines.append(random_side(rng, arities, 3) + rng.choice((" = ", "=", "\t=  ")) + random_side(rng, arities, 3))
    k = rng.randrange(len(lines))  # a malformed line: token soup, or up to three edits
    if rng.random() < 0.1:
        lines[k] = "".join(rng.choice(SOUP) for _ in range(rng.randint(0, 12)))
    for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):  # insert, delete or replace at a random place
        at = rng.randrange(len(lines[k]) + 1)
        lines[k] = lines[k][:at] + rng.choice(("", rng.choice(SOUP))) + lines[k][at + rng.randint(0, 1):]
    return "\n".join(lines) + "\n"


def test_parse_matches_parse_reference():
    """The token pass gives the scanner's systems, and its messages."""

    def outcome(parser: Callable, text: str):
        try:
            return format_system(parser(text))  # as text: term equality recurses on deep terms
        except ParseError as exc:
            return str(exc)

    rng = random.Random(43)
    kinds = Counter()  # the outcomes without names, numbers and positions
    for _ in range(3000):
        text = random_system_text(rng)
        got = outcome(parse, text)
        assert got == outcome(parse_reference, text), text
        kinds[re.sub(r"^line \d+, col \d+: |'\w*'|\d+", "", got) if got.startswith("line ") else "parsed"] += 1
    assert kinds["parsed"] > 500, kinds
    assert {
        "expected an identifier",
        "undeclared symbol ",
        "declared symbol  used without arguments",
        "symbol  declared with arity , applied to  arguments",
        "expected ')'",
        "expected '='",
        "trailing input after identity",
    } <= kinds.keys(), kinds


def test_term_variables_and_linear():
    sys_ = parse(SEMILATTICE_SYSTEM)
    comm, assoc = sys_.identities
    assert term_variables(comm.lhs) == {"x", "y"}
    assert is_linear(comm)
    assert not is_linear(assoc)


def test_linear_fragment_drops_nested_terms():
    sys_ = parse(SEMILATTICE_SYSTEM)
    frag = linear_fragment(sys_)
    assert [str(i) for i in frag.identities] == ["f(x,y) = f(y,x)"]
    assert frag.declarations == sys_.declarations


def test_saturate_is_a_closure():
    """Applying every derivation rule to the saturated set adds nothing."""
    sys_ = parse(SEMILATTICE_SYSTEM)
    sat = saturate(linear_fragment(sys_))
    idents = set(sat.identities)
    strs = {str(i) for i in idents}
    assert "f(x,x) = x" in strs  # seeded from the idempotent declaration
    assert "f(x,y) = f(y,x)" in strs
    # symmetry closure, modulo variable renormalization
    for i in idents:
        assert reference_normalize(Identity(i.rhs, i.lhs)) in idents
    # transitivity closure
    by_lhs = {}
    for i in idents:
        by_lhs.setdefault(i.lhs, []).append(i.rhs)
    for i in idents:
        for r in by_lhs.get(i.rhs, []):
            assert Identity(i.lhs, r) in idents


def test_saturate_derives_pairings():
    # two identities with the same variable right side pair up
    text = "ops: f/2, g/2\nf(x,y) = x\ng(y,x) = x\n"
    sat = saturate(parse(text))
    strs = {str(i) for i in sat.identities}
    assert "f(x,y) = g(y,x)" in strs


# symbols named x, y or holding them, over variables named otherwise:
# renaming to x, y touches argument names only
RENAMING_SYSTEMS = (
    "ops: xy/2, y/3\nidempotent: y\nxy(u,x1) = xy(x1,u)\ny(yy,u,yy) = u\nxy(x1,x1) = x1\ny(u,x1,x1) = xy(x1,u)\n",
    "ops: x/1, xy/2\nidempotent: xy\nx(yy) = xy(yy,u)\nxy(u,yy) = yy\nx(x1) = x1\n",
)


def rule_loop_systems() -> list[TermSystem]:
    """The systems on which saturation is checked against the rule loop."""
    rng = random.Random(8)
    systems = [random_linear_system(rng) for _ in range(2000)]
    systems += [parse(MAJORITY_SYSTEM), parse(MALTSEV_SYSTEM), linear_fragment(parse(SEMILATTICE_SYSTEM))]
    systems += map(parse, RENAMING_SYSTEMS)
    systems += (random_linear_system(rng, ("xy", "y", "x"), (("u", "x1"), ("yy", "u"), ("x1", "yy"))) for _ in range(200))
    return systems


def test_saturate_matches_the_rule_loop():
    for sys_ in rule_loop_systems():
        assert saturate(sys_) == saturate_reference(sys_), format_system(sys_)


def hm_term_check_reference(sys: TermSystem, symbol: str) -> HmTermReport:
    """`hm_term_check` as it was when it hashed the whole system to test
    idempotence, kept verbatim as an oracle apart from its name and its
    own list of coordinate subsets."""
    if symbol not in sys.declarations:
        raise SystemError_(f"symbol '{symbol}' is not declared")
    arity = sys.declarations[symbol]
    idem = Identity(Application(symbol, (_X,) * arity), _X)
    if symbol not in sys.idempotent and idem not in set(sys.identities):
        raise SystemError_(f"symbol '{symbol}' is not known to be idempotent")

    witnesses = []
    for subset in coordinate_sets(arity):
        found = next((i for i in sys.identities if _witness_for(i, symbol, subset)), None)
        if found is None:
            return HmTermReport(symbol, False, tuple(witnesses), subset)
        witnesses.append((subset, found))
    return HmTermReport(symbol, True, tuple(witnesses), None)


def test_hm_term_check_matches_the_reference():
    """On the saturation of every rule-loop system, for every declared
    symbol: the same report, or the same refusal."""
    kinds = Counter()
    for sys_ in rule_loop_systems():
        sat = saturate(sys_)
        for symbol in sorted(sat.declarations):
            try:
                want = hm_term_check_reference(sat, symbol)
            except SystemError_ as e:
                with pytest.raises(SystemError_) as got:
                    hm_term_check(sat, symbol)
                assert str(got.value) == str(e)
                kinds["refused"] += 1
                continue
            assert hm_term_check(sat, symbol) == want, format_system(sys_)
            kinds["passed" if want.passed else "failed"] += 1
            kinds["idempotent by derivation"] += symbol not in sat.idempotent
    assert min(kinds.values()) > 100, kinds


def test_hm_term_check_takes_deep_identities():
    # the idempotence test compares identities rather than hashing them,
    # and no test of a coordinate subset walks below the top application
    x, y = Variable("x"), Variable("y")
    deep = chain(200_000, "f")
    swap = Identity(Application("f", (x, y)), Application("f", (y, x)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        unsaturated = TermSystem({"f": 2}, (Identity(deep, x), Identity(x, deep), swap))
        with pytest.raises(SystemError_, match="symbol 'f' is not known to be idempotent"):
            hm_term_check(unsaturated, "f")
        idempotent = TermSystem({"f": 2}, unsaturated.identities + (Identity(Application("f", (x, x)), x),))
        report = hm_term_check(idempotent, "f")
    finally:
        sys.setrecursionlimit(limit)
    assert not report.passed and report.witnesses == (((1,), swap),) and report.missing == (1, 2)


def test_saturate_rejects_nonlinear_and_three_variables():
    with pytest.raises(SystemError_):
        saturate(parse(SEMILATTICE_SYSTEM))  # associativity is nested
    with pytest.raises(SystemError_):
        saturate(parse("ops: f/3\nf(x,y,z) = x\n"))


def test_subsets_match_sorted_combinations():
    for n in range(11):
        want = sorted(c for r in range(1, n + 1) for c in itertools.combinations(range(1, n + 1), r))
        assert list(subsets(n)) == want


def test_subsets_order():
    assert list(subsets(0)) == []
    assert list(subsets(2)) == [(1,), (1, 2), (2,)]
    assert list(subsets(3)) == [
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (2,),
        (2, 3),
        (3,),
    ]
    # each step of the walk, and None after the last
    assert [next_subset(s, 3) for s in subsets(3)] == list(subsets(3))[1:] + [None]


def test_hm_term_check_majority():
    sat = saturate(parse(MAJORITY_SYSTEM))
    report = hm_term_check(sat, "m")
    assert report.passed and report.missing is None
    assert len(report.witnesses) == 7
    subsets = [s for s, _ in report.witnesses]
    assert subsets == coordinate_sets(3)


def test_hm_term_check_maltsev():
    sat = saturate(parse(MALTSEV_SYSTEM))
    report = hm_term_check(sat, "p")
    assert report.passed


def test_hm_term_check_semilattice_fails():
    sat = saturate(linear_fragment(parse(SEMILATTICE_SYSTEM)))
    report = hm_term_check(sat, "f")
    assert not report.passed
    assert report.missing == (1, 2)


def test_hm_term_check_requires_idempotent_symbol():
    with pytest.raises(SystemError_, match="idempotent"):
        hm_term_check(parse("ops: f/2\nf(x,y) = f(y,x)\n"), "f")
    with pytest.raises(SystemError_):
        hm_term_check(parse(MAJORITY_SYSTEM), "zzz")


def test_sigma_varset():
    t = Application("f", (Variable("x"), Application("f", (Variable("y"), Variable("x")))))
    assert sigma_varset(t, SLLabeling({"f": (1,)})) == {"x"}
    # the chosen coordinate applies at every nesting level: arg 2 of arg 2
    assert sigma_varset(t, SLLabeling({"f": (2,)})) == {"x"}
    assert sigma_varset(t, SLLabeling({"f": (1, 2)})) == {"x", "y"}
    inner = Application("f", (Variable("y"), Variable("z")))
    assert sigma_varset(Application("f", (Variable("x"), inner)), SLLabeling({"f": (2,)})) == {"z"}


def test_all_labelings():
    labelings = list(all_labelings({"m": 3}))
    assert len(labelings) == 7
    assert labelings[0].sigma == {"m": (1,)}
    assert [l.sigma["m"] for l in labelings] == list(subsets(3))
    assert list(all_labelings({})) == [SLLabeling({})]


def check_labeling(sys: TermSystem, labeling: SLLabeling) -> SLRefutation | None:
    """The first identity violated under the labeling, or None if all hold."""
    for identity in sys.identities:
        l = labeled_variables(identity.lhs, labeling)
        r = labeled_variables(identity.rhs, labeling)
        if l != r:
            return SLRefutation(labeling, identity, l, r)
    return None


# Oracle for the labeling search: the search as it was before it pruned
# refuted prefixes, one labeling at a time with one refutation each.
def sl_interp_reference(sys: TermSystem) -> SLLabeling | SLUnsat:
    refutations = []
    for labeling in all_labelings(sys.declarations):
        refutation = check_labeling(sys, labeling)
        if refutation is None:
            return labeling
        refutations.append(refutation)
    return SLUnsat(tuple(refutations))


def random_labeling_system(rng: random.Random) -> TermSystem:
    """1-4 symbols of arity 1-3 and 0-4 identities between terms of depth
    at most 2 in x and y, some of them with no symbol."""
    declarations = {name: rng.randint(1, 3) for name in "fghk"[: rng.randint(1, 4)]}

    def term(depth: int) -> Term:
        if depth == 0 or rng.random() < 0.3:
            return Variable(rng.choice("xy"))
        symbol = rng.choice(sorted(declarations))
        return Application(symbol, tuple(term(depth - 1) for _ in range(declarations[symbol])))

    return TermSystem(declarations, [Identity(term(rng.randint(1, 2)), term(rng.randint(0, 1))) for _ in range(rng.randint(0, 4))])


def used_symbols(identity: Identity) -> set[str]:
    """The symbols an identity applies, by a walk with an explicit stack."""
    found, stack = set(), [identity.lhs, identity.rhs]
    while stack:
        u = stack.pop()
        if isinstance(u, Application):
            found.add(u.symbol)
            stack.extend(u.args)
    return found


def symbol_blocks(sys_: TermSystem) -> list[TermSystem]:
    """The system split into independent parts: first the identities with no
    symbol, then one part per connected component of "two symbols occur in
    one identity", with its identities, in the order of its first sorted
    symbol."""
    block = {sym: {sym} for sym in sys_.declarations}
    for identity in sys_.identities:
        merged = set().union(*(block[sym] for sym in used_symbols(identity)))
        block.update(dict.fromkeys(merged, merged))
    parts = [TermSystem({}, [i for i in sys_.identities if not used_symbols(i)])]
    for members in sorted({tuple(sorted(b)) for b in block.values()}):
        identities = [i for i in sys_.identities if used_symbols(i) & set(members)]
        parts.append(TermSystem({sym: sys_.declarations[sym] for sym in members}, identities))
    return parts


def renamed(sys_: TermSystem, names: Mapping[str, str]) -> TermSystem:
    """The system with its symbols renamed."""

    def term(t: Term) -> Term:
        return t if isinstance(t, Variable) else Application(names[t.symbol], tuple(map(term, t.args)))

    declarations = {names[sym]: n for sym, n in sys_.declarations.items()}
    return TermSystem(declarations, [Identity(term(i.lhs), term(i.rhs)) for i in sys_.identities])


def union(first: TermSystem, second: TermSystem) -> TermSystem:
    """The union of two systems over disjoint symbols."""
    return TermSystem(first.declarations | second.declarations, first.identities + second.identities)


def seeded_labeling_systems(rng: random.Random) -> Iterator[tuple[str, TermSystem]]:
    """400 seeded systems, each also with its symbols renamed so that their
    order changes, and 200 unions of two of them whose renamed symbols
    interleave in sort order, each union with at most 10^4 labelings."""
    drawn = []
    for _ in range(400):
        sys_ = random_labeling_system(rng)
        drawn.append(sys_)
        yield "seeded", sys_
        symbols = sorted(sys_.declarations)
        order = symbols[:]
        while len(symbols) > 1 and order == symbols:
            rng.shuffle(order)
        yield "renamed", renamed(sys_, dict(zip(symbols, order)))
    unions = 0
    while unions < 200:
        first, second = rng.sample(drawn, 2)
        if labeling_count(first.declarations.values()) * labeling_count(second.declarations.values()) > 10**4:
            continue
        names = [rng.sample("aceg", len(first.declarations)), rng.sample("bdfh", len(second.declarations))]
        parts = [renamed(sys_, dict(zip(sorted(sys_.declarations), n))) for sys_, n in zip((first, second), names)]
        unions += 1
        yield "union", union(*parts)


def cover_block(sys_: TermSystem, unsat: SLUnsat) -> tuple[int, list[TermSystem]]:
    """The index, among `symbol_blocks(sys_)`, of the part whose symbols the
    cover's entries label, and the parts."""
    parts = symbol_blocks(sys_)
    labeled = set().union(*(r.labeling.sigma for r in unsat.refutations))
    (k,) = [k for k, part in enumerate(parts) if (labeled & part.declarations.keys() if labeled else k == 0)]
    return k, parts


def test_sl_interp_search_matches_the_reference():
    """On seeded systems of 1-4 symbols, on renamings of them and on unions
    of two, the verdict and first survivor are the reference's.  An UNSAT
    cover labels prefixes of one block's sorted symbols, every earlier
    block is satisfiable, and the cover holds each of the block's
    labelings once, in order, refuted by the entry that holds it."""
    kinds = Counter()
    for kind, sys_ in seeded_labeling_systems(random.Random(39)):
        got, want = sl_interp_search(sys_), sl_interp_reference(sys_)
        if isinstance(want, SLLabeling):
            assert isinstance(got, SLLabeling) and got == want
            kinds[kind, "survivor"] += 1
            kinds[kind, "survivor after a refuted labeling"] += want != next(all_labelings(sys_.declarations))
            continue
        assert isinstance(got, SLUnsat)
        k, parts = cover_block(sys_, got)
        assert all(isinstance(sl_interp_reference(part), SLLabeling) for part in parts[:k])
        block = parts[k]
        want = sl_interp_reference(block)
        assert isinstance(want, SLUnsat)
        covered = list(expand_cover(block.declarations, got.refutations))
        assert [labeling for labeling, _ in covered] == [r.labeling for r in want.refutations]
        assert len(covered) == labeling_count(block.declarations.values())
        symbols = sorted(block.declarations)
        for labeling, entry in covered:
            assert list(entry.labeling.sigma) == symbols[: len(entry.labeling.sigma)]
            assert entry.identity in block.identities
            lhs, rhs = labeled_variables(entry.identity.lhs, labeling), labeled_variables(entry.identity.rhs, labeling)
            assert lhs != rhs and (lhs, rhs) == (entry.lhs_varset, entry.rhs_varset)
        kinds[kind, "unsat"] += 1
        kinds[kind, "cover shorter than the labelings"] += len(got.refutations) < labeling_count(sys_.declarations.values())
        kinds[kind, "cover shorter than its block's labelings"] += len(got.refutations) < len(covered)
        kinds[kind, "cover of a later block"] += k > 1
    assert kinds["seeded", "survivor"] > 150 and kinds["seeded", "survivor after a refuted labeling"] > 40
    assert kinds["seeded", "unsat"] > 150 and kinds["seeded", "cover shorter than the labelings"] > 100
    assert kinds["seeded", "cover shorter than its block's labelings"] > 15
    assert kinds["renamed", "survivor"] == kinds["seeded", "survivor"]
    assert kinds["renamed", "cover of a later block"] > 20 and kinds["union", "cover of a later block"] > 20
    assert kinds["union", "survivor after a refuted labeling"] > 10 and kinds["union", "unsat"] > 100


def own_identity(sys_: TermSystem) -> Callable:
    """The `replay_cover` callback of `ident sl-interp`: a refutation's identity if it is one of the system's."""
    return lambda r: r.identity if isinstance(r, SLRefutation) and r.identity in sys_.identities else None


def test_replay_cover_accepts_every_seeded_cover_and_refuses_a_changed_one():
    """Each seeded UNSAT cover replays.  A dropped, swapped or duplicated
    entry, a wrong variable set, an identity outside the system, a labeling
    that names a symbol of another block and an entry that is no record are
    refused, at the first, an inner and the last entry, without raising."""
    kinds = Counter()
    for kind, sys_ in seeded_labeling_systems(random.Random(39)):
        got = sl_interp_search(sys_)
        if not isinstance(got, SLUnsat):
            continue
        entries, replay = got.refutations, own_identity(sys_)
        assert replay_cover(sys_.declarations, entries, replay) is True
        k, parts = cover_block(sys_, got)
        others = sorted(sym for j, part in enumerate(parts) if j != k for sym in part.declarations)
        for at in sorted({0, len(entries) // 2, len(entries) - 1}):
            e = entries[at]
            changed = [
                entries[:at] + entries[at + 1 :],
                entries[:at] + (e,) + entries[at:],
                entries[:at] + (e._replace(lhs_varset=e.rhs_varset, rhs_varset=e.lhs_varset),) + entries[at + 1 :],
                entries[:at] + (tuple(e),) + entries[at + 1 :],
                entries[:at] + (None,) + entries[at + 1 :],
            ]
            if at + 1 < len(entries):
                changed.append(entries[:at] + (entries[at + 1], e) + entries[at + 2 :])
            reversed_ = Identity(e.identity.rhs, e.identity.lhs)
            if reversed_ not in sys_.identities:  # it would refute, with the sets swapped, but is no identity of the system
                outside = e._replace(identity=reversed_, lhs_varset=e.rhs_varset, rhs_varset=e.lhs_varset)
                changed.append(entries[:at] + (outside,) + entries[at + 1 :])
                kinds["outside"] += 1
            if others and e.labeling.sigma:  # the entry's last symbol, which its identity uses, renamed
                sigma = dict(e.labeling.sigma)
                sigma[others[at % len(others)]] = sigma.pop(max(sigma))
                changed.append(entries[:at] + (e._replace(labeling=SLLabeling(sigma)),) + entries[at + 1 :])
                kinds["another block"] += 1
            for cover in changed:
                assert replay_cover(sys_.declarations, cover, replay) is False, (format_system(sys_), cover)
        kinds[kind] += 1
        kinds["several entries"] += len(entries) > 1
    assert kinds["seeded"] > 150 and kinds["union"] > 100 and kinds["several entries"] > 100
    assert kinds["outside"] > 200 and kinds["another block"] > 200


def test_sl_interp_search_edge_signatures():
    # no symbol: one labeling, the empty one
    assert sl_interp_search(parse("ops:\nx = x\n")) == SLLabeling({})
    # an identity with no symbol is checked before any symbol is labeled
    unsat = sl_interp_search(parse("ops: f/2\nf(x,y) = x\nx = y\n"))
    assert [(r.labeling, str(r.identity)) for r in unsat.refutations] == [(SLLabeling({}), "x = y")]
    # a symbol of arity 0 has no coordinate set, so there is no labeling
    nullary = TermSystem({"c": 0, "f": 2}, [Identity(Variable("x"), Variable("y"))])
    assert sl_interp_search(nullary) == sl_interp_reference(nullary) == SLUnsat(())
    assert labeling_count(nullary.declarations.values()) == 0


def test_sl_interp_search_takes_a_wide_symbol_whose_first_labeling_survives():
    # the coordinate sets are drawn one at a time, never all 2^25 - 1 of them
    wide = parse("ops: m/25\nm(" + ",".join("x" * 25) + ") = x\n")
    tracemalloc.start()
    try:
        found = sl_interp_search(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(found, SLLabeling) and found.describe() == "m->{1}"
    assert peak < 5_000_000, peak


def test_sl_interp_search_verdicts():
    assert isinstance(sl_interp_search(parse(MAJORITY_SYSTEM)), SLUnsat)
    unsat = sl_interp_search(parse(MALTSEV_SYSTEM))
    assert isinstance(unsat, SLUnsat)
    assert len(unsat.refutations) == 7

    found = sl_interp_search(parse(SEMILATTICE_SYSTEM))
    assert isinstance(found, SLLabeling)
    assert found.sigma == {"f": (1, 2)}


def test_check_labeling_refutation_content():
    sys_ = parse(MAJORITY_SYSTEM)
    ref = check_labeling(sys_, SLLabeling({"m": (1,)}))
    assert ref is not None
    lhs = sigma_varset(ref.identity.lhs, ref.labeling)
    rhs = sigma_varset(ref.identity.rhs, ref.labeling)
    assert lhs != rhs and (lhs, rhs) == (ref.lhs_varset, ref.rhs_varset)


def test_hm_pass_forces_unsat():
    for text, sym in ((MAJORITY_SYSTEM, "m"), (MALTSEV_SYSTEM, "p")):
        sat = saturate(parse(text))
        report = hm_term_check(sat, sym)
        assert hm_pass_forces_unsat(sat, report)
    sat = saturate(linear_fragment(parse(SEMILATTICE_SYSTEM)))
    with pytest.raises(SystemError_):
        hm_pass_forces_unsat(sat, hm_term_check(sat, "f"))


def test_holds_in_bridge(meet_algebra):
    sys_ = parse(SEMILATTICE_SYSTEM)
    comm, assoc = sys_.identities
    interp = {"f": meet_algebra.operations["meet"]}
    assert holds_in(meet_algebra, comm, interp)
    assert holds_in(meet_algebra, assoc, interp)
    absorb = parse("ops: f/2\nf(x,y) = x\n").identities[0]
    assert not holds_in(meet_algebra, absorb, interp)


def test_evaluate_nested(meet_table):
    t = Application("f", (Variable("x"), Application("f", (Variable("y"), Variable("z")))))
    assert evaluate(t, {"x": 1, "y": 1, "z": 0}, {"f": meet_table}) == 0
    assert evaluate(t, {"x": 1, "y": 1, "z": 1}, {"f": meet_table}) == 1


# --- the term walker and column-wise evaluation against their references -----

SYMBOLS = {"a": 1, "b": 2, "c": 3, "d": 4}


def random_term(rng: random.Random, depth: int, names: str = "xyzw") -> Term:
    """A term of depth at most `depth` over SYMBOLS (arities 1-4)."""
    if depth == 0 or rng.random() < 0.3:
        return Variable(rng.choice(names))
    symbol = rng.choice(sorted(SYMBOLS))
    return Application(symbol, tuple(random_term(rng, depth - 1, names) for _ in range(SYMBOLS[symbol])))


def chain(depth: int, symbol: str = "b") -> Term:
    """b(b(...b(x, y)..., x), y): `depth` applications, each binary."""
    t: Term = Variable("x")
    for i in range(depth):
        t = Application(symbol, (t, Variable("xy"[i % 2])))
    return t


def reference_str(t: Term) -> str:
    return fold_reference(t, str, lambda u, parts: f"{u.symbol}({','.join(parts)})")


def reference_varset(t: Term, children: Callable = lambda u: u.args) -> frozenset[str]:
    return fold_reference(t, lambda v: frozenset({v.name}), lambda u, sets: frozenset().union(*sets), children)


def test_fold_matches_fold_reference():
    rng = random.Random(19)
    terms = [random_term(rng, rng.randint(0, 8)) for _ in range(300)]
    terms.append(chain(20000))
    # a wide term: one application with 3000 arguments, leaves and small terms in turn
    wide = tuple(Variable("xyzw"[k % 4]) if k % 2 else random_term(rng, 3) for k in range(3000))
    terms.append(Application("wide", wide))

    kinds = Counter()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default: neither walker may recurse
    try:
        for t in terms:
            assert str(t) == reference_str(t)
            assert term_variables(t) == reference_varset(t)
            labeling = SLLabeling({sym: rng.choice(coordinate_sets(n)) for sym, n in SYMBOLS.items()} | {"wide": range(1, 3001, 7)})
            assert sigma_varset(t, labeling) == reference_varset(t, lambda u: [u.args[i - 1] for i in labeling.sigma[u.symbol]])
        for lhs, rhs in zip(terms, reversed(terms)):
            one = TermSystem(SYMBOLS | {"wide": 3000}, (Identity(lhs, rhs),))
            try:
                want = saturate_reference(one)
            except SystemError_ as e:  # a nested side or a third variable, deep ones too
                with pytest.raises(SystemError_) as got:
                    saturate(one)
                assert str(got.value) == str(e)
                kinds["refused"] += 1
                continue
            assert saturate(one) == want
            kinds["saturated"] += 1
    finally:
        sys.setrecursionlimit(limit)
    assert min(kinds.values()) > 20, kinds


def random_interpretation(rng: random.Random, size: int) -> dict[str, OperationTable]:
    return {
        sym: OperationTable(n, size, tuple(rng.randrange(size) for _ in range(size**n)))
        for sym, n in SYMBOLS.items()
    }


def test_holds_in_matches_holds_in_reference():
    rng = random.Random(1919)
    verdicts = []
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for trial in range(120):
            size = rng.choice((2, 3))
            algebra = FiniteAlgebra(size, random_interpretation(rng, size))
            if trial % 3 == 0:  # a projection table makes some identities hold
                algebra = FiniteAlgebra(size, algebra.operations | {"b": OperationTable(2, size, [a for a in range(size) for _ in range(size)])})
            lhs = random_term(rng, rng.randint(0, 8), "xyz")
            rhs = rng.choice((lhs, Variable("x"), random_term(rng, rng.randint(0, 8), "xyz")))
            identities = [Identity(lhs, rhs)]
            if trial % 10 == 0:  # deep ones, past the recursion limit
                identities += [Identity(chain(1500), Variable("x")), Identity(chain(1500), chain(1499))]
            for identity in identities:
                verdict = holds_in(algebra, identity, algebra.operations)
                assert verdict == holds_in_reference(algebra, identity, algebra.operations)
                verdicts.append(verdict)
    finally:
        sys.setrecursionlimit(limit)
    assert True in verdicts and False in verdicts


def test_holds_in_checks_every_application(meet_algebra, meet_table):
    identity = parse("ops: f/2\nf(x,f(y,x)) = x\n").identities[0]
    ternary = {"f": OperationTable(3, 2, (0,) * 8)}
    for check in (holds_in, holds_in_reference):
        with pytest.raises(StructureError, match="expected 3 arguments, got 2"):
            check(meet_algebra, identity, ternary)
    assert holds_in(meet_algebra, identity, {"f": meet_table}) is False
    # a constant's column repeats its value under every assignment
    absorbing = Identity(Application("f", (Variable("x"), Application("c", ()))), Application("c", ()))
    constant = {"f": meet_table, "c": OperationTable(0, 2, (0,))}
    assert holds_in(meet_algebra, absorbing, constant) is holds_in_reference(meet_algebra, absorbing, constant) is True


def test_witness_needs_variable_arguments():
    x, y = Variable("x"), Variable("y")
    flat = Identity(Application("f", (x, y)), Application("f", (y, y)))
    nested = Identity(Application("f", (Application("f", (x, x)), y)), Application("f", (y, y)))
    assert _witness_for(flat, "f", (1,)) is True
    assert _witness_for(nested, "f", (1,)) is False


def test_empty_labeling_describes_itself():
    assert SLLabeling({}).describe() == "(empty labeling)"
    assert SLLabeling({"f": (2, 1)}).describe() == "f->{1,2}"
