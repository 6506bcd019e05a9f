import itertools
import random
import sys
from typing import Callable, Mapping

import pytest

from hmkit.freecons import FiniteAlgebra
from hmkit.homsearch import OperationTable
from hmkit.identlang import (
    Application,
    Identity,
    ParseError,
    SLLabeling,
    SLUnsat,
    SystemError_,
    Variable,
    all_labelings,
    check_labeling,
    format_system,
    hm_term_check,
    holds_in,
    is_linear,
    linear_fragment,
    nonempty_subsets,
    parse,
    saturate,
    sigma_varset,
    sl_interp_search,
    term_variables,
)
from hmkit.identlang import Term, TermSystem, _normalize, _rename
from hmkit.structures import StructureError

from conftest import MAJORITY_SYSTEM, MALTSEV_SYSTEM, SEMILATTICE_SYSTEM, hm_pass_forces_unsat

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


def holds_in_reference(algebra, identity: Identity, interp: Mapping[str, "object"]) -> bool:
    """The per-assignment `holds_in` that column-wise evaluation replaced, kept as an oracle."""
    names = sorted(term_variables(identity.lhs) | term_variables(identity.rhs))
    for values in itertools.product(range(algebra.size), repeat=len(names)):
        env = dict(zip(names, values))
        if evaluate(identity.lhs, env, interp) != evaluate(identity.rhs, env, interp):
            return False
    return True


def saturate_reference(sys: TermSystem) -> TermSystem:
    """The round-based rule loop that `saturate` replaced, kept as an oracle."""
    for i in sys.identities:
        if not is_linear(i):
            raise SystemError_(f"non-linear identity: {i}")
        if len(term_variables(i.lhs) | term_variables(i.rhs)) > 2:
            raise SystemError_(f"identity in more than 2 variables: {i}")

    current: set[Identity] = set()

    def add(i: Identity) -> None:
        current.add(i)

    for i in sys.identities:
        add(_normalize(i))
    for name in sorted(sys.idempotent):
        arity = sys.declarations[name]
        add(Identity(Application(name, (_X,) * arity), _X))

    swap = {"x": "y", "y": "x"}
    collapse = {"y": "x"}
    changed = True
    while changed:
        changed = False
        snapshot = sorted(current, key=str)
        derived: set[Identity] = set()
        for i in snapshot:
            derived.add(Identity(_rename(i.lhs, swap), _rename(i.rhs, swap)))
            derived.add(Identity(i.rhs, i.lhs))
            derived.add(_normalize(Identity(_rename(i.lhs, collapse), _rename(i.rhs, collapse))))
        by_lhs: dict = {}
        for i in snapshot:
            by_lhs.setdefault(i.lhs, []).append(i.rhs)
        for i in snapshot:
            for r in by_lhs.get(i.rhs, ()):  # transitivity
                derived.add(Identity(i.lhs, r))
        by_var_rhs: dict = {}
        for i in snapshot:
            if isinstance(i.rhs, Variable):
                by_var_rhs.setdefault(i.rhs.name, []).append(i.lhs)
        for sides in by_var_rhs.values():  # pairing through a common variable
            for s1, s2 in itertools.product(sides, sides):
                derived.add(Identity(s1, s2))
        before = len(current)
        current |= derived
        if len(current) != before:
            changed = True

    ordered = tuple(sorted(current, key=str))
    return TermSystem(sys.declarations, ordered, sys.idempotent)


def random_linear_system(rng: random.Random) -> TermSystem:
    """1-3 symbols of arity 1-4 and 0-5 linear identities in one variable pair."""
    declarations = {name: rng.randint(1, 4) for name in ("f", "g", "h")[: rng.randint(1, 3)]}
    names = rng.choice(("xy", "yx", "ab", "uv"))

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
    from hmkit.identlang import _normalize

    for i in idents:
        assert _normalize(Identity(i.rhs, i.lhs)) in idents
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


def test_saturate_matches_the_rule_loop():
    rng = random.Random(8)
    systems = [random_linear_system(rng) for _ in range(2000)]
    systems += [parse(MAJORITY_SYSTEM), parse(MALTSEV_SYSTEM), linear_fragment(parse(SEMILATTICE_SYSTEM))]
    for sys_ in systems:
        assert saturate(sys_) == saturate_reference(sys_), format_system(sys_)


def test_saturate_rejects_nonlinear_and_three_variables():
    with pytest.raises(SystemError_):
        saturate(parse(SEMILATTICE_SYSTEM))  # associativity is nested
    with pytest.raises(SystemError_):
        saturate(parse("ops: f/3\nf(x,y,z) = x\n"))


def test_nonempty_subsets_order():
    assert nonempty_subsets(2) == [(1,), (1, 2), (2,)]
    assert nonempty_subsets(3) == [
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (2,),
        (2, 3),
        (3,),
    ]


def test_hm_term_check_majority():
    sat = saturate(parse(MAJORITY_SYSTEM))
    report = hm_term_check(sat, "m")
    assert report.passed and report.missing is None
    assert len(report.witnesses) == 7
    subsets = [s for s, _ in report.witnesses]
    assert subsets == nonempty_subsets(3)


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
    assert [l.sigma["m"] for l in labelings] == nonempty_subsets(3)
    assert list(all_labelings({})) == [SLLabeling({})]


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


def reference_normalize(i: Identity) -> Identity:
    order: dict[str, None] = {}
    for side in (i.lhs, i.rhs):
        fold_reference(side, lambda v: order.setdefault(v.name), lambda u, values: None)
    table = dict(zip(order, ("x", "y")))

    def rename(t: Term) -> Term:
        return fold_reference(t, lambda v: Variable(table.get(v.name, v.name)), lambda u, args: Application(u.symbol, args))

    return Identity(rename(i.lhs), rename(i.rhs))


def test_fold_matches_fold_reference():
    rng = random.Random(19)
    terms = [random_term(rng, rng.randint(0, 8)) for _ in range(300)]
    terms.append(chain(20000))
    # a wide term: one application with 3000 arguments, leaves and small terms in turn
    wide = tuple(Variable("xyzw"[k % 4]) if k % 2 else random_term(rng, 3) for k in range(3000))
    terms.append(Application("wide", wide))

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default: neither walker may recurse
    try:
        for t in terms:
            assert str(t) == reference_str(t)
            assert term_variables(t) == reference_varset(t)
            labeling = SLLabeling({sym: rng.choice(nonempty_subsets(n)) for sym, n in SYMBOLS.items()} | {"wide": range(1, 3001, 7)})
            assert sigma_varset(t, labeling) == reference_varset(t, lambda u: [u.args[i - 1] for i in labeling.sigma[u.symbol]])
        for lhs, rhs in zip(terms, reversed(terms)):
            identity = Identity(lhs, rhs)
            got, want = _normalize(identity), reference_normalize(identity)
            # compared as text: term equality recurses on deep terms
            assert (reference_str(got.lhs), reference_str(got.rhs)) == (reference_str(want.lhs), reference_str(want.rhs))
    finally:
        sys.setrecursionlimit(limit)


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
