import itertools
import random

import pytest

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
    evaluate,
    format_system,
    hm_pass_forces_unsat,
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
from hmkit.identlang import TermSystem, _normalize, _rename

from conftest import MAJORITY_SYSTEM, MALTSEV_SYSTEM, SEMILATTICE_SYSTEM

_X = Variable("x")


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
    labelings = all_labelings({"m": 3})
    assert len(labelings) == 7
    assert labelings[0].sigma == {"m": (1,)}
    assert [l.sigma["m"] for l in labelings] == nonempty_subsets(3)
    assert all_labelings({}) == [SLLabeling({})]


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
