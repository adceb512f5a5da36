import random
from fractions import Fraction
from itertools import product

import pytest

from liediff import (
    ArityMismatch,
    DerivationAction,
    IndependenceCertificate,
    NonConstantStructureConstants,
    Presentation,
    RatFunc,
    StructureConstants,
    TruncatedExtension,
    UnknownDerivation,
    UnknownVariable,
    Violation,
    check_presentation,
    derive,
    validate_antisymmetry,
    validate_jacobi,
)
from conftest import make_presentation, rand_ratfunc


def const_table(n, items):
    vars = ()
    entries = {
        key: RatFunc.const(vars, v) for key, v in items.items()
    }
    return StructureConstants.from_entries(n, vars, entries)


def sl2_table():
    # basis order H, E, F: [H,E] = 2E, [H,F] = -2F, [E,F] = H
    items = {(1, 2, 2): 2, (1, 3, 3): -2, (2, 3, 1): 1}
    items.update({(l, k, m): -v for (k, l, m), v in list(items.items())})
    return const_table(3, items)


def sl2_perturbed_table():
    # same but [E,F] = E
    items = {(1, 2, 2): 2, (1, 3, 3): -2, (2, 3, 2): 1}
    items.update({(l, k, m): -v for (k, l, m), v in list(items.items())})
    return const_table(3, items)


def brute_force_jacobi(alpha) -> dict:
    """Oracle: expand [[e_k,e_l],e_m] + [[e_l,e_m],e_k] + [[e_m,e_k],e_l] for
    every index triple using only the bilinear bracket table; returns the
    nonzero cyclic sums keyed by (k, l, m)."""
    n = alpha.n

    def bracket(u, v):
        out = [Fraction(0)] * n
        for a in range(n):
            if not u[a]:
                continue
            for b in range(n):
                if not v[b]:
                    continue
                for m in range(n):
                    out[m] += u[a] * v[b] * alpha.get(a + 1, b + 1, m + 1).const_value()
        return out

    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    bad = {}
    for k, l, m in product(range(n), repeat=3):
        s = bracket(bracket(basis[k], basis[l]), basis[m])
        t = bracket(bracket(basis[l], basis[m]), basis[k])
        u = bracket(bracket(basis[m], basis[k]), basis[l])
        total = [a + b + c for a, b, c in zip(s, t, u)]
        if any(total):
            bad[(k + 1, l + 1, m + 1)] = total
    return bad


class TestAntisymmetry:
    def test_abelian_passes(self):
        assert validate_antisymmetry(const_table(2, {})) == []

    def test_forced_pair_passes(self):
        assert validate_antisymmetry(const_table(2, {(1, 2, 1): 1, (2, 1, 1): -1})) == []

    def test_violation_reported(self):
        report = validate_antisymmetry(const_table(2, {(1, 2, 1): 1, (2, 1, 1): 1}))
        assert len(report) == 1
        assert "(1,2,1)" in report[0].where

    def test_nonzero_diagonal_reported(self):
        report = validate_antisymmetry(const_table(2, {(1, 1, 2): 1}))
        assert len(report) == 1


class TestStructureConstants:
    def test_index_outside_range_rejected(self):
        one = RatFunc.const(("x", "y"), 1)
        with pytest.raises(UnknownDerivation):
            StructureConstants.from_entries(2, ("x", "y"), {(1, 3, 1): one})

    def test_equality_ignores_zero_entries_and_order(self):
        vars = ("x", "y")
        one, zero = RatFunc.const(vars, 1), RatFunc.zero(vars)
        a = StructureConstants(2, vars, {(1, 2, 1): one, (2, 1, 1): -one})
        b = StructureConstants(2, vars, {(2, 1, 1): -one, (1, 2, 2): zero, (1, 2, 1): one})
        assert a == b
        assert StructureConstants.zero(2, vars) == StructureConstants(2, vars, {(1, 1, 1): zero})
        assert a != StructureConstants(3, vars, dict(a.entries))
        xz = ("x", "z")
        one_xz = RatFunc.const(xz, 1)
        assert a != StructureConstants(2, xz, {(1, 2, 1): one_xz, (2, 1, 1): -one_xz})

    def test_entry_over_other_variables_rejected(self):
        # an entry over ('x', 'z') was once stored in a table over ('x', 'y')
        with pytest.raises(UnknownVariable):
            StructureConstants(2, ("x", "y"), {(1, 2, 1): RatFunc.const(("x", "z"), 1)})


class TestJacobi:
    def test_abelian_passes(self):
        assert validate_jacobi(const_table(3, {})) == []

    def test_sl2_oracle_and_validator_agree(self):
        table = sl2_table()
        assert brute_force_jacobi(table) == {}
        assert validate_jacobi(table) == []

    def test_perturbed_sl2_fails_with_frozen_residual(self):
        table = sl2_perturbed_table()
        bad = brute_force_jacobi(table)
        assert bad, "oracle must also reject the perturbed table"
        # cyclic sum at (H, E, F) is -2 in the E slot
        assert bad[(1, 2, 3)] == [Fraction(0), Fraction(-2), Fraction(0)]
        report = validate_jacobi(table)
        assert any(
            "(1,2,3;2)" in v.where and v.residual == RatFunc.const((), -2)
            for v in report
        )

    def test_nonconstant_rejected(self):
        vars = ("x",)
        x = RatFunc.variable(vars, "x")
        table = StructureConstants.from_entries(2, vars, {(1, 2, 1): x, (2, 1, 1): -x})
        with pytest.raises(NonConstantStructureConstants):
            validate_jacobi(table)

    def test_reports_independent_of_entry_order(self):
        items = {(1, 2, 2): 2, (1, 3, 3): -2, (2, 3, 2): 1}
        items.update({(l, k, m): -v for (k, l, m), v in list(items.items())})
        forward = const_table(3, dict(items))
        backward = const_table(3, dict(reversed(list(items.items()))))
        assert validate_jacobi(forward) == validate_jacobi(backward)
        assert validate_antisymmetry(forward) == validate_antisymmetry(backward)


class TestCheckPresentation:
    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_derivation_index_checked(self, p1, k):
        # not D_n through a negative index, not an IndexError
        with pytest.raises(UnknownDerivation):
            p1.derivation(k)

    def test_p1_passes(self, p1):
        assert check_presentation(p1) == []

    def test_p1_with_zero_alpha_fails(self):
        bad = make_presentation(("x", "y"), [("1", "0"), ("x", "1")], {})
        report = check_presentation(bad)
        assert len(report) == 1
        v = report[0]
        assert "(k,l)=(1,2)" in v.where and "variable x" in v.where
        assert v.residual == RatFunc.const(("x", "y"), 1)

    @pytest.mark.parametrize("vars, n", [(("x",), 0), ((), 1), ((), 0)])
    def test_empty_presentation_rejected(self, vars, n):
        # no derivations or no variables once reached commuting_basis and
        # linear_independence, which raised a bare IndexError
        actions = tuple(DerivationAction(f"D{k}", vars, ()) for k in range(n))
        with pytest.raises(ArityMismatch):
            Presentation(vars, actions, StructureConstants.zero(n, vars))

    def test_parts_over_other_variables_rejected(self):
        # a derivation over ('y',) in a presentation over ('x',) once passed
        # check_presentation with an empty report
        x, y = ("x",), ("y",)
        dx = DerivationAction("D", x, (RatFunc.const(x, 1),))
        dy = DerivationAction("D", y, (RatFunc.const(y, 1),))
        with pytest.raises(UnknownVariable):
            Presentation(x, (dy,), StructureConstants.zero(1, x))
        with pytest.raises(UnknownVariable):
            Presentation(x, (dx,), StructureConstants.zero(1, y))

    def test_alpha_of_another_arity_rejected(self):
        # alpha of n = 3 over two derivations once made normalize(D2*D1)
        # raise a bare IndexError
        vars = ("x", "y")
        one = RatFunc.const(vars, 1)
        actions = tuple(
            DerivationAction(f"D{i}", vars, (one, RatFunc.zero(vars))) for i in (1, 2)
        )
        alpha = StructureConstants(3, vars, {(1, 2, 3): one, (2, 1, 3): -one})
        with pytest.raises(ArityMismatch):
            Presentation(vars, actions, alpha)

    def test_single_derivation_passes(self):
        p = make_presentation(("x",), [("x^2",)], {})
        assert check_presentation(p) == []

    def test_nonconstant_alpha_presentation_passes(self, p_nc):
        assert check_presentation(p_nc) == []

    def test_heisenberg_passes(self, p_heis):
        assert check_presentation(p_heis) == []


class TestGeneratorSufficiency:
    @pytest.mark.parametrize("fixture", ["p1", "p_nc", "p_heis"])
    def test_bracket_holds_on_random_elements(self, fixture, request):
        # equality on generators extends to the whole field: both sides are
        # derivations applied to f
        p = request.getfixturevalue(fixture)
        rng = random.Random(hash(fixture) % 1000)
        for _ in range(15):
            f = rand_ratfunc(rng, p.vars, deg=2, den_deg=1)
            for k in range(1, p.n + 1):
                for l in range(k + 1, p.n + 1):
                    lhs = derive(p.derivation(k), derive(p.derivation(l), f)) - derive(
                        p.derivation(l), derive(p.derivation(k), f)
                    )
                    rhs = RatFunc.zero(p.vars)
                    for m in range(1, p.n + 1):
                        c = p.alpha.get(k, l, m)
                        if not c.is_zero():
                            rhs = rhs + c * derive(p.derivation(m), f)
                    assert lhs == rhs


# One of each frozen record, built by keyword, with a second record that
# differs in one compared field, the repr, and whether it hashes: by value,
# by identity (a presentation), or not at all (a record holding a dict).
X = ("x",)
D_X = DerivationAction(name="D", vars=X, images=(RatFunc.const(X, 1),))
P_X = Presentation(vars=X, derivations=(D_X,), alpha=StructureConstants.zero(1, X))
P_X_REPR = (
    "Presentation(vars=('x',), derivations=(DerivationAction(name='D', vars=('x',), "
    "images=(RatFunc(1),)),), alpha=StructureConstants(n=1, vars=('x',), entries={}))"
)
RECORDS = [
    pytest.param(
        lambda: Violation(where="w", residual=3),
        lambda: Violation(where="w"),
        "Violation(where='w', residual=3)",
        "value",
        id="Violation",
    ),
    pytest.param(
        lambda: DerivationAction(name="D", vars=X, images=(RatFunc.const(X, 1),)),
        lambda: DerivationAction(name="D", vars=X, images=(RatFunc.const(X, 2),)),
        "DerivationAction(name='D', vars=('x',), images=(RatFunc(1),))",
        "value",
        id="DerivationAction",
    ),
    pytest.param(
        lambda: StructureConstants(n=1, vars=X, entries={(1, 1, 1): RatFunc.const(X, 1)}),
        lambda: StructureConstants(n=1, vars=X, entries={(1, 1, 1): RatFunc.zero(X)}),
        "StructureConstants(n=1, vars=('x',), entries={(1, 1, 1): RatFunc(1)})",
        "unhashable",
        id="StructureConstants",
    ),
    pytest.param(
        lambda: Presentation(vars=X, derivations=(D_X,), alpha=StructureConstants.zero(1, X)),
        lambda: P_X,
        P_X_REPR,
        "identity",
        id="Presentation",
    ),
    pytest.param(
        lambda: IndependenceCertificate(independent=True, columns=(0,)),
        lambda: IndependenceCertificate(independent=True, columns=(1,)),
        "IndependenceCertificate(independent=True, columns=(0,), combination=None)",
        "value",
        id="IndependenceCertificate",
    ),
    pytest.param(
        lambda: TruncatedExtension(base=P_X, order=1, actions={}),
        lambda: TruncatedExtension(base=P_X, order=2, actions={}),
        f"TruncatedExtension(base={P_X_REPR}, order=1, actions={{}})",
        "unhashable",
        id="TruncatedExtension",
    ),
]


@pytest.mark.parametrize("make, make_other, text, hashing", RECORDS)
def test_record_value_semantics(make, make_other, text, hashing):
    a, b, other = make(), make(), make_other()
    assert repr(a) == repr(b) == text
    assert a == a and not a != a
    assert a != other and not a == other
    assert a != text
    if hashing == "identity":
        assert a != b and hash(a) != hash(b) and hash(a) == hash(a)
    elif hashing == "value":
        assert a == b and not a != b and hash(a) == hash(b)
    else:
        assert a == b
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    field = text[text.index("(") + 1 : text.index("=")]
    before = repr(a)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = None
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    assert repr(a) == before
