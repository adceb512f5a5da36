import random

import pytest

from liediff import (
    ArityMismatch,
    NotIndependent,
    RatFunc,
    StructureConstants,
    apply_first_order,
    axiom2_witness_check,
    change_basis_check,
    commuting_basis,
    commuting_check,
    first_order_commutator,
    linear_independence,
    matrix_invert,
    matrix_rank,
    parse_field_expr,
)
from conftest import make_presentation, rand_poly, rand_ratfunc


def rf(text, pres):
    return parse_field_expr(text, pres.vars)


def matrix(pres, rows):
    return [[rf(e, pres) for e in row] for row in rows]


@pytest.fixture(scope="module")
def p_dependent():
    # D2 = x * D1 on both generators
    return make_presentation(("x", "y"), [("1", "0"), ("x", "0")], {})


class TestMatrixHelpers:
    def test_rank_full(self, p1):
        assert matrix_rank(matrix(p1, [["1", "0"], ["x", "1"]])) == 2

    def test_rank_deficient(self, p1):
        assert matrix_rank(matrix(p1, [["1", "x"], ["y", "x*y"]])) == 1

    def test_rank_with_denominators(self, p1):
        assert matrix_rank(matrix(p1, [["1/x", "0"], ["1", "1/(y+1)"]])) == 2

    def test_invert_singular(self, p1):
        assert matrix_invert(matrix(p1, [["1", "x"], ["y", "x*y"]])) is None
        assert matrix_invert(matrix(p1, [["0", "1"], ["0", "x"]])) is None

    def test_invert_roundtrip(self, p1):
        rng = random.Random(81)
        for _ in range(10):
            A = [[rand_ratfunc(rng, p1.vars, 1) for _ in range(2)] for _ in range(2)]
            inv = matrix_invert(A)
            if inv is None:
                assert matrix_rank(A) < 2
                continue
            prod = [
                [
                    sum((A[i][k] * inv[k][j] for k in range(2)), RatFunc.zero(p1.vars))
                    for j in range(2)
                ]
                for i in range(2)
            ]
            assert prod[0][0].is_one() and prod[1][1].is_one()
            assert prod[0][1].is_zero() and prod[1][0].is_zero()


class TestLinearIndependence:
    def test_p1_independent(self, p1):
        cert = linear_independence(p1)
        assert cert.verdict == "independent"
        assert cert.columns == (0, 1)

    def test_dependent_with_witness(self, p_dependent):
        cert = linear_independence(p_dependent)
        assert cert.verdict == "dependent"
        assert cert.combination == (rf("-x", p_dependent), rf("1", p_dependent))

    def test_zero_action_dependent(self):
        p = make_presentation(("x",), [("0",)], {})
        cert = linear_independence(p)
        assert not cert.independent
        assert cert.combination == (rf("1", p),)

    def test_witness_verifies_by_substitution(self, p_dependent):
        # certificate soundness: sum b_i D_i kills every generator
        cert = linear_independence(p_dependent)
        b = cert.combination
        for j in range(len(p_dependent.vars)):
            total = RatFunc.zero(p_dependent.vars)
            for i in range(p_dependent.n):
                total = total + b[i] * p_dependent.derivations[i].images[j]
            assert total.is_zero()


class TestCommutingBasis:
    def test_p1_worked_instance(self, p1):
        A, actions = commuting_basis(p1)
        assert A == matrix(p1, [["1", "0"], ["-x", "1"]])
        assert actions[0].images == (rf("1", p1), rf("0", p1))
        assert actions[1].images == (rf("0", p1), rf("1", p1))

    def test_abelian_already_commutes(self, p_abelian):
        A, _ = commuting_basis(p_abelian)
        assert A == matrix(p_abelian, [["1", "0"], ["0", "1"]])

    def test_dependent_rejected(self, p_dependent):
        with pytest.raises(NotIndependent):
            commuting_basis(p_dependent)

    def test_invalid_presentation_fails_commutation_check(self):
        # alpha = 0 contradicts the true bracket [D1, D2] = d/dz, so the
        # verification step must fail loudly instead of returning a basis
        from liediff import CommutationFailure

        bad = make_presentation(
            ("x", "y", "z"), [("1", "0", "0"), ("0", "1", "x")], {}
        )
        with pytest.raises(CommutationFailure) as exc:
            commuting_basis(bad)
        assert str(exc.value) == (
            "constructed basis does not commute: "
            "commutation of Dbar1, Dbar2 on z: residual = 1"
        )

    def test_heisenberg(self, p_heis):
        A, _ = commuting_basis(p_heis)
        assert commuting_check(A, p_heis) == []

    @pytest.mark.parametrize("fixture", ["p1", "p_nc", "p_heis"])
    def test_new_basis_commutes_on_random_elements(self, fixture, request):
        pres = request.getfixturevalue(fixture)
        A, _ = commuting_basis(pres)
        rng = random.Random(82)
        for _ in range(10):
            f = RatFunc.from_poly(rand_poly(rng, pres.vars, 3))
            for r in range(pres.n):
                for s in range(r + 1, pres.n):
                    res = apply_first_order(
                        A[r], apply_first_order(A[s], f, pres), pres
                    ) - apply_first_order(A[s], apply_first_order(A[r], f, pres), pres)
                    assert res.is_zero()


class TestChangeBasisCheck:
    def test_worked_instance_all_residuals_zero(self, p1):
        A = matrix(p1, [["1", "0"], ["-x", "1"]])
        beta = StructureConstants.zero(2, p1.vars)
        assert change_basis_check(A, beta, p1) == []

    def test_identity_fails_with_unit_residual(self, p1):
        A = matrix(p1, [["1", "0"], ["0", "1"]])
        beta = StructureConstants.zero(2, p1.vars)
        report = change_basis_check(A, beta, p1)
        by_site = {v.where: v.residual for v in report}
        assert by_site["(l,k,j)=(1,2,1)"] == rf("1", p1)
        assert by_site["(l,k,j)=(2,1,1)"] == rf("-1", p1)
        assert set(by_site) == {"(l,k,j)=(1,2,1)", "(l,k,j)=(2,1,1)"}

    def test_identity_with_matching_beta_passes(self, p1):
        A = matrix(p1, [["1", "0"], ["0", "1"]])
        assert change_basis_check(A, p1.alpha, p1) == []

    def test_arity_checked(self, p1):
        with pytest.raises(ArityMismatch):
            change_basis_check([[rf("1", p1)]], StructureConstants.zero(2, p1.vars), p1)

    @pytest.mark.parametrize("fixture", ["p1", "p_nc"])
    def test_consistent_with_first_order_commutator(self, fixture, request):
        # independent route: compare the closed-form bracket of the rows with
        # the beta-combination of rows, then compare verdicts
        pres = request.getfixturevalue(fixture)
        rng = random.Random(83)
        n = pres.n
        for trial in range(12):
            A = [
                [RatFunc.from_poly(rand_poly(rng, pres.vars, 1)) for _ in range(n)]
                for _ in range(n)
            ]
            beta = StructureConstants.zero(n, pres.vars) if trial % 2 else pres.alpha
            report_empty = change_basis_check(A, beta, pres) == []
            ok = True
            for l in range(n):
                for k in range(n):
                    w = first_order_commutator(A[l], A[k], pres)
                    for j in range(n):
                        target = RatFunc.zero(pres.vars)
                        for m in range(n):
                            c = beta.get(l + 1, k + 1, m + 1)
                            if not c.is_zero():
                                target = target + c * A[m][j]
                        if w[j] != target:
                            ok = False
            assert report_empty == ok


class TestCommutingCheck:
    def test_good_basis(self, p1):
        assert commuting_check(matrix(p1, [["1", "0"], ["-x", "1"]]), p1) == []

    def test_identity_fails(self, p1):
        assert commuting_check(matrix(p1, [["1", "0"], ["0", "1"]]), p1) != []

    def test_abelian_any_constant_invertible(self, p_abelian):
        A = matrix(p_abelian, [["2", "1"], ["1", "1"]])
        assert commuting_check(A, p_abelian) == []

    def test_permutation_scaling_preserves_verdict(self, p1):
        # permuting a commuting family relabels it; brackets still vanish
        good = matrix(p1, [["1", "0"], ["-x", "1"]])
        swapped = [good[1], good[0]]
        assert commuting_check(swapped, p1) == []
        bad = matrix(p1, [["1", "0"], ["0", "1"]])
        assert (commuting_check([bad[1], bad[0]], p1) == []) == (
            commuting_check(bad, p1) == []
        )


class TestAxiom2:
    def test_commuting_witness(self, p1):
        xs = [rf(e, p1) for e in ("1", "0", "-x", "1")]
        assert axiom2_witness_check(xs, p1)

    def test_noncommuting_witness(self, p1):
        xs = [rf(e, p1) for e in ("1", "0", "0", "1")]
        assert not axiom2_witness_check(xs, p1)

    def test_singular_witness(self, p1):
        xs = [rf(e, p1) for e in ("1", "0", "x", "0")]
        assert not axiom2_witness_check(xs, p1)

    def test_arity(self, p1):
        with pytest.raises(ArityMismatch):
            axiom2_witness_check([rf("1", p1)] * 3, p1)
