import random
from itertools import combinations, permutations

import pytest

from liediff import (
    ArityMismatch,
    NormalOperator,
    NotIndependent,
    Presentation,
    RatFunc,
    StructureConstants,
    UnknownVariable,
    apply_operator,
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
from liediff import field, frobenius, ops
from conftest import make_presentation, rand_poly, rand_ratfunc


def rf(text, pres):
    return parse_field_expr(text, pres.vars)


def matrix(pres, rows):
    return [[rf(e, pres) for e in row] for row in rows]


@pytest.fixture(scope="module")
def p_dependent():
    # D2 = x * D1 on both generators
    return make_presentation(("x", "y"), [("1", "0"), ("x", "0")], {})


# more variables than derivations (t > n), each with the 0-based columns of
# its first invertible minor
WIDE = [
    # D1 = d/dy, D2 = d/dz: the x column is zero
    (("x", "y", "z"), [("0", "1", "0"), ("0", "0", "1")], (1, 2)),
    # the (x, y) minor is singular, the (x, z) minor is not
    (("x", "y", "z"), [("1", "x", "y"), ("2", "2*x", "z")], (0, 2)),
    # the x column is y times the z column, and D3 vanishes on x, y and z,
    # so (x, y, w) is the first invertible minor
    (
        ("x", "y", "z", "w"),
        [("y", "0", "1", "x/(y+1)"), ("x*y", "1", "x", "0"), ("0", "0", "0", "1")],
        (0, 1, 3),
    ),
]

# dependent families with t > n
WIDE_DEPENDENT = [
    # D2 = x * D1
    (("x", "y", "z"), [("1", "y", "0"), ("x", "x*y", "0")]),
    # D3 = D1 / x + y * D2
    (("x", "y", "z", "w"), [("1", "0", "y", "0"), ("0", "1", "0", "x"), ("1/x", "y", "y/x", "x*y")]),
]


def _det(M, vars):
    # Leibniz expansion, independent of any elimination
    total = RatFunc.zero(vars)
    for perm in permutations(range(len(M))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = RatFunc.const(vars, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * M[i][j]
        total = total + term
    return total


def _assert_inverse(A, inv):
    vars = A[0][0].vars
    for i in range(len(A)):
        for j in range(len(A)):
            prod = sum((A[i][k] * inv[k][j] for k in range(len(A))), RatFunc.zero(vars))
            assert prod.is_one() if i == j else prod.is_zero()


def _first_invertible_minor(pres):
    # brute force: the first column subset, in combinations order, whose
    # minor of the generator-image matrix has a nonzero determinant
    M = [list(d.images) for d in pres.derivations]
    for cols in combinations(range(len(pres.vars)), pres.n):
        if not _det([[row[c] for c in cols] for row in M], pres.vars).is_zero():
            return cols
    return None


def _count_passes(monkeypatch) -> list:
    # the full flag of every _eliminate call, in order
    passes = []
    real = frobenius._eliminate
    monkeypatch.setattr(frobenius, "_eliminate",
                        lambda mat, full: passes.append(full) or real(mat, full))
    return passes


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

    def test_ragged_empty_and_non_square_shapes(self, p1):
        # these once gave a wrong "inverse" ([[1/x], [(x - 1)/x^2]]), a rank
        # of 1 and an IndexError; the shape is checked before the filter
        one, x = rf("1", p1), rf("x", p1)
        for call in (
            lambda: matrix_invert([[one, x], [x]]),
            lambda: matrix_rank([[one], [x, one]]),
            lambda: matrix_rank([[]]),
            lambda: matrix_rank([[one, x], []]),
            lambda: matrix_invert([[one, x]]),
            lambda: matrix_invert([[one], [x]]),
        ):
            with pytest.raises(ArityMismatch):
                call()
        assert matrix_rank([]) == 0 and matrix_invert([]) == []
        assert matrix_rank([[one, x]]) == 1 and matrix_rank([[one], [x]]) == 1
        # an entry over another variable tuple is refused, as Bareiss's
        # products refuse it, before the filter could decode it wrongly
        z = parse_field_expr("z", ("x", "y", "z"))
        for mat in ([[x], [z]], [[z, x]]):
            with pytest.raises(UnknownVariable):
                matrix_rank(mat)

    def test_invert_roundtrip(self, p1, p_heis):
        rng = random.Random(81)
        for pres, size in [(p1, 2)] * 10 + [(p_heis, 3)] * 6:
            A = [[rand_ratfunc(rng, pres.vars, 1, 1) for _ in range(size)] for _ in range(size)]
            inv = matrix_invert(A)
            if inv is None:
                assert matrix_rank(A) < size
                assert _det(A, pres.vars).is_zero()
                continue
            _assert_inverse(A, inv)

    @pytest.mark.parametrize("seed", [107, 120])
    def test_invert_three_variable_gcd_tail(self, seed, gcd_calls, monkeypatch):
        # general denominators over (x, y, z): these two seeds once spent
        # over 30 s and over 4 minutes in the pseudo-remainder gcd.  The
        # heuristic gcd answers every call, so a fallback to that sequence
        # fails at once; the 24 gcds are the three rows' lcm chains over
        # five denominators each and the nine entries' normalizations
        rng = random.Random(seed)
        V = ("x", "y", "z")
        A = [[rand_ratfunc(rng, V, 1, 1) for _ in range(3)] for _ in range(3)]

        def no_fallback(f, g):
            raise AssertionError(f"pseudo-remainder fallback on {f} and {g}")

        monkeypatch.setattr(field, "_pp_gcd_prs", no_fallback)
        gcd_calls.clear()
        inv = matrix_invert(A)
        assert len(gcd_calls) == 24
        _assert_inverse(A, inv)


class TestLinearIndependence:
    def test_p1_independent(self, p1):
        cert = linear_independence(p1)
        assert cert.verdict == "independent"
        assert cert.columns == (0, 1)

    @pytest.mark.parametrize("vars, images, columns", WIDE)
    def test_columns_are_first_invertible_minor(self, vars, images, columns):
        pres = make_presentation(vars, images, {})
        cert = linear_independence(pres)
        assert cert.independent
        assert cert.columns == _first_invertible_minor(pres) == columns

    def test_dependent_with_witness(self, p_dependent):
        cert = linear_independence(p_dependent)
        assert cert.verdict == "dependent"
        assert cert.combination == (rf("-x", p_dependent), rf("1", p_dependent))

    def test_zero_action_dependent(self):
        p = make_presentation(("x",), [("0",)], {})
        cert = linear_independence(p)
        assert not cert.independent
        assert cert.combination == (rf("1", p),)

    @pytest.mark.parametrize("fixture, expected", [
        ("p1", [False]), ("p_heis", [False]), ("p_dependent", [False, False]),
    ])
    def test_passes(self, fixture, expected, request, monkeypatch):
        # the forward pass over M decides; only a dependent M gets one
        # forward pass of [M | J] for its witness
        passes = _count_passes(monkeypatch)
        linear_independence(request.getfixturevalue(fixture))
        assert passes == expected

    def test_witness_verifies_by_substitution(self, p_dependent):
        # certificate soundness: sum b_i D_i kills every generator
        wide = [make_presentation(vars, images, {}) for vars, images in WIDE_DEPENDENT]
        for pres in [p_dependent] + wide:
            cert = linear_independence(pres)
            assert _first_invertible_minor(pres) is None
            b = cert.combination
            assert not cert.independent and any(not c.is_zero() for c in b)
            for j in range(len(pres.vars)):
                total = RatFunc.zero(pres.vars)
                for i in range(pres.n):
                    total = total + b[i] * pres.derivations[i].images[j]
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

    @pytest.mark.parametrize("vars, images, witness", [
        (("x", "y"), [("1", "0"), ("x", "0")], "-x, 1"),
        (WIDE_DEPENDENT[1][0], WIDE_DEPENDENT[1][1], "-1/x, -y, 1"),
    ])
    def test_dependent_message_names_the_witness(self, vars, images, witness):
        # a pivot of [M | J] in the exchange block leaves the witness in the
        # last reduced row, which the message prints
        with pytest.raises(NotIndependent) as exc:
            commuting_basis(make_presentation(vars, images, {}))
        assert str(exc.value) == f"derivations are linearly dependent; witness ({witness})"

    @pytest.mark.parametrize("fixture", ["p1", "p_nc", "p_heis", "p_abelian", "p_dependent"])
    def test_one_elimination_decides_independence(self, fixture, request, monkeypatch):
        # the reduction of [M | J] that gives A also shows that M has full
        # rank, or else holds the witness, so every presentation is
        # eliminated once
        pres = request.getfixturevalue(fixture)
        passes = _count_passes(monkeypatch)
        if fixture == "p_dependent":
            with pytest.raises(NotIndependent):
                commuting_basis(pres)
        else:
            commuting_basis(pres)
        assert passes == [True]

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
        U = [NormalOperator.first_order(row, pres.n) for row in A]
        rng = random.Random(82)
        for _ in range(10):
            f = RatFunc.from_poly(rand_poly(rng, pres.vars, 3))
            for r in range(pres.n):
                for s in range(r + 1, pres.n):
                    res = apply_operator(
                        U[r], apply_operator(U[s], f, pres), pres
                    ) - apply_operator(U[s], apply_operator(U[r], f, pres), pres)
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

    def test_beta_dimension_checked(self, p1):
        A = matrix(p1, [["1", "0"], ["0", "1"]])
        for beta in (StructureConstants.zero(3, p1.vars), StructureConstants.zero(1, p1.vars)):
            with pytest.raises(ArityMismatch):
                change_basis_check(A, beta, p1)
            with pytest.raises(ArityMismatch):
                ops.first_order_brackets(A, p1, beta)

    def test_foreign_beta_rejected(self, p1):
        # z in [D1, D2] = z*D1 over (x, y, z) is not a constant of Q(x, y);
        # reading it as 1 would pass the identity basis of p1
        A = matrix(p1, [["1", "0"], ["0", "1"]])
        xyz = ("x", "y", "z")
        z = parse_field_expr("z", xyz)
        for beta in (
            StructureConstants.from_entries(2, xyz, {(1, 2, 1): z, (2, 1, 1): -z}),
            StructureConstants.zero(2, xyz),
        ):
            with pytest.raises(UnknownVariable):
                change_basis_check(A, beta, p1)
            with pytest.raises(UnknownVariable):
                ops.first_order_brackets(A, p1, beta)

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


def _per_pair_report(A, beta, pres):
    # reference: each bracket coefficient straight from the formula, one
    # (l,k) pair at a time, with apply_operator on first-order operators as
    # the derivation route
    n = pres.n
    U = [NormalOperator.first_order(row, n) for row in A]
    out = []
    for l in range(n):
        for k in range(n):
            for j in range(n):
                res = apply_operator(U[l], A[k][j], pres) - apply_operator(
                    U[k], A[l][j], pres
                )
                for r in range(n):
                    for s in range(n):
                        res = res + A[l][r] * A[k][s] * pres.alpha.get(r + 1, s + 1, j + 1)
                for m in range(n):
                    res = res - beta.get(l + 1, k + 1, m + 1) * A[m][j]
                if not res.is_zero():
                    out.append(f"(l,k,j)=({l + 1},{k + 1},{j + 1}): residual = {res}")
    return out


def _skewed(pres, rng):
    # structure constants that are not antisymmetric, as --no-validate admits
    entries = {
        (k, l, m): RatFunc.from_poly(rand_poly(rng, pres.vars, 1))
        for k in range(1, pres.n + 1)
        for l in range(1, pres.n + 1)
        for m in range(1, pres.n + 1)
        if rng.random() < 0.4
    }
    return StructureConstants.from_entries(pres.n, pres.vars, entries)


class TestFirstOrderBrackets:
    def test_basis_check_gcd_counts(self, p_nc, p_heis, gcd_calls):
        # p_nc: four coprime linear denominators and alpha's x take 10
        # refinement gcds, and the one unordered pair's two coefficients one
        # final normalization each (28 on the lincomb path, which reduces
        # every derivative and every alpha product).  heis: the denominators
        # are power products, so the basis is the variables and only the
        # nine final normalizations take a gcd (34 on the lincomb path)
        A = matrix(p_nc, [["(2*x + 1)/(y + 3)", "(x - 1)/(3*y - 2)"],
                          ["(y + 2)/(x + 4)", "(2*y - 1)/(x - 3)"]])
        gcd_calls.clear()
        change_basis_check(A, p_nc.alpha, p_nc)
        assert len(gcd_calls) <= 13
        A = matrix(p_heis, [["(2*x + 1)/y", "x - 1", "(y + 2)/z"],
                            ["(y + 2)/x", "3*z - 1", "y/(2*x)"],
                            ["1", "(x + z)/y", "(2*z - 3)/x"]])
        gcd_calls.clear()
        change_basis_check(A, p_heis.alpha, p_heis)
        assert len(gcd_calls) <= 9

    def test_derives_each_entry_once(self, p_heis, monkeypatch):
        A, _ = commuting_basis(p_heis)
        calls = []
        derive = ops._derive_unreduced

        def counting(action, f, exps):
            calls.append(action.name)
            return derive(action, f, exps)

        monkeypatch.setattr(ops, "_derive_unreduced", counting)
        assert commuting_check(A, p_heis) == []
        assert len(calls) == 27  # n^3 for n = 3: D_i of every entry A[k][j]

    def test_one_lincomb_per_unordered_pair(self, p_heis, monkeypatch):
        # antisymmetric alpha and beta: the 3 pairs l < k times n = 3
        # coefficients are summed, the other 18 entries are mirrored or zero;
        # every entry of A is still derived once by each D_i
        rng = random.Random(88)
        A = [[rand_ratfunc(rng, p_heis.vars, 1) for _ in range(3)] for _ in range(3)]
        calls = {"_derive_unreduced": 0, "basis_sum": 0}

        def counting(name):
            real = getattr(ops, name)

            def count(*args):
                calls[name] += 1
                return real(*args)

            return count

        for name in calls:
            monkeypatch.setattr(ops, name, counting(name))
        report = change_basis_check(A, p_heis.alpha, p_heis)
        assert calls == {"_derive_unreduced": 27, "basis_sum": 9}
        assert [str(v) for v in report] == _per_pair_report(A, p_heis.alpha, p_heis)

    @pytest.mark.parametrize("fixture", ["p1", "p_nc", "p_heis"])
    def test_report_matches_per_pair_reference(self, fixture, request):
        pres = request.getfixturevalue(fixture)
        rng = random.Random(84)
        n = pres.n
        for trial in range(2):
            A = [[rand_ratfunc(rng, pres.vars, 1) for _ in range(n)] for _ in range(n)]
            beta = (pres.alpha, StructureConstants.zero(n, pres.vars))[trial % 2]
            got = [str(v) for v in change_basis_check(A, beta, pres)]
            assert got == _per_pair_report(A, beta, pres)

    def test_non_antisymmetric_constants(self, p_nc):
        # every ordered (l,k) pair, the diagonal included, comes from the
        # formula; nothing is mirrored from (k,l)
        rng = random.Random(85)
        skewed = Presentation(p_nc.vars, p_nc.derivations, _skewed(p_nc, rng))
        for _ in range(4):
            A = [[rand_ratfunc(rng, p_nc.vars, 1) for _ in range(2)] for _ in range(2)]
            beta = _skewed(p_nc, rng)
            got = [str(v) for v in change_basis_check(A, beta, skewed)]
            assert got == _per_pair_report(A, beta, skewed)
            assert any(v.startswith("(l,k,j)=(1,1,") for v in got)

    def test_commutator_computes_only_its_entry(self, p_heis, monkeypatch):
        # with antisymmetric constants a table of k rows computes k(k-1)/2
        # brackets, so three rows (three pairs) are needed to see that the
        # commutator adds fewer products than a whole table
        rng = random.Random(87)
        u, v, w = [[rand_ratfunc(rng, p_heis.vars, 1) for _ in range(3)] for _ in range(3)]
        calls = []
        mul = field._mul_into

        def counting(*args):
            calls.append(1)
            return mul(*args)

        monkeypatch.setattr(field, "_mul_into", counting)
        got = first_order_commutator(u, v, p_heis)
        one = len(calls)
        table = ops.first_order_brackets([u, v, w], p_heis)
        assert got == table[0][1]
        assert one < len(calls) - one

    def test_rows_over_other_variables_raise(self, p1):
        xyz = ("x", "y", "z")
        u = [parse_field_expr("z", xyz), parse_field_expr("1", xyz)]
        v = matrix(p1, [["x", "1/y"]])[0]
        with pytest.raises(UnknownVariable):
            first_order_commutator(u, v, p1)

    def test_commutator_is_one_bracket(self, p_nc):
        rng = random.Random(86)
        rows = [[rand_ratfunc(rng, p_nc.vars, 1) for _ in range(2)] for _ in range(3)]
        table = ops.first_order_brackets(rows, p_nc)
        for l in range(3):
            for k in range(3):
                assert table[l][k] == first_order_commutator(rows[l], rows[k], p_nc)


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
