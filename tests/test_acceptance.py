"""End-to-end acceptance suite.

Each test covers one numbered criterion, runs it at full stated size with
exact (zero-tolerance) equality, and prints one PASS line on success; a
failure surfaces as an ordinary pytest failure for that criterion.
"""

import random
from fractions import Fraction

import pytest

from liediff import (
    NormalOperator,
    NormalPoly,
    RatFunc,
    StructureConstants,
    apply_operator,
    axiom2_witness_check,
    change_basis_check,
    commuting_basis,
    derive,
    derive_normal,
    eval_hom,
    first_order_commutator,
    fresh_extension,
    indices_up_to,
    normalize,
    op_commutator,
    parse_field_expr,
    validate_jacobi,
)
from liediff.cli import main
from conftest import DATA, GOLDEN, rand_npoly, rand_poly, rand_word
from oracles import rewrite_normalize
from test_lie import brute_force_jacobi, sl2_perturbed_table, sl2_table

WORDS_PER_PRESENTATION = 200  # two presentations -> 400 words in the suite
POLYS_PER_WORD = 20


def _passed(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def word_suite(p1, p_abelian):
    rng = random.Random(20240)
    suite = []
    for pres in (p1, p_abelian):
        words = [rand_word(rng, pres, maxlen=4, coeff_deg=2) for _ in range(WORDS_PER_PRESENTATION)]
        polys = [
            RatFunc.from_poly(rand_poly(rng, pres.vars, 3)) for _ in range(POLYS_PER_WORD)
        ]
        suite.append((pres, words, polys))
    return suite


def test_c01_normalization_soundness(word_suite):
    checked = 0
    for pres, words, polys in word_suite:
        for w in words:
            nf = normalize(w, pres)
            for f in polys:
                assert apply_operator(nf, f, pres) == apply_operator(w, f, pres)
                checked += 1
    assert checked == 2 * WORDS_PER_PRESENTATION * POLYS_PER_WORD
    _passed(1, "normalization soundness")


def test_c02_confluence(word_suite):
    for pres, words, _ in word_suite:
        for w in words:
            left = rewrite_normalize(w, pres, strategy="leftmost")
            right = rewrite_normalize(w, pres, strategy="rightmost")
            assert left == right
            assert normalize(w, pres) == left
    _passed(2, "confluence of rewrite strategies, equal to the table engine")


def test_c03_first_order_closed_form_equals_engine(p1):
    rng = random.Random(20241)
    for _ in range(100):
        u = tuple(RatFunc.from_poly(rand_poly(rng, p1.vars, 2)) for _ in range(2))
        v = tuple(RatFunc.from_poly(rand_poly(rng, p1.vars, 2)) for _ in range(2))
        closed = NormalOperator.first_order(first_order_commutator(u, v, p1), 2)
        engine = op_commutator(
            NormalOperator.first_order(u, 2),
            NormalOperator.first_order(v, 2),
            p1,
        )
        assert closed == engine
    _passed(3, "first-order closed form equals engine")


def test_c04_basis_change_worked_instance(p1):
    A = [[parse_field_expr(e, p1.vars) for e in row] for row in (("1", "0"), ("-x", "1"))]
    beta = StructureConstants.zero(2, p1.vars)
    assert change_basis_check(A, beta, p1) == []  # every (l,k,j) residual is 0
    identity = [
        [parse_field_expr(e, p1.vars) for e in row] for row in (("1", "0"), ("0", "1"))
    ]
    report = change_basis_check(identity, beta, p1)
    by_site = {v.where: v.residual for v in report}
    assert by_site["(l,k,j)=(1,2,1)"] == parse_field_expr("1", p1.vars)
    _passed(4, "basis-change condition worked instance")


def test_c05_frobenius_construction(p1):
    A, actions = commuting_basis(p1)
    expected = [
        [parse_field_expr(e, p1.vars) for e in row] for row in (("1", "0"), ("-x", "1"))
    ]
    assert A == expected
    rng = random.Random(20242)
    u, v = (NormalOperator.first_order(row, 2) for row in A)
    for _ in range(50):
        f = RatFunc.from_poly(rand_poly(rng, p1.vars, 3))
        res = apply_operator(u, apply_operator(v, f, p1), p1) - apply_operator(
            v, apply_operator(u, f, p1), p1
        )
        assert res.is_zero()
    # independence of the new basis: the matrix is invertible by construction
    assert actions[0].images == (
        parse_field_expr("1", p1.vars),
        parse_field_expr("0", p1.vars),
    )
    _passed(5, "commuting-basis construction")


def test_c06_normal_polynomial_homomorphism(p1):
    rng = random.Random(20243)
    for _ in range(50):
        q = rand_npoly(rng, p1, max_order=2)
        b = RatFunc.from_poly(rand_poly(rng, p1.vars, 3))
        for i in (1, 2):
            lhs = eval_hom(derive_normal(i, q, p1), b, p1)
            rhs = derive(p1.derivation(i), eval_hom(q, b, p1))
            assert lhs == rhs
    _passed(6, "evaluation is a homomorphism of structures")


def test_c07_bracket_axiom_lifts_to_extension(p1):
    ext = fresh_extension(p1, 3)
    rng = random.Random(20244)
    candidates = [NormalPoly.xvar(p1.vars, 2, I) for I in indices_up_to(2, 1)]
    candidates += [rand_npoly(rng, p1, max_order=1, nterms=2) for _ in range(20)]
    for q in candidates:
        lhs = ext.derive(1, ext.derive(2, q)) - ext.derive(2, ext.derive(1, q))
        rhs = NormalPoly.zero(p1.vars, 2)
        for m in (1, 2):
            c = p1.alpha.get(1, 2, m)
            if not c.is_zero():
                rhs = rhs + ext.derive(m, q).scale(c)
        assert lhs == rhs
    _passed(7, "bracket axiom lifts to the fresh extension")


def test_c08_jacobi_validator_against_brute_force():
    good, bad = sl2_table(), sl2_perturbed_table()
    assert brute_force_jacobi(good) == {}
    assert validate_jacobi(good) == []
    oracle_bad = brute_force_jacobi(bad)
    assert oracle_bad[(1, 2, 3)] == [Fraction(0), Fraction(-2), Fraction(0)]
    assert validate_jacobi(bad) != []
    _passed(8, "jacobi validator matches the brute-force oracle")


def test_c09_axiom2_witness(p1):
    good = [parse_field_expr(e, p1.vars) for e in ("1", "0", "-x", "1")]
    bad = [parse_field_expr(e, p1.vars) for e in ("1", "0", "0", "1")]
    assert axiom2_witness_check(good, p1) is True
    assert axiom2_witness_check(bad, p1) is False
    _passed(9, "independent-commuting witness predicate")


def test_c10_cli_determinism(capsys):
    cases = [
        (["normalize", "-p", str(DATA / "p1.json"), "D2*D1"], 0, "normalize_p1.txt"),
        (
            ["normalize", "-p", str(DATA / "p1.json"), "(D1+D2)^3-x*D2*D1/y"],
            0,
            "normalize_p1_power.txt",
        ),
        (
            ["commutator", "-p", str(DATA / "p1.json"), "x*D1+D2", "D2*D1"],
            0,
            "commutator_p1.txt",
        ),
        (
            ["apply", "-p", str(DATA / "p_nc.json"), "D2*x*D1+D1^2", "x^2*y"],
            0,
            "apply_p_nc.txt",
        ),
        (["frobenius", "-p", str(DATA / "p1.json")], 0, "frobenius_p1.txt"),
        (
            [
                "check-commuting",
                "-p",
                str(DATA / "p1.json"),
                "-A",
                str(DATA / "identity.json"),
            ],
            1,
            "check_commuting_identity.txt",
        ),
    ]
    for argv, want_code, golden in cases:
        for _ in range(2):
            code = main(argv)
            out = capsys.readouterr().out
            assert code == want_code
            assert out.encode() == (GOLDEN / golden).read_bytes()
    _passed(10, "CLI byte determinism and exit codes")
