import random
from fractions import Fraction

import pytest

from liediff import (
    DivisionByZero,
    ExprSyntaxError,
    NormalOperator,
    UnknownDerivation,
    UnknownVariable,
    apply_operator,
    normalize,
    parse_field_expr,
    parse_normalpoly_expr,
    parse_operator_expr,
    rewrite_normalize,
)
from conftest import rand_npoly, rand_ratfunc, rand_word, word

VARS = ("x", "y")


class TestFieldGrammar:
    def test_polynomial(self):
        f = parse_field_expr("x^2*y - 1/2", VARS)
        assert str(f) == "(2*x^2*y - 1)/2"
        assert f.num.terms == {(2, 1): Fraction(2), (0, 0): Fraction(-1)}

    def test_fraction(self):
        f = parse_field_expr("(x+1)/(x-1)", VARS)
        assert str(f.num) == "x + 1" and str(f.den) == "x - 1"

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_field_expr("x +* y", VARS)
        assert exc.value.pos == 3

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_field_expr("x + z", VARS)

    def test_power_binds_tighter_than_division(self):
        assert parse_field_expr("3/2^2", VARS) == parse_field_expr("3/4", VARS)

    def test_leading_sign(self):
        assert parse_field_expr("-x", VARS) == -parse_field_expr("x", VARS)
        assert parse_field_expr("+x", VARS) == parse_field_expr("x", VARS)

    def test_rational_literal(self):
        f = parse_field_expr("1/2", VARS)
        assert f.const_value() == Fraction(1, 2)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_field_expr("x y", VARS)

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_field_expr("x + $", VARS)
        assert exc.value.pos == 4


class TestOperatorGrammar:
    def test_word_order_preserved(self, p1):
        assert parse_operator_expr("D2*D1", p1) == rewrite_normalize(word(p1, (2, 1)), p1)

    def test_sum_of_terms(self, p1):
        want = rewrite_normalize(word(p1, ("x", 1), (2,)), p1)
        assert parse_operator_expr("x*D1 + D2", p1) == want

    def test_interleaved_coefficient(self, p1):
        want = rewrite_normalize(word(p1, (1, "x", 2)), p1)
        assert parse_operator_expr("D1*x*D2", p1) == want

    def test_power_repeats_composition(self, p1):
        assert parse_operator_expr("D1^3", p1) == parse_operator_expr("D1*D1*D1", p1)
        assert parse_operator_expr("(D2*x)^0", p1) == parse_operator_expr("1", p1)

    def test_unknown_derivation(self, p1):
        with pytest.raises(UnknownDerivation):
            parse_operator_expr("D5", p1)

    def test_division_by_operator_rejected(self, p1):
        with pytest.raises(ExprSyntaxError):
            parse_operator_expr("x/D1", p1)

    def test_divisor_judged_by_normal_form(self, p1):
        # D1*x - x*D1 is the coefficient D1(x) = 1, and D1 - D1 is zero
        assert parse_operator_expr("x/(D1*x - x*D1)", p1) == parse_operator_expr("x", p1)
        assert parse_operator_expr("D2/(D2*y - y*D2)", p1) == parse_operator_expr("D2", p1)
        with pytest.raises(DivisionByZero):
            parse_operator_expr("x/(D1 - D1)", p1)

    def test_division_by_coefficient(self, p1):
        got = parse_operator_expr("D1/y", p1)
        # composition with multiplication by 1/y on the right
        rng = random.Random(91)

        for _ in range(5):
            f = rand_ratfunc(rng, p1.vars, 2)
            y = parse_field_expr("y", p1.vars)
            d1f_over_y = apply_operator(
                parse_operator_expr("D1", p1), f / y, p1
            )
            assert apply_operator(got, f, p1) == d1f_over_y


class TestNormalPolyGrammar:
    def test_xvar(self, p1):
        q = parse_normalpoly_expr("X[1,0]", p1)
        assert q.x_support() == {(1, 0)}

    def test_arity_checked(self, p1):
        from liediff import ArityMismatch

        with pytest.raises(ArityMismatch):
            parse_normalpoly_expr("X[1]", p1)

    def test_undeclared_identifier_is_slot(self, p1):
        q = parse_normalpoly_expr("a1*X[0,0] + x", p1)
        assert q.slots() == {"a1"}

    def test_declared_identifier_is_coefficient(self, p1):
        q = parse_normalpoly_expr("x*X[0,0]", p1)
        assert q.slots() == set()


class TestRoundTrip:
    def test_ratfunc(self):
        rng = random.Random(92)
        for _ in range(30):
            f = rand_ratfunc(rng, VARS)
            assert parse_field_expr(str(f), VARS) == f

    def test_normal_operator(self, p1):
        rng = random.Random(93)
        for _ in range(20):
            op = normalize(rand_word(rng, p1), p1)
            back = parse_operator_expr(str(op), p1)
            assert back == op

    def test_normal_poly(self, p1):
        rng = random.Random(94)
        for _ in range(20):
            q = rand_npoly(rng, p1)
            assert parse_normalpoly_expr(str(q), p1) == q

    def test_zero_forms(self, p1):
        assert str(NormalOperator.zero(p1.vars, p1.n)) == "0"
        assert parse_operator_expr("0", p1).is_zero()
