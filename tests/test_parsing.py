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
    op_mul,
    parse_field_expr,
    parse_normalpoly_expr,
    parse_operator_expr,
)
from conftest import DATA, rand_npoly, rand_ratfunc, rand_word, run_python, word
from oracles import rewrite_normalize

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

    @pytest.mark.parametrize("name", ["p1", "p_nc"])
    @pytest.mark.parametrize("c", ["0", "x", "(x+1)/y"])
    def test_coefficient_power_equals_repeated_product(self, request, name, c):
        # a pure coefficient takes the field's power, which must equal the
        # k-fold composition, 0^0 and x^0 included
        pres = request.getfixturevalue(name)
        base = parse_operator_expr(c, pres)
        want = NormalOperator.identity(pres.vars, pres.n)
        for k in range(41):
            got = parse_operator_expr(f"({c})^{k}", pres)
            assert got == want and str(got) == str(want)
            want = op_mul(base, want, pres)

    def test_coefficient_power_reaches_the_degree_ceiling(self):
        # a coefficient power goes straight to the field's degree ceiling,
        # not through k products: once the presentation is loaded (its
        # validation multiplies), the child counts the kernel's products,
        # each of which passes through field._mul_into, and its timeout
        # bounds the run if it hangs
        code = (
            "import liediff.cli as cli\n"
            "import liediff.field as field\n"
            "from liediff import DegreeOverflow, parse_operator_expr\n"
            f"pres = cli.load_presentation({str(DATA / 'p1.json')!r})\n"
            "cli.load_presentation = lambda path, validate=True: pres\n"
            "products = []\n"
            "real = field._mul_into\n"
            "def counting(*args):\n"
            "    products.append(1)\n"
            "    return real(*args)\n"
            "field._mul_into = counting\n"
            "code = cli.main(['normalize', '-p', 'p1.json', 'x^2147483648'])\n"
            "try:\n"
            "    parse_operator_expr('x^2147483648', pres)\n"
            "    raise SystemExit('parse_operator_expr did not raise DegreeOverflow')\n"
            "except DegreeOverflow:\n"
            "    pass\n"
            "print(code, len(products))\n"
        )
        out = run_python(code, timeout=20)
        assert out.returncode == 0, out.stderr
        assert "reaches the ceiling 2^31" in out.stderr
        status, products = out.stdout.split()
        assert status == "2" and products == "0"

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
