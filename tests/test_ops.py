import random
import time

import pytest

from liediff import (
    ArityMismatch,
    NegativeExponent,
    NormalOperator,
    OpWord,
    RatFunc,
    UnknownDerivation,
    apply_operator,
    first_order_commutator,
    normalize,
    op_add,
    op_commutator,
    op_mul,
    parse_field_expr,
    parse_operator_expr,
    rewrite_normalize,
)
from conftest import rand_poly, rand_word


def rf(text, pres):
    return parse_field_expr(text, pres.vars)


def mono(pres, I, coeff="1"):
    return NormalOperator.monomial(pres.vars, pres.n, I, rf(coeff, pres))


class TestNormalize:
    def test_commuting_swap(self, p_abelian):
        w = parse_operator_expr("D2*D1", p_abelian)
        got = normalize(w, p_abelian)
        assert got == mono(p_abelian, (1, 1))

    def test_bracket_correction_with_apply_oracle(self, p1):
        # oracle first: both the raw word and the claimed normal form send
        # x^2*y to 2*x*y + 2*x
        w = parse_operator_expr("D2*D1", p1)
        f = rf("x^2*y", p1)
        expected_value = rf("2*x*y + 2*x", p1)
        assert apply_operator(w, f, p1) == expected_value
        got = normalize(w, p1)
        assert apply_operator(got, f, p1) == expected_value
        assert got == mono(p1, (1, 1)) + mono(p1, (1, 0), "-1")

    def test_coefficient_pullout_with_random_oracle(self, p1):
        # D1 . x acts as f -> x*D1(f) + f
        w = parse_operator_expr("D1*x", p1)
        rng = random.Random(21)
        x = rf("x", p1)
        for _ in range(10):
            f = RatFunc.from_poly(rand_poly(rng, p1.vars, 3))
            d1f = apply_operator(parse_operator_expr("D1", p1), f, p1)
            assert apply_operator(w, f, p1) == x * d1f + f
        assert normalize(w, p1) == mono(p1, (1, 0), "x") + mono(p1, (0, 0))

    def test_unknown_derivation(self, p1):
        w = OpWord(p1.vars, 3, [(3,)])
        with pytest.raises(UnknownDerivation):
            normalize(w, p1)

    def test_step_count_is_bounded(self, p_heis):
        # fully inverted word with interleaved coefficients
        z = rf("z", p_heis)
        w = OpWord(p_heis.vars, 3, [(3, z, 2, z, 1)])
        stats = {}
        got = normalize(w, p_heis, stats=stats)
        assert not got.is_zero()
        assert stats["steps"] <= 200

    def test_rewrite_oracle_counts_steps(self, p1):
        stats = {}
        got = rewrite_normalize(parse_operator_expr("(D2*D1)^3", p1), p1, stats=stats)
        assert got == normalize(parse_operator_expr("(D2*D1)^3", p1), p1)
        assert stats["steps"] == 71

    def test_unknown_strategy(self, p1):
        w = parse_operator_expr("D2*D1", p1)
        for engine in (normalize, rewrite_normalize):
            with pytest.raises(ValueError):
                engine(w, p1, strategy="middle")


class TestLongWords:
    # both words hang the rewrite engine, whose cost grows exponentially

    def test_one_derivation_past_a_long_power(self, p1):
        got = normalize(parse_operator_expr("D2*D1^1500", p1), p1)
        assert got == mono(p1, (1500, 1)) + mono(p1, (1500, 0), "-1500")

    def test_scaling_word_is_sound_and_fast(self, p1):
        w = parse_operator_expr("(D2*D1)^10", p1)
        rng = random.Random(106)
        polys = [RatFunc.from_poly(rand_poly(rng, p1.vars, 3)) for _ in range(20)]
        start = time.perf_counter()
        nf = normalize(w, p1)
        for f in polys:
            assert apply_operator(nf, f, p1) == apply_operator(w, f, p1)
        assert time.perf_counter() - start < 1.0


class TestOpWordPow:
    def test_power_repeats_composition(self, p1):
        d = parse_operator_expr("D2*D1", p1)
        assert (d**3).terms == (d * d * d).terms
        assert (d**0).terms == ((),)

    def test_negative_power_rejected(self, p1):
        with pytest.raises(NegativeExponent):
            parse_operator_expr("D2*D1", p1) ** -1


class TestOpAdd:
    def test_zero_identity(self, p1):
        a = mono(p1, (1, 0), "x")
        assert op_add(a, NormalOperator.zero(p1.vars, p1.n)) == a

    def test_cancellation(self, p1):
        a = mono(p1, (1, 0))
        assert op_add(a, mono(p1, (1, 0), "-1")).is_zero()

    def test_disjoint_terms(self, p1):
        s = op_add(mono(p1, (1, 0)), mono(p1, (0, 1)))
        assert len(s.terms) == 2


class TestOpMul:
    def test_identity(self, p1):
        a = mono(p1, (1, 1), "x") + mono(p1, (0, 0), "y")
        assert op_mul(NormalOperator.identity(p1.vars, p1.n), a, p1) == a
        assert op_mul(a, NormalOperator.identity(p1.vars, p1.n), p1) == a

    def test_composition_with_coefficient(self, p1):
        got = op_mul(mono(p1, (1, 0)), mono(p1, (0, 0), "x"), p1)
        assert got == mono(p1, (1, 0), "x") + mono(p1, (0, 0))

    def test_composition_reorders(self, p1):
        got = op_mul(mono(p1, (0, 1)), mono(p1, (1, 0)), p1)
        assert got == normalize(parse_operator_expr("D2*D1", p1), p1)

    def test_associative_and_distributive_random(self, p1, p_nc):
        for pres, seed in ((p1, 31), (p_nc, 32)):
            rng = random.Random(seed)
            for _ in range(10):
                a = normalize(rand_word(rng, pres, maxlen=2), pres)
                b = normalize(rand_word(rng, pres, maxlen=2), pres)
                c = normalize(rand_word(rng, pres, maxlen=2), pres)
                assert op_mul(op_mul(a, b, pres), c, pres) == op_mul(
                    a, op_mul(b, c, pres), pres
                )
                assert op_mul(a, op_add(b, c), pres) == op_add(
                    op_mul(a, b, pres), op_mul(a, c, pres)
                )


class TestApply:
    def test_first_order(self, p1):
        assert apply_operator(mono(p1, (1, 0)), rf("x^2*y", p1), p1) == rf("2*x*y", p1)

    def test_second_order_combination(self, p1):
        op = mono(p1, (1, 1)) + mono(p1, (1, 0), "-1")
        assert apply_operator(op, rf("x^2*y", p1), p1) == rf("2*x*y + 2*x", p1)

    def test_zero_operator(self, p1):
        got = apply_operator(NormalOperator.zero(p1.vars, p1.n), rf("x^2", p1), p1)
        assert got.is_zero()

    @pytest.mark.parametrize("n, I", [(3, (0, 0, 1)), (1, (1,))])
    def test_operator_arity_checked(self, p1, n, I):
        # a derivation the presentation lacks is neither dropped nor an IndexError
        a = NormalOperator.monomial(p1.vars, n, I, rf("1", p1))
        with pytest.raises(UnknownDerivation):
            apply_operator(a, rf("x^2*y", p1), p1)


class TestPrinting:
    @pytest.mark.parametrize(
        "text, printed",
        [
            ("D1", "D1"),
            ("-D2", "-D2"),
            ("(x+y)*D1^2*D2", "(x + y)*D1^2*D2"),
            ("(y-x)*D1", "-(x - y)*D1"),
            ("x/y*D2 - 3", "x/y*D2 - 3"),
            ("-(x+1)/(y-1)*D1*D2^3", "-(x + 1)/(y - 1)*D1*D2^3"),
            ("1/2*D1", "1/2*D1"),
            ("7", "7"),
            ("x + y", "(x + y)"),
            ("0", "0"),
            ("-x*D1 + (x^2+1)*D2^2 - 5/3", "(x^2 + 1)*D2^2 - x*D1 - 5/3"),
        ],
    )
    def test_exact_text(self, p1, text, printed):
        assert str(normalize(parse_operator_expr(text, p1), p1)) == printed


class TestCommutator:
    def test_self_commutator_vanishes(self, p1):
        a = mono(p1, (1, 1), "x") + mono(p1, (0, 1))
        assert op_commutator(a, a, p1).is_zero()

    def test_single_variable_example(self):
        from conftest import make_presentation

        p = make_presentation(("x",), [("1",)], {})
        d = NormalOperator.monomial(p.vars, 1, (1,), rf("1", p))
        xd = NormalOperator.monomial(p.vars, 1, (1,), rf("x", p))
        assert op_commutator(d, xd, p) == d

    def test_restates_structure_constants(self, p1):
        got = op_commutator(mono(p1, (1, 0)), mono(p1, (0, 1)), p1)
        assert got == mono(p1, (1, 0))


class TestFirstOrderCommutator:
    def test_equal_inputs_vanish(self, p1):
        u = (rf("x", p1), rf("y", p1))
        assert all(c.is_zero() for c in first_order_commutator(u, u, p1))

    def test_abelian_example(self, p_abelian):
        u = (rf("1", p_abelian), rf("0", p_abelian))
        v = (rf("x", p_abelian), rf("1", p_abelian))
        got = first_order_commutator(u, v, p_abelian)
        assert got == [rf("1", p_abelian), rf("0", p_abelian)]

    def test_reduces_to_structure_constants(self, p1):
        u = (rf("1", p1), rf("0", p1))
        v = (rf("0", p1), rf("1", p1))
        got = first_order_commutator(u, v, p1)
        assert got == [p1.alpha.get(1, 2, 1), p1.alpha.get(1, 2, 2)]

    def test_arity_mismatch(self, p1):
        with pytest.raises(ArityMismatch):
            first_order_commutator((rf("1", p1),), (rf("1", p1),), p1)

    def test_agrees_with_engine_random(self, p1, p_nc):
        for pres, seed in ((p1, 41), (p_nc, 42)):
            rng = random.Random(seed)
            for _ in range(20):
                u = tuple(
                    RatFunc.from_poly(rand_poly(rng, pres.vars, 2))
                    for _ in range(pres.n)
                )
                v = tuple(
                    RatFunc.from_poly(rand_poly(rng, pres.vars, 2))
                    for _ in range(pres.n)
                )
                closed = NormalOperator.first_order(
                    first_order_commutator(u, v, pres), pres.n
                )
                engine = op_commutator(
                    NormalOperator.first_order(u, pres.n),
                    NormalOperator.first_order(v, pres.n),
                    pres,
                )
                assert closed == engine


def _soundness_suite(pres, seed, words, polys):
    rng = random.Random(seed)
    for _ in range(words):
        w = rand_word(rng, pres)
        left = rewrite_normalize(w, pres, strategy="leftmost")
        right = rewrite_normalize(w, pres, strategy="rightmost")
        assert left == right, "strategies disagree"
        nf = normalize(w, pres)
        assert nf == left, "table engine disagrees with the rewrite oracle"
        for _ in range(polys):
            f = RatFunc.from_poly(rand_poly(rng, pres.vars, 3))
            assert apply_operator(nf, f, pres) == apply_operator(w, f, pres)


class TestSoundnessAndConfluence:
    def test_p1(self, p1):
        _soundness_suite(p1, 101, words=25, polys=4)

    def test_abelian(self, p_abelian):
        _soundness_suite(p_abelian, 102, words=25, polys=4)

    def test_nonconstant_alpha(self, p_nc):
        _soundness_suite(p_nc, 103, words=25, polys=4)

    def test_three_derivations(self, p_heis):
        _soundness_suite(p_heis, 104, words=15, polys=3)


def test_shared_values_are_thread_safe(p1):
    # immutable values and pure functions: concurrent normalization of the
    # same words over the same presentation matches the serial results
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(105)
    words = [rand_word(rng, p1) for _ in range(24)]
    serial = [normalize(w, p1) for w in words]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda w: normalize(w, p1), words))
    assert parallel == serial
