import random
import sys
import threading
import time

import pytest

from liediff import (
    ArityMismatch,
    InvalidMultiIndex,
    NormalOperator,
    NormalPoly,
    OpWord,
    Presentation,
    RatFunc,
    UnknownDerivation,
    UnknownVariable,
    apply_operator,
    first_order_commutator,
    fresh_extension,
    indices_up_to,
    normalize,
    op_commutator,
    op_mul,
    parse_field_expr,
    parse_operator_expr,
)
from liediff.normalpoly import x_action
from liediff import ops
from liediff.ops import _entry
from conftest import cold_copy, make_presentation, rand_poly, rand_word, word
from oracles import rewrite_normalize


def rf(text, pres):
    return parse_field_expr(text, pres.vars)


def mono(pres, I, coeff="1"):
    return NormalOperator.monomial(pres.vars, pres.n, I, rf(coeff, pres))


class TestNormalize:
    def test_commuting_swap(self, p_abelian):
        w = word(p_abelian, (2, 1))
        got = normalize(w, p_abelian)
        assert got == mono(p_abelian, (1, 1))

    def test_bracket_correction_with_apply_oracle(self, p1):
        # oracle first: both the raw word and the claimed normal form send
        # x^2*y to 2*x*y + 2*x
        w = word(p1, (2, 1))
        f = rf("x^2*y", p1)
        expected_value = rf("2*x*y + 2*x", p1)
        assert apply_operator(w, f, p1) == expected_value
        got = normalize(w, p1)
        assert apply_operator(got, f, p1) == expected_value
        assert got == mono(p1, (1, 1)) + mono(p1, (1, 0), "-1")

    def test_coefficient_pullout_with_random_oracle(self, p1):
        # D1 . x acts as f -> x*D1(f) + f
        w = word(p1, (1, "x"))
        rng = random.Random(21)
        x = rf("x", p1)
        for _ in range(10):
            f = RatFunc.from_poly(rand_poly(rng, p1.vars, 3))
            d1f = apply_operator(mono(p1, (1, 0)), f, p1)
            assert apply_operator(w, f, p1) == x * d1f + f
        assert normalize(w, p1) == mono(p1, (1, 0), "x") + mono(p1, (0, 0))

    def test_unknown_derivation(self, p1):
        w = OpWord(p1.vars, 3, [(3,)])
        with pytest.raises(UnknownDerivation):
            normalize(w, p1)

    def test_step_count_is_bounded(self, p_heis):
        # fully inverted word with interleaved coefficients, on a copy of
        # heis with a cold table, so that the count does not depend on the
        # tests that ran before
        pres = cold_copy(p_heis)
        z = rf("z", pres)
        w = OpWord(pres.vars, 3, [(3, z, 2, z, 1)])
        stats = {}
        got = normalize(w, pres, stats=stats)
        assert not got.is_zero()
        assert stats["steps"] <= 200

    def test_rewrite_oracle_counts_steps(self, p1):
        stats = {}
        w = word(p1, (2, 1) * 3)
        got = rewrite_normalize(w, p1, stats=stats)
        assert got == normalize(w, p1)
        assert stats["steps"] == 71

    def test_unknown_strategy(self, p1):
        w = word(p1, (2, 1))
        for engine in (normalize, rewrite_normalize):
            with pytest.raises(ValueError):
                engine(w, p1, strategy="middle")


class TestLongWords:
    # both words hang the rewrite engine, whose cost grows exponentially

    def test_one_derivation_past_a_long_power(self, p1):
        got = normalize(word(p1, (2,) + (1,) * 1500), p1)
        assert got == mono(p1, (1500, 1)) + mono(p1, (1500, 0), "-1500")

    def test_scaling_word_is_sound_and_fast(self, p1):
        # (D2*D1)^k on a cold table fills exactly 2k(k+1) entries, the count
        # that replaces the rewrite engine's exponential step count
        pres = cold_copy(p1)
        k = 10
        w = word(pres, (2, 1) * k)
        rng = random.Random(106)
        polys = [RatFunc.from_poly(rand_poly(rng, pres.vars, 3)) for _ in range(20)]
        nf = normalize(w, pres)
        assert len(pres._pbw) == 2 * k * (k + 1) == 220
        for f in polys:
            assert apply_operator(nf, f, pres) == apply_operator(w, f, pres)



class TestNormalOperatorOperand:
    # both engines read a normal operator's terms c*D^I as words, which are
    # already normal-ordered

    def test_engines_return_it_unchanged(self, p1, p_nc, p_heis):
        for pres, seed in ((p1, 111), (p_nc, 112), (p_heis, 113)):
            rng = random.Random(seed)
            ops = [NormalOperator.identity(pres.vars, pres.n)]
            ops += [normalize(rand_word(rng, pres), pres) for _ in range(8)]
            ops.append(parse_operator_expr("x*D2^2", pres))
            ops.append(parse_operator_expr("(1/2 - y)/x*D1^2*D2 - 3*D1 + 7", pres))
            for op in ops:
                for engine in (normalize, rewrite_normalize):
                    assert engine(op, pres) == op

    def test_scaled_power(self, p1):
        op = parse_operator_expr("x*D2^2", p1)
        assert op == mono(p1, (0, 2), "x")
        assert rewrite_normalize(op, p1) == op


class TestExpressionPowers:
    def test_sum_power_matches_iterated_application(self, p1):
        # (D1+D2)^30 expanded as words would have 2^30 terms; a cold table
        # times every entry
        pres = cold_copy(p1)
        start = time.perf_counter()
        got = parse_operator_expr("(D1+D2)^30", pres)
        base = mono(pres, (1, 0)) + mono(pres, (0, 1))
        for f in (rf("x^2*y + y", pres), rf("x^3 - 2*x*y^2", pres)):
            want = f
            for _ in range(30):
                want = apply_operator(base, want, pres)
            assert apply_operator(got, f, pres) == want
        assert time.perf_counter() - start < 10.0

    # the scaling series of the benchmark's reorder workload
    SERIES = (
        [("p1", f"(D2*D1)^{k}", (2, 1) * k) for k in range(1, 6)]
        + [("p1", f"(x*D2*D1)^{k}", ("x", 2, 1) * k) for k in range(1, 4)]
        + [("p1", f"D1^{k}*x^{k}", (1,) * k + ("x",) * k) for k in range(1, 5)]
        + [("p_nc", f"(D2*D1)^{k}", (2, 1) * k) for k in range(1, 4)]
    )

    @pytest.mark.parametrize("name, text, term", SERIES)
    def test_series_equals_rewrite_of_word(self, request, name, text, term):
        pres = request.getfixturevalue(name)
        assert parse_operator_expr(text, pres) == rewrite_normalize(word(pres, term), pres)


class TestNormalOperatorKeys:
    @pytest.mark.parametrize("I", [(-1, 1), (0, -2), (1.0, 1), ("1", 0), (True, 0)])
    def test_entries_must_be_nonnegative_ints(self, p1, I):
        # (-1, 1) once printed as D1^-1*D2 and normalized silently to D2
        with pytest.raises(InvalidMultiIndex):
            NormalOperator(p1.vars, p1.n, {I: rf("1", p1)})

    def test_arity_checked(self, p1):
        with pytest.raises(ArityMismatch):
            NormalOperator(p1.vars, p1.n, {(1, 0, 0): rf("1", p1)})

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_first_order_coefficient_count(self, p1, count):
        # three coefficients over two derivations once gave x*D1 + y*D2 + 5
        coeffs = [rf(t, p1) for t in ("x", "y", "5")][:count]
        with pytest.raises(ArityMismatch):
            NormalOperator.first_order(coeffs, 2)


class TestSharedTable:
    # every call over one presentation reads and fills its PBW table

    def test_repeated_word_adds_no_entries(self, p_heis):
        pres = cold_copy(p_heis)
        w = word(pres, (3, "z", 2, "z", 1), (2, 1, 3))
        first, again = {}, {}
        got = normalize(w, pres, stats=first)
        assert first["steps"] == len(pres._pbw) > 0
        assert normalize(w, pres, stats=again) == got
        assert again["steps"] == 0
        assert got == rewrite_normalize(w, pres)

    def test_calls_share_the_table(self, p_nc):
        # the parser, op_mul, fresh_extension and x_action over one
        # presentation fill one table: a repeated call adds nothing
        pres = cold_copy(p_nc)
        got = parse_operator_expr("(D2*D1)^3", pres)
        size = len(pres._pbw)
        assert parse_operator_expr("(D2*D1)^3", pres) == got
        assert len(pres._pbw) == size
        assert op_mul(got, got, pres) == normalize(word(pres, (2, 1) * 6), cold_copy(p_nc))
        ext = fresh_extension(pres, 3)
        size = len(pres._pbw)
        for (i, I), q in ext.actions.items():
            assert x_action(i, I, pres) == q
        assert len(pres._pbw) == size

    def test_fresh_extension_adds_only_the_next_order(self, p_heis):
        pres = cold_copy(p_heis)
        fresh_extension(pres, 2)
        before = set(pres._pbw)
        assert all(sum(I) <= 1 for _, I in before)
        fresh_extension(pres, 3)
        added = set(pres._pbw) - before
        wanted = {(i, I) for i in range(1, 4) for I in indices_up_to(3, 2) if sum(I) == 2}
        assert wanted <= added
        assert all(sum(I) == 2 for _, I in added)

    @pytest.mark.parametrize(
        "key, error",
        [
            ((2, (-1, 2)), InvalidMultiIndex),  # once an endless fill loop
            ((1, (0, -1)), InvalidMultiIndex),  # once stored as an entry
            ((3, (0, 0)), UnknownDerivation),
            ((0, (1, 0)), UnknownDerivation),
            ((1, (0, 0, 1)), ArityMismatch),
        ],
    )
    def test_bad_keys_raise_and_are_not_stored(self, p_nc, key, error):
        pres = cold_copy(p_nc)
        _entry(pres, 2, (1, 1))
        raised = []

        def call():
            try:
                _entry(pres, *key)
            except error as e:
                raised.append(e)

        t = threading.Thread(target=call, daemon=True)
        t.start()
        t.join(timeout=1.0)
        assert not t.is_alive() and raised
        assert key not in pres._pbw

    def test_replace_starts_an_empty_table(self, p1, p_abelian):
        pres = cold_copy(p1)
        assert pres._pbw == {}
        w = word(pres, (2, 1))
        assert normalize(w, pres) == mono(pres, (1, 1)) + mono(pres, (1, 0), "-1")
        assert pres._pbw and "_pbw" not in repr(pres)
        # a table carried over from p1 would still add the bracket term
        q = Presentation(pres.vars, p_abelian.derivations, p_abelian.alpha)
        assert q._pbw == {} and repr(q) == repr(p_abelian)
        assert normalize(w, q) == mono(q, (1, 1))


class TestOpAdd:
    def test_zero_identity(self, p1):
        a = mono(p1, (1, 0), "x")
        assert a + NormalOperator.zero(p1.vars, p1.n) == a

    def test_cancellation(self, p1):
        a = mono(p1, (1, 0))
        assert (a + mono(p1, (1, 0), "-1")).is_zero()

    def test_disjoint_terms(self, p1):
        s = mono(p1, (1, 0)) + mono(p1, (0, 1))
        assert len(s.terms) == 2

    def test_normal_poly_operand_rejected(self):
        # an operator and a normal polynomial share the sum arithmetic but
        # not their keys; neither order may mix them
        op = NormalOperator.identity(("x",), 1)
        q = NormalPoly.xvar(("x",), 1, (1,))
        for a, b in ((op, q), (q, op)):
            with pytest.raises(ArityMismatch) as exc:
                a + b
            assert "NormalOperator" in str(exc.value) and "NormalPoly" in str(exc.value)


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
        assert got == normalize(word(p1, (2, 1)), p1)

    def test_other_presentation_rejected(self, p1, p_heis):
        heis_op = NormalOperator.identity(p_heis.vars, p_heis.n)
        with pytest.raises(UnknownVariable):
            op_mul(heis_op, heis_op, p1)
        wide = NormalOperator.monomial(p1.vars, 3, (0, 0, 1), rf("1", p1))
        with pytest.raises(UnknownDerivation):
            op_mul(wide, wide, p1)

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
                assert op_mul(a, b + c, pres) == op_mul(a, b, pres) + op_mul(a, c, pres)


class TestApply:
    def test_first_order(self, p1):
        assert apply_operator(mono(p1, (1, 0)), rf("x^2*y", p1), p1) == rf("2*x*y", p1)

    def test_second_order_combination(self, p1):
        op = mono(p1, (1, 1)) + mono(p1, (1, 0), "-1")
        assert apply_operator(op, rf("x^2*y", p1), p1) == rf("2*x*y + 2*x", p1)

    def test_unit_coefficient_costs_no_gcd(self, p1, gcd_calls):
        f = rf("(x^2 + y)/(x - y + 1)", p1)
        gcd_calls.clear()
        assert apply_operator(NormalOperator.identity(p1.vars, p1.n), f, p1) == f
        assert gcd_calls == []

    def test_operator_variables_checked(self, p1):
        # an operator over (u, v) has no meaning over p1's (x, y)
        p_uv = make_presentation(("u", "v"), [("1", "0"), ("0", "1")], {})
        op = parse_operator_expr("D1*D2", p_uv)
        with pytest.raises(UnknownVariable):
            apply_operator(op, rf("x^2*y", p1), p1)

    def test_zero_operator(self, p1):
        got = apply_operator(NormalOperator.zero(p1.vars, p1.n), rf("x^2", p1), p1)
        assert got.is_zero()

    def test_each_derivative_taken_once(self, p1, monkeypatch):
        # D1^2, D1*D2 and D1 share the prefixes D1 f and D2 f: four
        # derivations in all, where term by term takes five
        op = parse_operator_expr("D1^2 + (1/x)*D1*D2 - y*D1 + 1", p1)
        f = rf("(x^2 + y)/(x - y + 1)", p1)
        want = apply_operator(OpWord(p1.vars, p1.n, ops._words(op)), f, p1)
        calls = []
        real = ops.derive

        def counting(D, g):
            calls.append(D.name)
            return real(D, g)

        monkeypatch.setattr(ops, "derive", counting)
        assert apply_operator(op, f, p1) == want
        assert sorted(calls) == ["D1", "D1", "D1", "D2"]

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
        assert str(parse_operator_expr(text, p1)) == printed


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


def _prefixed_words(rng, pres, count):
    # words that share a prefix of derivation symbols, so that they need
    # many of the same table entries
    stem = tuple(rng.randint(1, pres.n) for _ in range(4))
    tails = [rand_word(rng, pres, maxlen=3, max_terms=1).terms[0] for _ in range(count)]
    return [OpWord(pres.vars, pres.n, [stem + tail, tail + stem[:2]]) for tail in tails]


def test_shared_values_are_thread_safe(p_nc, p_heis):
    # Four threads start together on a cold table and race to fill it: each
    # must get the serial results, which another cold copy computes, and a
    # sample must match the rewrite oracle.  The short switch interval makes
    # the threads interleave inside the table's fill loop.
    from concurrent.futures import ThreadPoolExecutor

    for pres, seed in ((p_nc, 105), (p_heis, 106)):
        rng = random.Random(seed)
        words = _prefixed_words(rng, pres, 16)
        ref = cold_copy(pres)
        serial = [normalize(w, ref) for w in words]
        for w, nf in zip(words[:4], serial):
            assert nf == rewrite_normalize(w, pres)
        for _ in range(3):
            cold = cold_copy(pres)
            start = threading.Barrier(4)
            orders = [rng.sample(range(len(words)), len(words)) for _ in range(4)]

            def run(order):
                start.wait(timeout=30)
                return {i: normalize(words[i], cold) for i in order}

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(run, order) for order in orders]
                    results = [f.result(timeout=120) for f in futures]
            finally:
                sys.setswitchinterval(interval)
            for got in results:
                assert [got[i] for i in range(len(words))] == serial
            assert set(cold._pbw) == set(ref._pbw)
