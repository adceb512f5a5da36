"""Workloads of the benchmark: presentations, seeded inputs, operations and
output checks.

Each workload's build function makes the pool of operations of one pass of
the closed loop in run.py from a random generator seeded by (seed, pass).
Each operation is one call a user of the library or of the CLI would make.
The pools of all passes have the same shapes; the seeded constants differ,
so that no input repeats from one pass to the next except the few fixed
ones (the scaling series, fresh_extension, and the CLI golden cases and
validate/frobenius calls).  run.py
times the call alone and checks every output after its pass, by an
independent route wherever the library has one.  NOTES.md explains why each
workload exists and which layer it stresses.

Library functions are always looked up on their module at call time
(``ops.normalize``, never a name bound at import), so that the traced run's
rebinding reaches every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

from liediff import cli, field, frobenius, lie, normalpoly, ops, parsing
from liediff.field import MPoly, RatFunc
from liediff.normalpoly import NormalPoly
from liediff.ops import NormalOperator, OpWord

#: Wall-clock limit of one operation; an overrun stops it and counts it as
#: failed.  At the seed commit the slowest operation of any workload takes
#: about 1.2 s untraced, so a healthy run never comes near it.
DEADLINE_S = 20.0

# Presentations as in tests/conftest.py and tests/data: p1 is [D1,D2] = D1,
# p_nc has the non-constant structure constant [D1,D2] = (1/x) D2, and heis
# is the Heisenberg algebra [D1,D2] = D3 on three variables.
PRESENTATIONS = {
    "p1": {
        "vars": ["x", "y"],
        "derivations": [
            {"name": "D1", "action": {"x": "1", "y": "0"}},
            {"name": "D2", "action": {"x": "x", "y": "1"}},
        ],
        "alpha": [{"k": 1, "l": 2, "m": 1, "value": "1"}],
    },
    "p_nc": {
        "vars": ["x", "y"],
        "derivations": [
            {"name": "D1", "action": {"x": "1", "y": "0"}},
            {"name": "D2", "action": {"x": "0", "y": "x"}},
        ],
        "alpha": [{"k": 1, "l": 2, "m": 2, "value": "1/x"}],
    },
    "heis": {
        "vars": ["x", "y", "z"],
        "derivations": [
            {"name": "D1", "action": {"x": "1", "y": "0", "z": "-y/2"}},
            {"name": "D2", "action": {"x": "0", "y": "1", "z": "x/2"}},
            {"name": "D3", "action": {"x": "0", "y": "0", "z": "1"}},
        ],
        "alpha": [{"k": 1, "l": 2, "m": 3, "value": "1"}],
    },
}

# Inverses of the evaluation matrices of p_nc and heis; C * MINV is a
# commuting, independent family for every invertible constant matrix C.
MINV = {
    "p_nc": [["1", "0"], ["0", "1/x"]],
    "heis": [["1", "0", "y/2"], ["0", "1", "-x/2"], ["0", "0", "1"]],
}

# The three CLI golden cases of tests/test_acceptance.py (C10), with the
# bytes of tests/golden.
GOLDEN = [
    (["normalize", "-p", "{p1}", "D2*D1"], 0, b"D1*D2 - D1\n"),
    (
        ["frobenius", "-p", "{p1}"],
        0,
        b"A = [[1, 0], [-x, 1]]\nDbar1: x -> 1, y -> 0\nDbar2: x -> 0, y -> 1\n",
    ),
    (
        ["check-commuting", "-p", "{p1}", "-A", "{identity}"],
        1,
        b"(l,k,j)=(1,2,1): residual = 1\n(l,k,j)=(2,1,1): residual = -1\n",
    ),
]


def load_presentation(obj):
    """Build a presentation from its JSON object and validate it."""
    pres = cli.presentation_from_obj(obj)
    report = lie.check_presentation(pres)
    if report:
        raise RuntimeError(f"benchmark presentation is invalid: {report}")
    return pres


class Op:
    """One pool item: a call into the system under test, the check of its
    output, and the text of the output that enters the digest."""

    __slots__ = ("label", "call", "check", "render", "size")

    def __init__(self, label, call, check, render=str, size=None):
        self.label = label
        self.call = call
        self.check = check
        self.render = render
        self.size = size or _size


def _size(out) -> int:
    """Number of terms in an output, for the exact work counts."""
    if isinstance(out, RatFunc):
        return len(out.num.terms) + len(out.den.terms)
    if isinstance(out, (NormalOperator, NormalPoly)):
        return len(out.terms)
    if isinstance(out, (list, tuple)):
        return sum(_size(x) for x in out)
    return 1


# -- random inputs -------------------------------------------------------------


def rand_poly(rng, vars, deg: int, nterms: int = 4) -> MPoly:
    terms: dict = {}
    for _ in range(rng.randint(1, nterms)):
        rem = rng.randint(0, deg)
        e = []
        for _ in range(len(vars) - 1):
            k = rng.randint(0, rem)
            e.append(k)
            rem -= k
        e.append(rem)
        key = tuple(e)
        terms[key] = terms.get(key, 0) + rng.randint(-4, 4)
    return MPoly(vars, terms)


def poly_elem(rng, vars, deg: int) -> RatFunc:
    return field.RatFunc.from_poly(rand_poly(rng, vars, deg))


def rand_word(rng, pres, maxlen: int, coeff_deg: int, max_terms: int = 2) -> OpWord:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        term = []
        for _ in range(rng.randint(0, maxlen)):
            if rng.random() < 0.55:
                term.append(rng.randint(1, pres.n))
            else:
                term.append(poly_elem(rng, pres.vars, coeff_deg))
        terms.append(tuple(term))
    return OpWord(pres.vars, pres.n, terms)


def wide(rng) -> int:
    """A seeded constant from a wide range, so that an input drawn with it
    almost never repeats from one pass to the next."""
    return rng.choice((-1, 1)) * rng.randint(2, 999)


def normal_op(rng, pres, i: int) -> NormalOperator:
    """A two-term normal operator of order <= 2 whose multi-indices and
    coefficient variables are fixed by i; the seed draws the constants of
    the coefficients v + c."""
    idxs = normalpoly.indices_up_to(pres.n, 2)
    vs = pres.vars
    terms = {}
    for j in range(2):
        v = MPoly.variable(vs, vs[(i + j) % len(vs)])
        c = MPoly.const(vs, wide(rng))
        terms[idxs[(3 * i + 5 * j + 1) % len(idxs)]] = field.RatFunc.from_poly(v + c)
    return NormalOperator(vs, pres.n, terms)


def rand_npoly(rng, pres, max_order: int = 2, nterms: int = 3, coeff_deg: int = 2) -> NormalPoly:
    idxs = normalpoly.indices_up_to(pres.n, max_order)
    out = NormalPoly.zero(pres.vars, pres.n)
    for _ in range(rng.randint(1, nterms)):
        mono: dict = {}
        for _ in range(rng.randint(0, 2)):
            I = rng.choice(idxs)
            mono[I] = mono.get(I, 0) + 1
        c = poly_elem(rng, pres.vars, coeff_deg)
        out = out + NormalPoly(pres.vars, pres.n, {tuple(mono.items()): c})
    return out


def rebased(pres, B):
    """The presentation of D'_i = sum_j B[i][j] D_j, with its structure
    constants solved from the first-order bracket formula."""
    n, vars = pres.n, pres.vars
    zero = RatFunc.zero(vars)
    Binv = frobenius.matrix_invert(B)
    M = [list(d.images) for d in pres.derivations]
    actions = tuple(
        field.DerivationAction(
            f"D{i + 1}", vars,
            tuple(sum((B[i][j] * M[j][v] for j in range(n)), zero) for v in range(len(vars))),
        )
        for i in range(n)
    )
    entries = {}
    for k in range(n):
        for l in range(n):
            if k != l:
                c = ops.first_order_commutator(B[k], B[l], pres)
                for m in range(n):
                    entries[(k + 1, l + 1, m + 1)] = sum((c[j] * Binv[j][m] for j in range(n)), zero)
    alpha = lie.StructureConstants.from_entries(n, vars, entries)
    out = lie.Presentation(vars, actions, alpha)
    if lie.check_presentation(out):
        raise RuntimeError("rebased presentation fails validation")
    return out


# -- independent checks ----------------------------------------------------------


def _test_functions(rng, pres, count: int = 2):
    return [poly_elem(rng, pres.vars, 3) for _ in range(count)]


def check_normal_form(w, pres, fs):
    """C01 soundness: the normal form acts like the word it came from."""
    def check(nf):
        return all(ops.apply_operator(nf, f, pres) == ops.apply_operator(w, f, pres) for f in fs)
    return check


def check_composition(a, b, pres, fs, commutator: bool):
    def check(out):
        for f in fs:
            ab = ops.apply_operator(a, ops.apply_operator(b, f, pres), pres)
            if commutator:
                ab = ab - ops.apply_operator(b, ops.apply_operator(a, f, pres), pres)
            if ops.apply_operator(out, f, pres) != ab:
                return False
        return True
    return check


def check_extension(pres, d):
    """C07: the bracket relation lifts to the fresh extension, on every X_I
    whose second derivatives stay inside the truncation; and D_i sends X_0
    to the fresh variable X_{e_i}."""
    def check(ext):
        n = pres.n
        if ext.order != d:
            return False
        for i in range(1, n + 1):
            e_i = tuple(int(j == i - 1) for j in range(n))
            if ext.action(i, (0,) * n) != NormalPoly.xvar(pres.vars, n, e_i):
                return False
        for I in normalpoly.indices_up_to(n, d - 2):
            q = NormalPoly.xvar(pres.vars, n, I)
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    lhs = ext.derive(k, ext.derive(l, q)) - ext.derive(l, ext.derive(k, q))
                    rhs = NormalPoly.zero(pres.vars, n)
                    for m in range(1, n + 1):
                        c = pres.alpha.get(k, l, m)
                        if not c.is_zero():
                            rhs = rhs + ext.derive(m, q).scale(c)
                    if lhs != rhs:
                        return False
        return True
    return check


def render_extension(ext):
    return "\n".join(f"D{i}X{list(I)} = {q}" for (i, I), q in sorted(ext.actions.items()))


def eval_by_definition(q, b, pres):
    """eval_hom by its definition, applying the unnormalized words D^I."""
    out = RatFunc.zero(pres.vars)
    for m, c in q.terms.items():
        v = c
        for I, e in m:
            word = OpWord(pres.vars, pres.n, [tuple(k + 1 for k, p in enumerate(I) for _ in range(p))])
            v = v * ops.apply_operator(word, b, pres) ** e
        out = out + v
    return out


def bracket_residuals(A, beta, pres):
    """The basis-change residuals through first_order_commutator."""
    n = pres.n
    out = []
    for l in range(n):
        for k in range(n):
            br = ops.first_order_commutator(A[l], A[k], pres)
            for j in range(n):
                res = br[j]
                for m in range(n):
                    c = beta.get(l + 1, k + 1, m + 1)
                    if not c.is_zero():
                        res = res - c * A[m][j]
                if not res.is_zero():
                    out.append(f"(l,k,j)=({l + 1},{k + 1},{j + 1}): residual = {res}")
    return out


def matmul(A, B, vars):
    zero = RatFunc.zero(vars)
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), zero) for j in range(len(B[0]))]
            for i in range(len(A))]


_POINTS = ((101, 103, 107), (-109, 113, 127), (131, -137, 139))


def _eval_poly(p, point):
    out = Fraction(0)
    for e, c in p.terms.items():
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        out += v
    return out


def point_rank(A) -> int:
    """Generic rank of A, from exact ranks over Q at a few integer points:
    the rank at a point never exceeds the generic rank and equals it at all
    but finitely many points.  Independent of the library's field arithmetic."""
    best = 0
    for point in _POINTS:
        rows = []
        for row in A:
            dens = [_eval_poly(x.den, point) for x in row]
            if not all(dens):
                break
            rows.append([_eval_poly(x.num, point) / d for x, d in zip(row, dens)])
        else:
            best = max(best, _rank_q(rows))
    return best


def _rank_q(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def check_rank(A):
    """Bareiss rank against exact ranks at integer points."""
    return lambda rank: rank == point_rank(A)


def check_axiom2(A, pres):
    """Independent and pairwise commuting, by point ranks and
    first_order_commutator."""
    def check(ok):
        n = pres.n
        if point_rank(A) < n:
            return ok is False
        commute = all(
            all(c.is_zero() for c in ops.first_order_commutator(A[r], A[s], pres))
            for r in range(n) for s in range(r + 1, n)
        )
        return ok is commute
    return check


def render_violations(vs):
    return "\n".join(str(v) for v in vs) or "OK"


def render_basis(out):
    A, actions = out
    rows = "; ".join(", ".join(str(e) for e in row) for row in A)
    acts = "; ".join(", ".join(str(e) for e in a.images) for a in actions)
    return f"A = {rows}\n{acts}"


def check_commuting_basis(pres):
    """The constructed basis passes the commuting check of the library."""
    def check(out):
        A, _ = out
        return frobenius.commuting_check(A, pres) == []
    return check


# -- the workloads -----------------------------------------------------------------


def block_shapes(n: int, lengths) -> list[tuple[int, ...]]:
    """Every word of the given lengths that repeats a non-constant block of 2
    or 3 derivation symbols: a fixed design, the same for every seed."""
    blocks = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    blocks += [(a, b, c) for a in range(1, n + 1) for b in range(1, n + 1) for c in range(1, n + 1)]
    return [tuple((blk * L)[:L]) for blk in blocks if len(set(blk)) > 1 for L in lengths]


#: Pool sizes of one pass.  A pass takes a few seconds, so a run makes
#: several, and the pools are large enough for the percentiles to repeat
#: across seeds.
REORDER_P1_LENGTHS = (6, 7)
REORDER_HEIS_LENGTHS = (6, 8)
REORDER_PRODUCTS = 15
APPLY_ITEMS = 250
# Per presentation, except the applies (p_nc only).  The p50 falls among
# the commuting witnesses and bases of middling cost and the p90 inside the
# slowest group (heis basis checks and random witnesses), not on an edge
# between groups.  apply on heis fractions is left out: its cost spreads 3x
# with the seeded constants and moved the p50 from seed to seed.
RATIONAL_BASIS_CHECKS = 12
RATIONAL_RANKS = 8
RATIONAL_WITNESSES = 8
RATIONAL_BASES = 4
RATIONAL_APPLIES = 20


def build_reorder(rng, workdir, runner):
    """Normal ordering of long words that share a lot of structure."""
    P = {name: load_presentation(PRESENTATIONS[name]) for name in ("p1", "p_nc", "heis")}
    pool = []

    def normalize_op(label, w, pres):
        fs = _test_functions(rng, pres)
        pool.append(Op(label, lambda: ops.normalize(w, pres), check_normal_form(w, pres, fs)))

    # The scaling series is the same for every seed.
    series = [("p1", f"(D2*D1)^{k}") for k in range(1, 6)]
    series += [("p1", f"(x*D2*D1)^{k}") for k in range(1, 4)]
    series += [("p1", f"D1^{k}*x^{k}") for k in range(1, 5)]
    series += [("p_nc", f"(D2*D1)^{k}") for k in range(1, 4)]
    for name, text in series:
        normalize_op(f"normalize {name} {text}", parsing.parse_operator_expr(text, P[name]), P[name])
    # Block words: the symbols follow the fixed design.  A linear coefficient
    # v + c stands in the middle and, on heis, a constant after the first
    # block.  v takes the variables in turn and the seed draws the constants,
    # so that the cost of a word does not depend on the seed.
    for name, lengths in (("p1", REORDER_P1_LENGTHS), ("heis", REORDER_HEIS_LENGTHS)):
        pres = P[name]
        for i, shape in enumerate(block_shapes(pres.n, lengths)):
            term = list(shape)
            v = MPoly.variable(pres.vars, pres.vars[i % len(pres.vars)])
            c = MPoly.const(pres.vars, wide(rng))
            term.insert(len(shape) // 2, field.RatFunc.from_poly(v + c))
            if name == "heis":
                term.insert(2, RatFunc.const(pres.vars, wide(rng)))
            normalize_op(f"normalize {name} block word", OpWord(pres.vars, pres.n, [tuple(term)]), pres)
    for name in ("p1", "heis"):
        pres = P[name]
        for i in range(REORDER_PRODUCTS):
            a, b = normal_op(rng, pres, i), normal_op(rng, pres, i + 7)
            fs = _test_functions(rng, pres)
            pool.append(Op(f"op_mul {name}", lambda a=a, b=b, pres=pres: ops.op_mul(a, b, pres),
                           check_composition(a, b, pres, fs, False)))
            pool.append(Op(f"op_commutator {name}",
                           lambda a=a, b=b, pres=pres: ops.op_commutator(a, b, pres),
                           check_composition(a, b, pres, fs, True)))
    for name in ("p1", "p_nc", "heis"):
        for d in range(1, 5):
            pres = P[name]
            pool.append(Op(f"fresh_extension {name} d={d}",
                           lambda pres=pres, d=d: normalpoly.fresh_extension(pres, d),
                           check_extension(pres, d), render_extension,
                           lambda ext: sum(len(q.terms) for q in ext.actions.values())))
    return pool


def build_apply(rng, workdir, runner):
    """C01/C06 shape: operators and normal polynomials on polynomial inputs."""
    P = {name: load_presentation(PRESENTATIONS[name]) for name in ("p1", "heis")}
    pool = []
    for name in ("p1", "heis"):
        pres = P[name]
        for _ in range(APPLY_ITEMS):
            w = rand_word(rng, pres, maxlen=4, coeff_deg=2)
            f = poly_elem(rng, pres.vars, 3)
            pool.append(Op(f"apply {name}",
                           lambda w=w, f=f, pres=pres: ops.apply_operator(ops.normalize(w, pres), f, pres),
                           lambda out, w=w, f=f, pres=pres: out == ops.apply_operator(w, f, pres)))
        for _ in range(APPLY_ITEMS // 2):
            q = rand_npoly(rng, pres, max_order=2)
            i = rng.randint(1, pres.n)
            b = poly_elem(rng, pres.vars, 3)

            def c06(out, q=q, i=i, b=b, pres=pres):
                return normalpoly.eval_hom(out, b, pres) == field.derive(
                    pres.derivation(i), normalpoly.eval_hom(q, b, pres))
            pool.append(Op(f"derive_normal {name}",
                           lambda q=q, i=i, pres=pres: normalpoly.derive_normal(i, q, pres), c06))
        for _ in range(APPLY_ITEMS // 2):
            q = rand_npoly(rng, pres, max_order=2)
            b = poly_elem(rng, pres.vars, 3)
            pool.append(Op(f"eval_hom {name}",
                           lambda q=q, b=b, pres=pres: normalpoly.eval_hom(q, b, pres),
                           lambda out, q=q, b=b, pres=pres: out == eval_by_definition(q, b, pres)))
    return pool


def nonzero(rng) -> int:
    return rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))


def linear_poly(rng, vars, names, square=None) -> MPoly:
    """c + sum of c_v * v over the named variables, plus c_s * s^2 for a
    variable s, every coefficient a seeded nonzero integer: the support is
    fixed, the values are not."""
    def e(name, k=1):
        return tuple(k if v == name else 0 for v in vars)
    terms = {(0,) * len(vars): nonzero(rng)}
    for name in names:
        terms[e(name)] = nonzero(rng)
    if square is not None:
        terms[e(square, 2)] = nonzero(rng)
    return MPoly(vars, terms)


def build_rational(rng, workdir, runner):
    """The field layer with real fractions: linear algebra over Q(x).

    Every input has a fixed shape (which variables appear where) and seeded
    nonzero coefficients, so the cost of the pool is about the same for
    every seed and the percentiles repeat.
    """
    P = {name: load_presentation(PRESENTATIONS[name]) for name in ("p_nc", "heis")}
    minv = {name: [[parsing.parse_field_expr(e, P[name].vars) for e in row] for row in rows]
            for name, rows in MINV.items()}

    def entry(pres, i, j):
        # p_nc: a*v + b over c*w + d; heis: a*v + b over w or over 1
        vs, t = pres.vars, len(pres.vars)
        num = linear_poly(rng, vs, (vs[(i + j) % t],))
        if t == 2:
            den = linear_poly(rng, vs, (vs[(i + 2 * j + 1) % t],))
        elif (i + j) % 2:
            den = MPoly.variable(vs, vs[(i + 2 * j + 1) % t])
        else:
            den = MPoly.const(vs, 1)
        return field.ratfunc_normalize(num, den)

    def matrix(pres):
        return [[entry(pres, i, j) for j in range(pres.n)] for i in range(pres.n)]

    def commuting_witness(pres, name):
        C = [[RatFunc.const(pres.vars, rng.randint(-3, 3) + 4 * (i == j)) for j in range(pres.n)]
             for i in range(pres.n)]
        return matmul(C, minv[name], pres.vars)

    def rebasing(pres):
        # unit lower triangular, so the rebasing is cheap to invert; on heis
        # the entries stay polynomial, since fractions in three variables hit
        # the gcd tail (see NOTES.md)
        vs = pres.vars

        def below(i, j):
            if len(vs) == 2:
                return entry(pres, i, j)
            return field.RatFunc.from_poly(linear_poly(rng, vs, (vs[(i + j) % 3],)))
        return [[RatFunc.const(vs, 1) if i == j else (below(i, j) if j < i else RatFunc.zero(vs))
                 for j in range(pres.n)] for i in range(pres.n)]

    pool = []
    for name in ("p_nc", "heis"):
        pres = P[name]
        vs, n = pres.vars, pres.n
        for _ in range(RATIONAL_BASIS_CHECKS):
            A = matrix(pres)
            pool.append(Op(f"change_basis_check {name}",
                           lambda A=A, pres=pres: frobenius.change_basis_check(A, pres.alpha, pres),
                           lambda out, A=A, pres=pres: [str(v) for v in out] == bracket_residuals(A, pres.alpha, pres),
                           render_violations))
        for _ in range(RATIONAL_RANKS):
            A = matrix(pres)
            pool.append(Op(f"matrix_rank {name}", lambda A=A: frobenius.matrix_rank(A), check_rank(A)))
        for i in range(RATIONAL_WITNESSES):
            A = commuting_witness(pres, name) if i % 2 else matrix(pres)
            xs = [e for row in A for e in row]
            pool.append(Op(f"axiom2_witness_check {name}",
                           lambda xs=xs, pres=pres: frobenius.axiom2_witness_check(xs, pres),
                           check_axiom2(A, pres)))
        for _ in range(RATIONAL_BASES):
            rp = rebased(pres, rebasing(pres))
            pool.append(Op(f"commuting_basis {name}", lambda rp=rp: frobenius.commuting_basis(rp),
                           check_commuting_basis(rp), render_basis))
        for i in range(RATIONAL_APPLIES if name == "p_nc" else 0):
            # D_a * c * D_b + D_b * D_a applied to a degree-2 over degree-1 fraction
            a, b = 1 + i % n, 1 + (i // n) % n
            c = field.RatFunc.from_poly(linear_poly(rng, vs, (vs[i % len(vs)],)))
            w = OpWord(vs, n, [(a, c, b), (b, a)])
            f = field.ratfunc_normalize(linear_poly(rng, vs, vs, square=vs[0]),
                                        linear_poly(rng, vs, (vs[-1],)))
            pool.append(Op(f"apply {name}",
                           lambda w=w, f=f, pres=pres: ops.apply_operator(ops.normalize(w, pres), f, pres),
                           lambda out, w=w, f=f, pres=pres: out == ops.apply_operator(w, f, pres)))
    return pool


# -- the CLI workload ------------------------------------------------------------


def field_text(rng, vars, deg: int) -> str:
    # parenthesized, so that a leading minus never reads as a CLI option
    return f"({poly_elem(rng, vars, deg)})"


def operator_text(rng, vars, n: int, maxlen: int) -> str:
    terms = []
    for _ in range(rng.randint(1, 2)):
        factors = []
        for _ in range(rng.randint(1, maxlen)):
            if rng.random() < 0.6:
                k = rng.randint(1, n)
                factors.append(f"D{k}" if rng.random() < 0.8 else f"D{k}^2")
            else:
                factors.append(field_text(rng, vars, 1))
        terms.append("*".join(factors))
    return " + ".join(terms)


def npoly_text(rng, vars, n: int, slot: bool = False) -> str:
    idxs = normalpoly.indices_up_to(n, 2)
    terms = []
    for _ in range(rng.randint(1, 3)):
        I = rng.choice(idxs)
        terms.append(f"{field_text(rng, vars, 1)}*X[{','.join(map(str, I))}]")
    if slot:
        terms.append("a1*X[" + ",".join(["0"] * n) + "]")
    return " + ".join(terms)


def render_cli(out):
    code, stdout = out
    return f"exit {code}\n{stdout.decode()}"


def build_cli(rng, workdir, runner):
    """Sequential one-shot `python -m liediff.cli` processes; their input
    files are written to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    pool = []

    def write(name, obj):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
        files[name] = str(path)

    def cli_op(label, argv, golden=None):
        argv = [a.format(**files) for a in argv]
        if golden is None:
            check = lambda out: out == run_cli_in_process(argv)  # noqa: E731
        else:
            check = lambda out: out == golden  # noqa: E731
        pool.append(Op(label, lambda: runner(argv), check, render_cli,
                       lambda out: out[1].count(b"\n")))

    P = {}
    for name, obj in PRESENTATIONS.items():
        P[name] = load_presentation(obj)
        write(name, obj)
    write("identity", {"n": 2, "entries": [["1", "0"], ["0", "1"]]})
    write("beta_p1", {"n": 2, "alpha": PRESENTATIONS["p1"]["alpha"]})
    for argv, code, out in GOLDEN:
        cli_op(f"golden {argv[0]}", argv, (code, out))
    # every subcommand on every presentation; the seed draws the expressions
    # and matrices
    commands = ("validate", "normalize", "commutator", "apply", "frobenius", "check-basis",
                "check-commuting", "derive-normal", "eval", "check-axiom1", "check-axiom2")
    for i, (cmd, name) in enumerate((c, p) for c in commands for p in ("p1", "p_nc", "heis")):
        pres = P[name]
        vars, n = list(pres.vars), pres.n
        pfile = "{" + name + "}"
        write(f"m{i}", {"n": n, "entries": [[field_text(rng, vars, 1) for _ in range(n)]
                                            for _ in range(n)]})
        mfile = "{m" + str(i) + "}"
        if cmd == "validate":
            argv = ["validate", "-p", pfile]
        elif cmd == "normalize":
            argv = ["normalize", "-p", pfile, operator_text(rng, vars, n, 4)]
        elif cmd == "commutator":
            argv = ["commutator", "-p", pfile, operator_text(rng, vars, n, 2), operator_text(rng, vars, n, 2)]
        elif cmd == "apply":
            argv = ["apply", "-p", pfile, operator_text(rng, vars, n, 3), field_text(rng, vars, 3)]
        elif cmd == "frobenius":
            argv = ["frobenius", "-p", pfile]
        elif cmd == "check-basis":
            beta = ["--beta", "{beta_p1}"] if name == "p1" else []
            argv = ["check-basis", "-p", pfile, "-A", mfile] + beta
        elif cmd == "check-commuting":
            argv = ["check-commuting", "-p", pfile, "-A", mfile]
        elif cmd == "derive-normal":
            order = ["--order", "3"] if i % 2 else []
            argv = ["derive-normal", "-p", pfile, str(1 + i % n), npoly_text(rng, vars, n)] + order
        elif cmd == "eval":
            argv = ["eval", "-p", pfile, npoly_text(rng, vars, n), "--witness", field_text(rng, vars, 2)]
        elif cmd == "check-axiom1":
            argv = ["check-axiom1", "-p", pfile, npoly_text(rng, vars, n, slot=True),
                    "--witness", field_text(rng, vars, 2), "--slot", field_text(rng, vars, 1)]
        else:
            argv = ["check-axiom2", "-p", pfile, "-A", mfile]
        cli_op(f"{cmd} {name}", argv)
    return pool


def run_cli_in_process(argv):
    """Exit code and stdout of the CLI run inside this process: the
    reference the one-shot processes must reproduce byte for byte."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


WORKLOADS = {
    "reorder": build_reorder,
    "apply": build_apply,
    "rational": build_rational,
    "cli": build_cli,
}
