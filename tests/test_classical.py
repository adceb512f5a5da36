"""Classical Lie algebras of vector fields, whose answers are known in closed
form (Olver, *Applications of Lie Groups to Differential Equations*, 1986):
sl2 on the line, so(3) by rotations with the right and the wrong sign of its
bracket law, and the Heisenberg algebra H_3.  The presentations are the JSON
files under ``tests/data/``, in this engine's convention
[D_k, D_l] = sum_m alpha[k,l,m] D_m."""

import pytest

from liediff import (
    OpWord,
    PresentationInvalid,
    check_presentation,
    commuting_basis,
    linear_independence,
    normalize,
    parse_field_expr,
)
from liediff.cli import load_presentation, main
from conftest import DATA


def load(name, validate=True):
    return load_presentation(DATA / f"{name}.json", validate=validate)


def texts(xs):
    return [str(x) for x in xs]


@pytest.mark.parametrize("name, witness", [
    # E = d/dx, H = x d/dx, F = x^2 d/dx: H = x*E
    ("sl2_line", ["-x", "1", "0"]),
    # the rotations L1 = -z d/dy + y d/dz and its cyclic shifts, with
    # [L1, L2] = -L3: x*L1 + y*L2 + z*L3 = 0
    ("so3", ["x/z", "y/z", "1"]),
])
def test_bracket_law_holds_and_witness(name, witness):
    pres = load(name)
    assert check_presentation(pres) == []
    cert = linear_independence(pres)
    assert not cert.independent
    assert texts(cert.combination) == witness


def test_so3_wrong_sign_has_six_residuals():
    # [L1, L2] = +L3 misses by 2*L3 on each pair: +-2x, +-2y, +-2z
    pres = load("so3_wrong_sign", validate=False)
    report = check_presentation(pres)
    assert [(v.where.split("variable ")[1], str(v.residual)) for v in report] == [
        ("x", "2*y"), ("y", "-2*x"), ("x", "2*z"), ("z", "-2*x"), ("y", "2*z"), ("z", "-2*y"),
    ]
    with pytest.raises(PresentationInvalid) as exc:
        load("so3_wrong_sign")
    assert len(exc.value.violations) == 6


def test_so3_wrong_sign_on_the_command_line(capsys):
    path = str(DATA / "so3_wrong_sign.json")
    assert main(["validate", "-p", path]) == 1
    out = capsys.readouterr().out
    assert out.count("bracket axiom at") == 6 and "residual = -2*y" in out
    assert main(["normalize", "-p", path, "D1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: presentation fails validation: ")


def test_heisenberg_normal_form_and_commuting_basis():
    # X = d/dx - (y/2) d/dz, Y = d/dy + (x/2) d/dz, Z = d/dz, [X, Y] = Z:
    # D3^3*D2^3*D1^3 has one term per j in 0..3, with coefficient
    # (-1)^j * j! * binom(3, j)^2, and the commuting basis is the
    # coordinate fields
    pres = load("heis3")
    assert check_presentation(pres) == []
    w = OpWord(pres.vars, pres.n, [(3, 3, 3, 2, 2, 2, 1, 1, 1)])
    assert str(normalize(w, pres)) == (
        "D1^3*D2^3*D3^3 - 9*D1^2*D2^2*D3^4 + 18*D1*D2*D3^5 - 6*D3^6"
    )
    A, actions = commuting_basis(pres)
    assert [texts(row) for row in A] == [["1", "0", "y/2"], ["0", "1", "-x/2"], ["0", "0", "1"]]
    unit = [[parse_field_expr("1" if i == j else "0", pres.vars) for j in range(3)] for i in range(3)]
    assert [list(D.images) for D in actions] == unit
