import json
import subprocess
import sys
from pathlib import Path

import pytest

import liediff
from liediff import PresentationInvalid, SchemaError
from liediff.cli import load_presentation, main
from conftest import DATA, GOLDEN


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


class TestLoadPresentation:
    def test_valid(self):
        pres = load_presentation(DATA / "p1.json")
        assert pres.n == 2 and pres.vars == ("x", "y")
        assert pres.alpha.get(2, 1, 1) == -pres.alpha.get(1, 2, 1)

    def test_alpha_omitted_fails_validation(self):
        with pytest.raises(PresentationInvalid) as exc:
            load_presentation(DATA / "p1_noalpha.json")
        assert any("(k,l)=(1,2)" in str(v) for v in exc.value.violations)

    def test_alpha_omitted_loads_without_validation(self):
        pres = load_presentation(DATA / "p1_noalpha.json", validate=False)
        assert pres.alpha.get(1, 2, 1).is_zero()

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            load_presentation(DATA / "malformed.json")

    def test_missing_file(self):
        from liediff import IoError

        with pytest.raises(IoError):
            load_presentation(DATA / "no_such_file.json")

    def test_inconsistent_mirror_entries(self):
        with pytest.raises(SchemaError):
            load_presentation(DATA / "inconsistent_alpha.json", validate=False)

    def test_schema_requires_all_images(self, tmp_path):
        obj = json.loads((DATA / "p1.json").read_text())
        del obj["derivations"][0]["action"]["y"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        with pytest.raises(SchemaError):
            load_presentation(bad)


class TestGolden:
    def test_normalize(self, capsys):
        code, out = run(capsys, "normalize", "-p", DATA / "p1.json", "D2*D1")
        assert code == 0
        assert out == (GOLDEN / "normalize_p1.txt").read_text()

    def test_frobenius(self, capsys):
        code, out = run(capsys, "frobenius", "-p", DATA / "p1.json")
        assert code == 0
        assert out == (GOLDEN / "frobenius_p1.txt").read_text()

    def test_check_commuting_identity(self, capsys):
        code, out = run(
            capsys, "check-commuting", "-p", DATA / "p1.json", "-A", DATA / "identity.json"
        )
        assert code == 1
        assert out == (GOLDEN / "check_commuting_identity.txt").read_text()

    def test_byte_determinism(self, capsys):
        outs = set()
        for _ in range(3):
            _, out = run(capsys, "frobenius", "-p", DATA / "p1.json")
            outs.add(out)
        assert len(outs) == 1


class TestExitCodes:
    def test_validate_pass(self, capsys):
        code, out = run(capsys, "validate", "-p", DATA / "p1.json")
        assert code == 0
        assert "OK" in out

    def test_validate_fail(self, capsys):
        code, out = run(capsys, "validate", "-p", DATA / "p1_noalpha.json")
        assert code == 1
        assert "bracket axiom" in out

    def test_validate_skips_jacobi_for_nonconstant_alpha(self, capsys):
        code, out = run(capsys, "validate", "-p", DATA / "p_nc.json")
        assert code == 0
        assert "jacobi: skipped" in out and "OK" in out

    def test_input_error_missing_file(self, capsys):
        code = main(["normalize", "-p", str(DATA / "missing.json"), "D1"])
        capsys.readouterr()
        assert code == 2

    def test_input_error_bad_expression(self, capsys):
        code = main(["normalize", "-p", str(DATA / "p1.json"), "D1 +* D2"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("expr", ["x/(D1 - D1)", "x/D1"])
    def test_input_error_bad_divisor(self, capsys, expr):
        code = main(["normalize", "-p", str(DATA / "p1.json"), expr])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_input_error_unknown_variable(self, capsys):
        code = main(["apply", "-p", str(DATA / "p1.json"), "D1", "z^2"])
        capsys.readouterr()
        assert code == 2

    def test_invalid_presentation_is_input_error_elsewhere(self, capsys):
        code = main(["normalize", "-p", str(DATA / "p1_noalpha.json"), "D1"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "alpha",
        [
            5,
            None,
            [{"k": True, "l": 2, "m": 1, "value": "1"}],
            [{"k": 1, "l": 3, "m": 1, "value": "1"}],
        ],
    )
    def test_malformed_alpha_is_input_error(self, capsys, tmp_path, alpha):
        obj = json.loads((DATA / "p1.json").read_text())
        obj["alpha"] = alpha
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = main(["validate", "-p", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_malformed_beta_is_input_error(self, capsys, tmp_path):
        beta = tmp_path / "beta.json"
        beta.write_text(json.dumps({"n": 2, "alpha": 7}))
        code = main(
            ["check-basis", "-p", str(DATA / "p1.json"), "-A", str(DATA / "identity.json"),
             "--beta", str(beta)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("value", [None, True, 1.5, ["x"]])
    @pytest.mark.parametrize(
        "where, field",
        [
            pytest.param("image", "the image of y under derivation 2", id="image"),
            pytest.param("name", "the name of derivation 1", id="name"),
            pytest.param("alpha", "the value of structure-constant entry (1,2,1)", id="alpha"),
            pytest.param("matrix", "basis-matrix entry (2,1)", id="matrix"),
        ],
    )
    def test_json_expression_must_be_text(self, capsys, tmp_path, where, field, value):
        # str() of a JSON null or boolean would read as a variable named None
        # or True; an integer is still accepted as its own text
        obj = json.loads((DATA / "p1.json").read_text())
        matrix = {"entries": [["1", "0"], ["0", "1"]]}
        if where == "image":
            obj["derivations"][1]["action"]["y"] = value
        elif where == "name":
            obj["derivations"][0]["name"] = value
        elif where == "alpha":
            obj["alpha"][0]["value"] = value
        else:
            matrix["entries"][1][0] = value
        pfile, mfile = tmp_path / "p.json", tmp_path / "a.json"
        pfile.write_text(json.dumps(obj))
        mfile.write_text(json.dumps(matrix))
        code = main(["check-commuting", "-p", str(pfile), "-A", str(mfile)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {field} must be a string or an integer, not {value!r}\n"

    def test_non_utf8_file_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        code = main(["validate", "-p", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: '{bad}' is not UTF-8 text: ") and "Traceback" not in err

    def test_null_variable_image_is_input_error(self, capsys, tmp_path):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"vars": ["None"], "derivations": [{"action": {"None": None}}]}))
        code, out = run(capsys, "frobenius", "-p", pfile)
        assert code == 2 and out == ""

    # CPython refuses int <-> str conversions past 4300 digits by default; the
    # CLI keeps that limit and reports an input error (exit 2), not exit 1
    BIG = "7" * 5000

    def _one_error(self, capsys, argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize("where", ["presentation", "matrix"])
    def test_json_integer_past_the_digit_limit(self, capsys, tmp_path, where):
        obj = json.loads((DATA / "p1.json").read_text())
        matrix = {"entries": [["1", "0"], ["0", "1"]]}
        if where == "presentation":
            obj["derivations"][1]["action"]["y"] = "BIG"
        else:
            matrix["entries"][1][0] = "BIG"
        pfile, mfile = tmp_path / "p.json", tmp_path / "a.json"
        pfile.write_text(json.dumps(obj).replace('"BIG"', self.BIG))
        mfile.write_text(json.dumps(matrix).replace('"BIG"', self.BIG))
        err = self._one_error(capsys, ["check-commuting", "-p", pfile, "-A", mfile])
        bad = pfile if where == "presentation" else mfile
        assert err.startswith(f"error: '{bad}' holds an integer too long to read: ")

    @pytest.mark.parametrize("expr, pos", [(BIG, 0), ("x + " + BIG, 4), ("x^" + BIG, 2)])
    def test_expression_integer_past_the_digit_limit(self, capsys, expr, pos):
        err = self._one_error(capsys, ["normalize", "-p", DATA / "p1.json", expr])
        assert err == f"error: integer of 5000 digits is too long to read (at offset {pos})\n"

    def test_result_integer_past_the_digit_limit(self, capsys):
        err = self._one_error(capsys, ["normalize", "-p", DATA / "p1.json", "2^20000"])
        assert err.startswith("error: cannot print a coefficient: ")

    DEEP = "(" * 1000 + "x" + ")" * 1000

    @pytest.mark.parametrize(
        "argv",
        [
            ["normalize", "-p", DATA / "p1.json", DEEP],
            ["eval", "-p", DATA / "p1.json", DEEP, "--witness", "x"],
            ["eval", "-p", DATA / "p1.json", "X[1,0]", "--witness", DEEP],
        ],
        ids=["operator", "normal-polynomial", "field"],
    )
    def test_deep_nesting_is_a_syntax_error(self, capsys, argv):
        # each grammar once raised RecursionError, a traceback with exit 1
        err = self._one_error(capsys, argv)
        assert err.startswith("error: expression nested too deeply (at offset ")
        shallow = [a.replace(self.DEEP, "(" * 50 + "x" + ")" * 50) for a in map(str, argv)]
        assert main(shallow) == 0

    def test_deep_json_is_a_schema_error(self, capsys, tmp_path):
        pfile = tmp_path / "p.json"
        pfile.write_text("[" * 100_000 + "]" * 100_000)
        err = self._one_error(capsys, ["validate", "-p", pfile])
        assert err == f"error: '{pfile}' is nested too deeply to read\n"

    @pytest.mark.parametrize("vars", [[["x"], "y"], [{"x": 1}], ["x", ["x"]], []])
    def test_unhashable_vars_are_a_schema_error(self, capsys, tmp_path, vars):
        # set(vars) once raised TypeError before the element types were
        # checked; an empty list gets the same message
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"vars": vars, "derivations": [{"action": {"y": "1"}}]}))
        err = self._one_error(capsys, ["validate", "-p", pfile])
        assert err == "error: 'vars' must be a nonempty list of distinct identifiers\n"

    def test_no_derivations_is_a_schema_error(self, capsys, tmp_path):
        # the loader's message, not the ArityMismatch of Presentation
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"vars": ["x"], "derivations": []}))
        err = self._one_error(capsys, ["validate", "-p", pfile])
        assert err == "error: 'derivations' must be a nonempty list\n"

    def test_integer_expressions_accepted(self, capsys, tmp_path):
        obj = json.loads((DATA / "p1.json").read_text())
        obj["derivations"][1]["action"]["y"] = 1
        obj["alpha"][0]["value"] = 1
        pfile, mfile = tmp_path / "p.json", tmp_path / "a.json"
        pfile.write_text(json.dumps(obj))
        mfile.write_text(json.dumps({"entries": [[1, 0], [0, 1]]}))
        code, out = run(capsys, "check-commuting", "-p", pfile, "-A", mfile)
        assert (code, out) == (1, (GOLDEN / "check_commuting_identity.txt").read_text())

    @pytest.mark.parametrize("n", ["2", 2.0, True, None])
    @pytest.mark.parametrize("use", ["matrix", "beta"])
    def test_non_integer_n_is_schema_error(self, capsys, tmp_path, use, n):
        # one file that reads as a basis matrix and as structure constants
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"n": n, "entries": [["1", "0"], ["0", "1"]], "alpha": []}))
        identity = str(DATA / "identity.json")
        files = {"matrix": ["-A", str(f)], "beta": ["-A", identity, "--beta", str(f)]}[use]
        code = main(["check-basis", "-p", str(DATA / "p1.json"), *files])
        assert code == 2
        assert capsys.readouterr().err == "error: 'n' must be an integer\n"

    def test_no_validate_override(self, capsys):
        code, out = run(
            capsys, "normalize", "-p", DATA / "p1_noalpha.json", "--no-validate", "D2*D1"
        )
        assert code == 0
        # with alpha = 0 the derivations are treated as commuting
        assert out.strip() == "D1*D2"


class TestCommands:
    def test_commutator(self, capsys):
        code, out = run(capsys, "commutator", "-p", DATA / "p1.json", "D1", "D2")
        assert code == 0
        assert out.strip() == "D1"

    def test_apply(self, capsys):
        code, out = run(capsys, "apply", "-p", DATA / "p1.json", "D2*D1", "x^2*y")
        assert code == 0
        assert out.strip() == "2*x*y + 2*x"

    def test_check_basis_with_beta(self, capsys):
        code, out = run(
            capsys,
            "check-basis",
            "-p",
            DATA / "p1.json",
            "-A",
            DATA / "identity.json",
            "--beta",
            DATA / "beta_p1.json",
        )
        assert code == 0
        assert out.strip() == "OK"

    def test_check_basis_good_matrix_zero_beta(self, capsys):
        code, out = run(
            capsys, "check-basis", "-p", DATA / "p1.json", "-A", DATA / "basisA.json"
        )
        assert code == 0

    @pytest.mark.parametrize("matrix", ["identity.json", "basisA.json"])
    def test_check_commuting_is_check_basis_without_beta(self, capsys, matrix):
        args = ("-p", DATA / "p1.json", "-A", DATA / matrix)
        assert run(capsys, "check-commuting", *args) == run(capsys, "check-basis", *args)

    def test_derive_normal(self, capsys):
        code, out = run(capsys, "derive-normal", "-p", DATA / "p1.json", "2", "X[1,0]")
        assert code == 0
        assert out.strip() == "X[1,1] - X[1,0]"

    def test_derive_normal_truncated(self, capsys):
        code, out = run(
            capsys,
            "derive-normal",
            "-p",
            DATA / "p1.json",
            "2",
            "X[1,0]",
            "--order",
            "2",
        )
        assert code == 0
        assert out.strip() == "X[1,1] - X[1,0]"

    def test_derive_normal_truncation_exceeded(self, capsys):
        code = main(
            [
                "derive-normal",
                "-p",
                str(DATA / "p1.json"),
                "1",
                "X[2,0]",
                "--order",
                "2",
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_eval(self, capsys):
        code, out = run(
            capsys, "eval", "-p", DATA / "p1.json", "X[0,1] + 3", "--witness", "y"
        )
        assert code == 0
        assert out.strip() == "4"

    def test_check_axiom1_true(self, capsys):
        code, out = run(
            capsys, "check-axiom1", "-p", DATA / "p1.json", "X[1,0] - 1", "--witness", "2*x"
        )
        assert code == 0 and out.strip() == "true"

    def test_check_axiom1_false(self, capsys):
        code, out = run(
            capsys, "check-axiom1", "-p", DATA / "p1.json", "X[1,0] - 1", "--witness", "x"
        )
        assert code == 1 and out.strip() == "false"

    def test_check_axiom1_with_slots(self, capsys):
        code, out = run(
            capsys,
            "check-axiom1",
            "-p",
            DATA / "p1.json",
            "a1*X[1,0] - 1",
            "--witness",
            "x",
            "--slot",
            "2",
        )
        assert code == 0 and out.strip() == "true"

    def test_check_axiom2_true(self, capsys):
        code, out = run(
            capsys, "check-axiom2", "-p", DATA / "p1.json", "-A", DATA / "basisA.json"
        )
        assert code == 0 and out.strip() == "true"

    def test_check_axiom2_false(self, capsys):
        code, out = run(
            capsys, "check-axiom2", "-p", DATA / "p1.json", "-A", DATA / "identity.json"
        )
        assert code == 1 and out.strip() == "false"


def test_cli_imports_a_lean_module_graph():
    # every CLI call is a fresh process that pays for what the import loads;
    # -S keeps site-installed packages from loading these modules first
    src = str(Path(liediff.__file__).parent.parent)
    heavy = ["dataclasses", "inspect", "pathlib", "typing"]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import liediff.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
