import json

import pytest

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

    def test_input_error_unknown_variable(self, capsys):
        code = main(["apply", "-p", str(DATA / "p1.json"), "D1", "z^2"])
        capsys.readouterr()
        assert code == 2

    def test_invalid_presentation_is_input_error_elsewhere(self, capsys):
        code = main(["normalize", "-p", str(DATA / "p1_noalpha.json"), "D1"])
        capsys.readouterr()
        assert code == 2

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
