"""Command-line interface: load presentations, parse expressions, dispatch.

Exit codes: 0 for success or a passing check, 1 for a failing check (its
report is printed), 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import (
    CommutationFailure,
    IoError,
    LieDiffError,
    NotIndependent,
    PresentationInvalid,
    SchemaError,
)
from .field import DerivationAction, RatFunc
from .frobenius import (
    axiom2_witness_check,
    change_basis_check,
    commuting_basis,
)
from .lie import (
    Presentation,
    StructureConstants,
    check_presentation,
    validate_jacobi,
)
from .normalpoly import axiom1_instance_check, derive_normal, eval_hom, fresh_extension
from .ops import apply_operator, op_commutator
from .parsing import parse_field_expr, parse_normalpoly_expr, parse_operator_expr

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise IoError(f"cannot read '{path}': {e}") from e
    except UnicodeDecodeError as e:
        raise SchemaError(f"'{path}' is not UTF-8 text: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"'{path}' is not valid JSON: {e}") from e
    except ValueError as e:
        # an integer past the interpreter's int-string limit, which stays in force
        raise SchemaError(f"'{path}' holds an integer too long to read: {e}") from e


def _json_text(value, what: str) -> str:
    """The text of a JSON expression or name field: a string, or an integer,
    which reads as itself.  Anything else, a boolean or null included, would
    read as a Python name, so it is a schema error."""
    if isinstance(value, str):
        return value
    if type(value) is int:
        return str(value)
    raise SchemaError(f"{what} must be a string or an integer, not {value!r}")


def _size(obj, n: int) -> int:
    # the optional "n" of a matrix or structure-constants file
    n = obj.get("n", n)
    if type(n) is not int:
        raise SchemaError("'n' must be an integer")
    return n


def _alpha_from_entries(n: int, vars, items) -> StructureConstants:
    if not isinstance(items, list):
        raise SchemaError("'alpha' must be a list of structure-constant entries")
    given: dict[tuple[int, int, int], RatFunc] = {}
    for ent in items:
        if not isinstance(ent, dict) or not {"k", "l", "m", "value"} <= set(ent):
            raise SchemaError(f"bad structure-constant entry {ent!r}")
        k, l, m = ent["k"], ent["l"], ent["m"]
        # StructureConstants checks the range 1..n
        if any(type(idx) is not int for idx in (k, l, m)):
            raise SchemaError(f"structure-constant indices of {ent!r} must be integers")
        if (k, l, m) in given:
            raise SchemaError(f"duplicate structure-constant entry ({k},{l},{m})")
        value = _json_text(ent["value"], f"the value of structure-constant entry ({k},{l},{m})")
        given[(k, l, m)] = parse_field_expr(value, vars)
    entries: dict[tuple[int, int, int], RatFunc] = {}
    for (k, l, m), v in given.items():
        mirror = given.get((l, k, m))
        if mirror is not None and k != l:
            if not (mirror + v).is_zero():
                raise SchemaError(
                    f"entries ({k},{l},{m}) and ({l},{k},{m}) are not antisymmetric"
                )
        entries[(k, l, m)] = v
        if k != l and mirror is None:
            entries[(l, k, m)] = -v
    return StructureConstants.from_entries(n, vars, entries)


def presentation_from_obj(obj) -> Presentation:
    """Build a presentation from parsed JSON; schema errors only, no
    semantic validation."""
    if not isinstance(obj, dict):
        raise SchemaError("presentation must be a JSON object")
    vars = obj.get("vars")
    if (
        not isinstance(vars, list)
        or not vars
        or len(set(vars)) != len(vars)
        or not all(isinstance(v, str) and _IDENT.match(v) for v in vars)
    ):
        raise SchemaError("'vars' must be a nonempty list of distinct identifiers")
    vars = tuple(vars)
    ders = obj.get("derivations")
    if not isinstance(ders, list) or not ders:
        raise SchemaError("'derivations' must be a nonempty list")
    actions = []
    for i, d in enumerate(ders, start=1):
        if not isinstance(d, dict) or "action" not in d:
            raise SchemaError(f"derivation {i} needs an 'action' map")
        action = d["action"]
        if not isinstance(action, dict) or set(action) != set(vars):
            raise SchemaError(
                f"derivation {i} must map exactly the declared variables"
            )
        images = tuple(
            parse_field_expr(_json_text(action[v], f"the image of {v} under derivation {i}"), vars)
            for v in vars
        )
        name = _json_text(d.get("name", f"D{i}"), f"the name of derivation {i}")
        actions.append(DerivationAction(name, vars, images))
    n = len(actions)
    alpha = _alpha_from_entries(n, vars, obj.get("alpha", []))
    return Presentation(vars, tuple(actions), alpha)


def load_presentation(path: str, validate: bool = True) -> Presentation:
    """Read, parse, and (by default) validate a presentation file."""
    pres = presentation_from_obj(_read_json(path))
    if validate:
        report = check_presentation(pres)
        if report:
            raise PresentationInvalid(report)
    return pres


def load_basis_matrix(path: str, pres: Presentation):
    obj = _read_json(path)
    if not isinstance(obj, dict) or "entries" not in obj:
        raise SchemaError("basis-matrix file needs an 'entries' field")
    n = _size(obj, pres.n)
    if n != pres.n:
        raise SchemaError(f"basis matrix is {n}x{n} but the presentation has n={pres.n}")
    entries = obj["entries"]
    if (
        not isinstance(entries, list)
        or len(entries) != n
        or any(not isinstance(row, list) or len(row) != n for row in entries)
    ):
        raise SchemaError(f"'entries' must be an {n}x{n} array of expressions")
    return [
        [parse_field_expr(_json_text(e, f"basis-matrix entry ({r},{c})"), pres.vars)
         for c, e in enumerate(row, start=1)]
        for r, row in enumerate(entries, start=1)
    ]


def load_structure_constants(path: str, pres: Presentation) -> StructureConstants:
    obj = _read_json(path)
    if not isinstance(obj, dict) or "alpha" not in obj:
        raise SchemaError("structure-constants file needs an 'alpha' list")
    n = _size(obj, pres.n)
    if n != pres.n:
        raise SchemaError(f"structure constants have n={n} but the presentation n={pres.n}")
    return _alpha_from_entries(n, pres.vars, obj["alpha"])


def _print_report(violations) -> int:
    if not violations:
        print("OK")
        return 0
    for v in violations:
        print(v)
    return 1


def _fmt_matrix(A) -> str:
    return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in A) + "]"


def cmd_validate(args, pres: Presentation) -> int:
    report = list(check_presentation(pres))
    if pres.alpha.is_constant():
        report += validate_jacobi(pres.alpha)
    else:
        print("jacobi: skipped (non-constant structure constants)")
    return _print_report(report)


def cmd_normalize(args, pres: Presentation) -> int:
    print(parse_operator_expr(args.expr, pres))
    return 0


def cmd_commutator(args, pres: Presentation) -> int:
    a = parse_operator_expr(args.left, pres)
    b = parse_operator_expr(args.right, pres)
    print(op_commutator(a, b, pres))
    return 0


def cmd_apply(args, pres: Presentation) -> int:
    a = parse_operator_expr(args.operator, pres)
    f = parse_field_expr(args.value, pres.vars)
    print(apply_operator(a, f, pres))
    return 0


def cmd_frobenius(args, pres: Presentation) -> int:
    try:
        A, actions = commuting_basis(pres)
    except (NotIndependent, CommutationFailure) as e:
        print(f"FAIL: {e}")
        return 1
    print(f"A = {_fmt_matrix(A)}")
    for act in actions:
        images = ", ".join(f"{v} -> {img}" for v, img in zip(act.vars, act.images))
        print(f"{act.name}: {images}")
    return 0


def cmd_check_basis(args, pres: Presentation) -> int:
    A = load_basis_matrix(args.matrix, pres)
    beta = (
        load_structure_constants(args.beta, pres)
        if args.beta
        else StructureConstants.zero(pres.n, pres.vars)
    )
    return _print_report(change_basis_check(A, beta, pres))


def cmd_derive_normal(args, pres: Presentation) -> int:
    q = parse_normalpoly_expr(args.expr, pres)
    if args.order is not None:
        ext = fresh_extension(pres, args.order)
        print(ext.derive(args.index, q))
    else:
        print(derive_normal(args.index, q, pres))
    return 0


def cmd_eval(args, pres: Presentation) -> int:
    q = parse_normalpoly_expr(args.expr, pres)
    b = parse_field_expr(args.witness, pres.vars)
    print(eval_hom(q, b, pres))
    return 0


def cmd_check_axiom1(args, pres: Presentation) -> int:
    q = parse_normalpoly_expr(args.expr, pres)
    b = parse_field_expr(args.witness, pres.vars)
    extra = [parse_field_expr(s, pres.vars) for s in args.slot]
    ok = axiom1_instance_check(q, extra, b, pres)
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_check_axiom2(args, pres: Presentation) -> int:
    A = load_basis_matrix(args.matrix, pres)
    ok = axiom2_witness_check([e for row in A for e in row], pres)
    print("true" if ok else "false")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liediff",
        description="Exact computations in differential fields whose "
        "derivations represent a finite-dimensional Lie algebra.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-p", "--presentation", required=True, help="presentation JSON file")
        sp.add_argument(
            "--no-validate",
            action="store_true",
            help="skip presentation validation on load; a presentation that "
            "breaks the bracket law has no unique normal form, so results then "
            "depend on evaluation order",
        )

    sp = sub.add_parser("validate", help="validate a presentation")
    sp.add_argument("-p", "--presentation", required=True, help="presentation JSON file")
    sp.set_defaults(func=cmd_validate, no_validate=True)

    sp = sub.add_parser("normalize", help="normal-order an operator expression")
    common(sp)
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("commutator", help="commutator of two operator expressions")
    common(sp)
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=cmd_commutator)

    sp = sub.add_parser("apply", help="apply an operator to a field expression")
    common(sp)
    sp.add_argument("operator")
    sp.add_argument("value")
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("frobenius", help="construct a commuting derivation basis")
    common(sp)
    sp.set_defaults(func=cmd_frobenius)

    sp = sub.add_parser("check-basis", help="check the basis-change condition")
    common(sp)
    sp.add_argument("-A", "--matrix", required=True, help="basis-matrix JSON file")
    sp.add_argument("--beta", help="target structure-constants JSON file")
    sp.set_defaults(func=cmd_check_basis)

    sp = sub.add_parser("check-commuting", help="check that a basis change commutes")
    common(sp)
    sp.add_argument("-A", "--matrix", required=True)
    sp.set_defaults(func=cmd_check_basis, beta=None)

    sp = sub.add_parser("derive-normal", help="derive a normal polynomial")
    common(sp)
    sp.add_argument("index", type=int, help="derivation index (1-based)")
    sp.add_argument("expr")
    sp.add_argument("--order", type=int, help="truncation order bound")
    sp.set_defaults(func=cmd_derive_normal)

    sp = sub.add_parser("eval", help="evaluate a normal polynomial at a witness")
    common(sp)
    sp.add_argument("expr")
    sp.add_argument("--witness", required=True, help="witness field expression")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("check-axiom1", help="check one nonvanishing instance")
    common(sp)
    sp.add_argument("expr")
    sp.add_argument("--witness", required=True)
    sp.add_argument(
        "--slot",
        action="append",
        default=[],
        help="field expression for the next placeholder slot (repeatable)",
    )
    sp.set_defaults(func=cmd_check_axiom1)

    sp = sub.add_parser(
        "check-axiom2", help="check a commuting-independent witness tuple"
    )
    common(sp)
    sp.add_argument("-A", "--matrix", required=True)
    sp.set_defaults(func=cmd_check_axiom2)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pres = load_presentation(args.presentation, validate=not args.no_validate)
        return args.func(args, pres)
    except LieDiffError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
