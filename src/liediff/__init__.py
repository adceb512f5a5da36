"""Exact symbolic engine for differential fields whose derivations represent
a finite-dimensional Lie algebra through structure constants.

The package normal-orders words of noncommuting derivations, realizes the
ring of normal polynomials with its induced derivation action, constructs
commuting derivation bases from linearly independent ones, and checks the
basis-change condition that makes such constructions persist in every field
extension.  All arithmetic is exact over Q(x1,...,xt).
"""

from .errors import (
    ArityMismatch,
    CommutationFailure,
    DegreeOverflow,
    DivisionByZero,
    ExprSyntaxError,
    IndexOutOfRange,
    IntegerTooLong,
    InvalidMultiIndex,
    InvariantBroken,
    IoError,
    LieDiffError,
    NegativeExponent,
    NonConstantStructureConstants,
    NotConstant,
    NotIndependent,
    PresentationInvalid,
    SchemaError,
    TruncationExceeded,
    UnboundSlot,
    UnknownDerivation,
    UnknownVariable,
    Violation,
    ZeroDenominator,
)
from .field import (
    DerivationAction,
    MPoly,
    RatFunc,
    derive,
    divexact,
    lincomb,
    mpoly_gcd,
    ratfunc_normalize,
)
from .frobenius import (
    IndependenceCertificate,
    axiom2_witness_check,
    change_basis_check,
    commuting_basis,
    commuting_check,
    linear_independence,
    matrix_invert,
    matrix_rank,
)
from .lie import (
    Presentation,
    StructureConstants,
    bracket_residuals,
    check_presentation,
    validate_antisymmetry,
    validate_jacobi,
)
from .normalpoly import (
    NormalPoly,
    TruncatedExtension,
    axiom1_instance_check,
    derive_normal,
    eval_hom,
    fresh_extension,
    indices_up_to,
    substitute_slots,
)
from .ops import (
    NormalOperator,
    OpWord,
    apply_operator,
    first_order_brackets,
    first_order_commutator,
    normalize,
    op_commutator,
    op_mul,
)
from .parsing import parse_field_expr, parse_normalpoly_expr, parse_operator_expr

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
