"""Exact Krull dimension computations for affine algebras, their
localizations, and tensor products of field extensions.

The Groebner kernel computes dimensions outright whenever a ring expression
flattens to an affine presentation; a symbolic rule layer handles the
shapes it cannot materialize (transcendental tensor legs, infinite
transcendence degree) and cross-checks against the kernel wherever both
apply.  Prime-chain certificates make the lower bounds independently
re-checkable.
"""

from .calculus import (
    BaseField,
    DimensionResult,
    FieldExt,
    FracField,
    LocElement,
    LocSubringComplement,
    PolyExt,
    Quotient,
    RingExpr,
    Tensor,
    TraceEntry,
    evaluate,
    field_tensor_dimension,
    flatten_affine,
    integral_extension_rule,
)
from .chains import (
    ChainCertificate,
    ChainStepEvidence,
    PrimalityCertificate,
    build_chain,
    certified_lower_bound,
    verify_algebraic_independence,
    verify_avoidance,
    verify_avoidance_by_evaluation,
    verify_chain,
    verify_substitution_transfer,
)
from .dimension import (
    INF,
    DimensionValue,
    ZeroDivisorStatus,
    dim_affine,
    independent_set_dimension,
    trdeg_affine_domain,
    zero_divisor_status,
)
from .errors import (
    BudgetExhaustedError,
    CertificateError,
    EmptyRingError,
    InconsistentBoundsError,
    ParseError,
    RingMismatchError,
    TowerDepthError,
    ZeroPolynomialError,
)
from .fields import (
    PrimeField,
    QQ,
    RatFunc,
    RationalField,
    RationalFunctionField,
    normalize_rational_function,
)
from .ideals import (
    Budget,
    DEFAULT_PAIR_BUDGET,
    IdealPresentation,
    buchberger,
    eliminate,
    ideal_quotient,
    normal_form,
    saturate,
)
from .orderings import GREVLEX, LEX, BlockElimination, GrevLex, Lex
from .parser import (
    MAX_TOTAL_VARIABLES,
    format_field,
    format_ring_expr,
    parse_field,
    parse_polynomial,
    parse_ring_expr,
)
from .polynomials import (
    Polynomial,
    PolynomialRing,
    exact_divide,
    format_polynomial,
    polynomial_gcd,
)

__version__ = "0.1.0"
