"""Symbolic ring expressions and the dimension inference rules.

``evaluate`` walks a ring-construction tree, applies every rule whose
hypotheses it can establish, intersects the resulting bounds, and returns a
``DimensionResult`` whose trace names each applied rule with a citation for
the classical fact behind it.  Whenever the expression flattens to an affine
presentation the Groebner kernel computes the dimension outright and the
closed rules become cross-checks; a disagreement raises
``InconsistentBoundsError`` (exit code 3 in the CLI), because it can only
mean a bug.  An affine algebra K[X]/I is passed as the ``IdealPresentation``
of I: ``flatten_affine`` returns one, and ``DimensionResult.flattened``
holds one.

Interval results are first-class: when the hypotheses of an equality rule
fail, the best provable bounds are reported with their citations instead of
guessing.
"""

from __future__ import annotations

from typing import Sequence

from .dimension import (
    INF,
    DimensionValue,
    dim_affine,
    zero_divisor_status,
    ZeroDivisorStatus,
)
from .errors import FrozenRecord, InconsistentBoundsError, Record, RingMismatchError
from .fields import (
    CoefficientField,
    RationalFunctionField,
    merged_function_field,
)
from .ideals import Budget, IdealPresentation, rabinowitsch
from .polynomials import Polynomial, PolynomialRing, fresh_variable

# rule identifiers (stable strings: they appear in reports and tests)
RULE_FIELD = "field-dim-zero"
RULE_TRDEG_SUM = "field-tensor-trdeg-sum"
RULE_TENSOR_INF = "tensor-infinite"
RULE_TENSOR_LB = "tensor-lower-bound"
RULE_TENSOR_UB = "tensor-upper-bound"
RULE_TENSOR_EQ = "tensor-trdeg-equality"
RULE_INTEGRAL = "integral-extension"
RULE_FFLAT = "faithfully-flat-bound"
RULE_POLY_EXT = "polynomial-extension"
RULE_QUOT_UB = "quotient-upper-bound"
RULE_LOC_POLY = "polynomial-localization"
RULE_LOC_NZD = "nzd-localization"
RULE_LOC_KERNEL = "kernel-localization"
RULE_LOC_UB = "localization-upper-bound"
RULE_UNIT_LOC = "unit-localization"
RULE_KERNEL = "kernel-groebner"
RULE_FIBER = "generic-fiber-kernel"
RULE_DOMAIN_TRDEG = "affine-domain-trdeg"
RULE_EMPTY = "empty-ring"
RULE_LOC_ZERO = "localization-at-zero"
RULE_FRAC = "fraction-field"
RULE_TENSOR_UNIT = "tensor-unit"

CITATIONS = {
    RULE_FIELD: "fields have Krull dimension zero",
    RULE_TRDEG_SUM: "dimension of a tensor product of finitely many field extensions (Sharp-Vamos)",
    RULE_TENSOR_INF: "two countable algebraically independent families force chains of every length",
    RULE_TENSOR_LB: "explicit prime chain over the adjoined indeterminates",
    RULE_TENSOR_UB: "dim A[X_1..X_n] = dim A + n for Noetherian A (Matsumura, Thm 15.4)",
    RULE_TENSOR_EQ: "chain lower bound meets the Noetherian polynomial upper bound",
    RULE_INTEGRAL: "integral extensions preserve Krull dimension (Matsumura, Ex 9.2)",
    RULE_FFLAT: "a faithfully flat algebra dominates the dimension of its base (Matsumura, Thms 7.3/9.5)",
    RULE_POLY_EXT: "dim A[X_1..X_n] = dim A + n for Noetherian A (Matsumura, Thm 15.4)",
    RULE_QUOT_UB: "quotients never raise Krull dimension",
    RULE_LOC_POLY: "dim K[X_1..X_n][1/f] = n for nonzero f",
    RULE_LOC_NZD: "inverting a non-zero-divisor preserves the dimension of an affine algebra",
    RULE_LOC_KERNEL: "Rabinowitsch presentation computed by the Groebner kernel",
    RULE_LOC_UB: "localization never raises Krull dimension",
    RULE_UNIT_LOC: "inverting elements that are already units changes nothing",
    RULE_KERNEL: "independent-set dimension of the leading-term ideal",
    RULE_FIBER: "purely transcendental base extension preserves affine dimension",
    RULE_DOMAIN_TRDEG: "dim of an affine domain equals trdeg of its fraction field",
    RULE_EMPTY: "the zero ring has no prime ideals",
    RULE_LOC_ZERO: "inverting zero annihilates the ring",
    RULE_FRAC: "the fraction field of a domain is a field",
    RULE_TENSOR_UNIT: "tensoring with the base ring is the identity",
}


# -- expression tree -----------------------------------------------------------

class RingExpr(FrozenRecord):
    """Base class for ring-construction syntax trees."""


class BaseField(RingExpr):
    coefficients: CoefficientField


class FieldExt(RingExpr):
    """A field extension given by a chosen transcendence basis plus monic
    algebraic relations adjoined afterwards.

    The basis is recorded by fiat: ``basis_names`` label algebraically
    independent elements, and each ``(symbol, minimal_polynomial)`` entry may
    mention only the basis and earlier symbols.  Monic minimal polynomials
    double as the integrality certificate for the algebraic part.
    """

    over: CoefficientField
    trdeg: object  # int or INF
    basis_names: tuple[str, ...] = ()
    algebraic_part: tuple[tuple[str, Polynomial], ...] = ()

    def __post_init__(self):
        if self.trdeg == INF:
            if self.algebraic_part:
                raise ValueError("infinite-trdeg extensions carry no algebraic part")
            if self.basis_names:
                raise ValueError("an infinite transcendence basis is never materialized")
            return
        if self.trdeg < 0:
            raise ValueError("negative transcendence degree")
        if len(self.basis_names) != self.trdeg:
            raise ValueError("one basis name per transcendental")
        symbols = [name for name, _ in self.algebraic_part]
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate algebraic symbols")
        ring = self.ambient_ring
        for j, (name, poly) in enumerate(self.algebraic_part):
            idx = ring.variable_index(name)
            d = poly.degree_in(idx)
            if d < 1:
                raise ValueError(f"minimal polynomial for {name} is constant in {name}")
            allowed = {ring.variable_index(s) for s, _ in self.algebraic_part[: j + 1]}
            if not poly.support() <= allowed:
                raise ValueError(f"minimal polynomial for {name} uses later symbols")
            lead = poly.coefficient_of(idx, d)
            if lead != ring.one():
                raise ValueError(f"minimal polynomial for {name} is not monic")

    @property
    def flat_field(self) -> CoefficientField:
        if self.trdeg == INF:
            raise ValueError("infinite extensions have no flat coefficient field")
        if not self.basis_names:
            return self.over
        return merged_function_field(self.over, self.basis_names)

    @property
    def ambient_ring(self) -> PolynomialRing:
        return PolynomialRing(self.flat_field, tuple(s for s, _ in self.algebraic_part))


class PolyExt(RingExpr):
    base: RingExpr
    variables: tuple[str, ...]


class Quotient(RingExpr):
    base: RingExpr
    relations: tuple[Polynomial, ...]


class LocElement(RingExpr):
    base: RingExpr
    element: Polynomial


class LocSubringComplement(RingExpr):
    """Localization at S = R[t_1..t_n] - {0} for declared independent t_i."""

    base: RingExpr
    subring_generators: tuple[Polynomial, ...]


class Tensor(RingExpr):
    legs: tuple[RingExpr, ...]
    over: CoefficientField


class FracField(RingExpr):
    base: RingExpr


class TraceEntry(FrozenRecord):
    rule: str
    citation: str
    detail: str = ""


class DimensionResult(Record):
    """A dimension with its derivation trace and optional kernel witness.

    ``cross_checks`` holds the ``(name, detail)`` pairs of the comparisons
    the evaluation made and passed: ``exact-rules-agree`` when an exact rule
    met an earlier exact value, ``upper-bound-consistent`` for each upper
    bound the exact value was checked against, whichever was found first.
    A failed comparison raises instead, so every recorded check agreed."""

    value: DimensionValue
    trace: tuple[TraceEntry, ...]
    flattened: IdealPresentation | None = None
    cross_checks: tuple[tuple[str, str], ...] = ()


class _Claims:
    """Accumulates rule outcomes and the cross-checks between them; raises
    on contradiction."""

    def __init__(self):
        self.lo = 0
        self.hi = INF
        self.exact = None
        self.exact_rule = None
        self.upper_rules: list[str] = []
        self.empty = False
        self.trace: list[TraceEntry] = []
        self.checks: list[tuple[str, str]] = []

    def note(self, rule: str, detail: str = ""):
        self.trace.append(TraceEntry(rule, CITATIONS[rule], detail))

    def merge(self, sub: DimensionResult):
        """Take over a sub-result's trace and the checks it made."""
        self.trace.extend(sub.trace)
        self.checks.extend(sub.cross_checks)

    def eval_base(self, expr: RingExpr, budget: Budget, detail: str) -> DimensionResult | None:
        """Evaluate a construction's base ring and take over its trace; when
        the base is the zero ring, mark this ring empty with ``detail`` and
        return None instead."""
        sub = _eval(expr, budget)
        if sub.value.kind == "empty":
            self.mark_empty(detail=detail)
            return None
        self.merge(sub)
        return sub

    def lower(self, v, rule: str, detail: str = ""):
        self.note(rule, detail)
        if v > self.lo:
            self.lo = v

    def upper(self, v, rule: str, detail: str = ""):
        self.note(rule, detail)
        self.upper_rules.append(rule)
        if v < self.hi:
            self.hi = v

    def exactly(self, v, rule: str, detail: str = ""):
        self.note(rule, detail)
        if self.exact is None:
            self.exact = v
            self.exact_rule = rule
        elif self.exact != v:
            raise InconsistentBoundsError(
                f"rules {self.exact_rule} and {rule} disagree: {self.exact} vs {v}"
            )
        else:
            self.checks.append(("exact-rules-agree", f"{self.exact_rule} = {rule}"))
        if v > self.lo:
            self.lo = v
        if v < self.hi:
            self.hi = v

    def mark_empty(self, rule: str = RULE_EMPTY, detail: str = ""):
        self.note(rule, detail)
        self.empty = True

    def finish(self, flattened: IdealPresentation | None = None) -> DimensionResult:
        if self.empty:
            return self.result(DimensionValue.empty_ring(), flattened)
        if self.lo > self.hi:
            raise InconsistentBoundsError(
                f"lower bound {self.lo} exceeds upper bound {self.hi}; trace: "
                + "; ".join(e.rule for e in self.trace)
            )
        if self.exact is not None:
            # the exact value sits in lo and passed the comparison above
            self.checks.extend(("upper-bound-consistent", f"{self.exact_rule} within {rule}") for rule in self.upper_rules)
            value = DimensionValue.exact(self.exact)
        else:
            value = DimensionValue.interval(self.lo, self.hi)
        return self.result(value, flattened)

    def result(self, value: DimensionValue, flattened: IdealPresentation | None = None) -> DimensionResult:
        return DimensionResult(value, tuple(self.trace), flattened, tuple(self.checks))


# -- structural helpers ----------------------------------------------------------

def field_trdeg_over(big: CoefficientField, small: CoefficientField):
    """trdeg of one representable field over another, or None if the two do
    not sit in a recognized tower."""
    if big == small:
        return 0
    if isinstance(big, RationalFunctionField):
        if big.base == small:
            return len(big.variables)
        if (
            isinstance(small, RationalFunctionField)
            and small.base == big.base
            and big.variables[: len(small.variables)] == small.variables
        ):
            return len(big.variables) - len(small.variables)
    return None


def contained_subfield_trdeg(expr: RingExpr, over: CoefficientField):
    """Largest transcendence degree over ``over`` of a subfield the
    expression structurally contains, or None when nothing is recognized.

    Subfields survive every construction here as long as the result is a
    nonzero ring, because a field maps injectively into any nonzero algebra.
    """
    if isinstance(expr, BaseField):
        return field_trdeg_over(expr.coefficients, over)
    if isinstance(expr, FieldExt):
        base_t = field_trdeg_over(expr.over, over)
        if base_t is None:
            return None
        return base_t + expr.trdeg
    if isinstance(expr, Quotient):
        if any(r.is_constant() and not r.is_zero() for r in expr.relations):
            return None  # visibly the zero ring: it contains no field at all
        return contained_subfield_trdeg(expr.base, over)
    if isinstance(expr, (PolyExt, LocElement, LocSubringComplement, FracField)):
        return contained_subfield_trdeg(expr.base, over)
    if isinstance(expr, Tensor):
        legs = [contained_subfield_trdeg(leg, over) for leg in expr.legs]
        legs = [t for t in legs if t is not None]
        return max(legs, default=None)
    return None


def noetherian_flag(expr: RingExpr) -> bool:
    """Structural Noetherian certificate: affine constructions and their
    localizations are flagged; infinite-trdeg extensions never are."""
    if isinstance(expr, BaseField):
        return True
    if isinstance(expr, FieldExt):
        return expr.trdeg != INF
    if isinstance(expr, (PolyExt, Quotient, LocElement, LocSubringComplement, FracField)):
        return noetherian_flag(expr.base)
    if isinstance(expr, Tensor):
        return all(noetherian_flag(leg) for leg in expr.legs)
    return False


def structurally_domain(expr: RingExpr) -> bool:
    if isinstance(expr, (BaseField, FieldExt)):
        return True
    if isinstance(expr, PolyExt):
        return structurally_domain(expr.base)
    if isinstance(expr, LocElement):
        return structurally_domain(expr.base) and not expr.element.is_zero()
    if isinstance(expr, (LocSubringComplement, FracField)):
        return structurally_domain(expr.base)
    return False


def flatten_affine(expr: RingExpr) -> IdealPresentation | None:
    """An affine presentation of the expression over its own coefficient
    field, when one exists within tower limits.

    Its ring lists the variables the expression's elements are parsed in
    (for a tensor, those of each leg in turn), then one Rabinowitsch
    variable per localization, innermost first; so an element parsed in
    the expression lifts to the presentation by prefix ``map_to``.
    """
    flat = _flatten(expr)
    if flat is None:
        return None
    ring, generators = flat
    ideal = IdealPresentation.zero_ideal(ring)
    for g, inverted in generators:
        g = g.map_to(ideal.ring)
        ideal = rabinowitsch(ideal, g) if inverted else IdealPresentation(ideal.ring, (*ideal.generators, g))
    return ideal


def tensor_variables(over: CoefficientField, legs: Sequence[tuple[str, ...]]) -> tuple[str, ...]:
    """The variables of a tensor product over ``over`` whose legs have the
    variables ``legs``: each leg's in turn, where a name the product already
    has becomes a ``fresh_variable`` name that avoids every name of that leg
    as well, so it cannot collide with a later variable."""
    ring = PolynomialRing(over, ())
    for variables in legs:
        names: list[str] = []
        for name in variables:
            if name in ring.variables:
                name = fresh_variable(name, ring, (*variables, *names))
            names.append(name)
        ring = ring.extend(names)
    return ring.variables


def _flatten(expr: RingExpr) -> tuple[PolynomialRing, list[tuple[Polynomial, bool]]] | None:
    """The ring ``flatten_affine`` parses in and its generators in order,
    each a relation (False) or an element to invert (True), in that ring.

    Tensor legs are juxtaposed, named by ``tensor_variables``."""
    if isinstance(expr, BaseField):
        return PolynomialRing(expr.coefficients, ()), []
    if isinstance(expr, FieldExt):
        if expr.trdeg == INF:
            return None
        return expr.ambient_ring, [(p, False) for _, p in expr.algebraic_part]
    if isinstance(expr, Tensor):
        flats = []
        for leg in expr.legs:
            flat = _flatten(leg)
            if flat is None or flat[0].field != expr.over:
                return None
            flats.append(flat)
        ring = PolynomialRing(expr.over, tensor_variables(expr.over, [leg_ring.variables for leg_ring, _ in flats]))
        generators, offset = [], 0
        for leg_ring, leg_generators in flats:
            shift = {i: offset + i for i in range(leg_ring.arity)}
            generators += [(g.map_to(ring, shift), inv) for g, inv in leg_generators]
            offset += leg_ring.arity
        return ring, generators
    if not isinstance(expr, (PolyExt, Quotient, LocElement)):
        return None
    inner = _flatten(expr.base)
    if inner is None:
        return None
    ring, generators = inner
    if isinstance(expr, PolyExt):
        ext = ring.extend(expr.variables)
        return ext, [(g.map_to(ext), inv) for g, inv in generators]
    added = [(r, False) for r in expr.relations] if isinstance(expr, Quotient) else [(expr.element, True)]
    for g, _ in added:
        if g.ring != ring:
            raise RingMismatchError(f"{g!r} is not in {ring!r}")
    return ring, generators + added


# -- closed rules -----------------------------------------------------------------

def field_tensor_dimension(trdegs: Sequence[object]) -> DimensionValue:
    """Dimension of a tensor product of field extensions from their
    transcendence degrees: sum of all but the largest, infinite when at
    least two factors have infinite degree.

    The formula is symmetric, so the required ascending normalization is
    just a sort; ties need no care.
    """
    ts = sorted(trdegs)
    if not ts:
        raise ValueError("a tensor product needs at least one factor")
    if len(ts) >= 2 and ts[-2] == INF:
        return DimensionValue.infinite()
    return DimensionValue.exact(sum(ts[:-1], 0))


def integral_extension_rule(claims: _Claims, leg: RingExpr) -> None:
    """Dimension-equality rule across an integral extension; the syntactic
    certificate is the monic shape of the adjoined minimal polynomials,
    which ``FieldExt`` construction already enforced.  Applies only to field
    extension legs with something algebraic to cross."""
    if not isinstance(leg, FieldExt) or not leg.algebraic_part:
        return
    names = ",".join(s for s, _ in leg.algebraic_part)
    claims.note(RULE_INTEGRAL, f"algebraic part ({names}) crossed without changing dimension")


# -- evaluation --------------------------------------------------------------------

def evaluate(expr: RingExpr, budget: Budget | None = None) -> DimensionResult:
    """Apply every applicable rule to the expression and intersect bounds."""
    budget = budget or Budget()
    return _eval(expr, budget)


def _eval(expr: RingExpr, budget: Budget) -> DimensionResult:
    if isinstance(expr, (BaseField, FieldExt)):
        claims = _Claims()
        detail = ""
        if isinstance(expr, FieldExt):
            detail = f"trdeg {expr.trdeg} extension; a field as a ring"
        claims.exactly(0, RULE_FIELD, detail)
        return claims.finish(flatten_affine(expr))

    if isinstance(expr, PolyExt):
        return _eval_poly_ext(expr, budget)
    if isinstance(expr, Quotient):
        return _eval_quotient(expr, budget)
    if isinstance(expr, LocElement):
        return _eval_loc_element(expr, budget)
    if isinstance(expr, LocSubringComplement):
        return _eval_loc_subring(expr, budget)
    if isinstance(expr, Tensor):
        return _eval_tensor(expr, budget)
    if isinstance(expr, FracField):
        return _eval_frac(expr, budget)
    raise TypeError(f"unknown ring expression {expr!r}")


def _kernel_exact(claims: _Claims, flat: IdealPresentation, budget: Budget, rule: str = RULE_KERNEL, detail: str = ""):
    d = dim_affine(flat, budget=budget)
    if d.kind == "empty":
        claims.mark_empty(detail="the presented ideal is the unit ideal")
    else:
        claims.exactly(d.value, rule, detail)
    return d


def _eval_poly_ext(expr: PolyExt, budget: Budget) -> DimensionResult:
    claims = _Claims()
    flat = flatten_affine(expr)
    if flat is not None:
        _kernel_exact(claims, flat, budget)
        return claims.finish(flat)
    sub = claims.eval_base(expr.base, budget, "polynomials over the zero ring")
    if sub is None:
        return claims.finish()
    n = len(expr.variables)
    claims.lower(sub.value.lo + n, RULE_POLY_EXT, f"chains extend by {n} across the new variables")
    if noetherian_flag(expr.base) and sub.value.hi != INF:
        claims.upper(sub.value.hi + n, RULE_POLY_EXT, "Noetherian-flagged base")
    return claims.finish()


def _eval_quotient(expr: Quotient, budget: Budget) -> DimensionResult:
    claims = _Claims()
    flat = flatten_affine(expr)
    if flat is not None:
        _kernel_exact(claims, flat, budget)
        return claims.finish(flat)
    if any(r.is_constant() and not r.is_zero() for r in expr.relations):
        claims.mark_empty(detail="a unit among the relations")
        return claims.finish()
    sub = claims.eval_base(expr.base, budget, "quotient of the zero ring")
    if sub is None:
        return claims.finish()
    claims.upper(sub.value.hi, RULE_QUOT_UB, "no kernel presentation available")
    return claims.finish()


def _eval_loc_element(expr: LocElement, budget: Budget) -> DimensionResult:
    claims = _Claims()
    base_flat = flatten_affine(expr.base)
    if base_flat is None:
        sub = claims.eval_base(expr.base, budget, "localizing the zero ring")
        if sub is None:
            return claims.finish()
        claims.upper(sub.value.hi, RULE_LOC_UB)
        return claims.finish()
    flat = flatten_affine(expr)
    f = expr.element.map_to(base_flat.ring)
    if base_flat.contains(f, budget=budget):
        claims.mark_empty(RULE_LOC_ZERO, "the element is zero in the algebra")
        return claims.finish(base_flat)
    if base_flat.is_zero_ideal():
        n = base_flat.ring.arity
        claims.exactly(n, RULE_LOC_POLY, f"polynomial ring in {n} variables")
        _kernel_exact(claims, flat, budget, detail="Rabinowitsch cross-check")
    elif zero_divisor_status(base_flat, f, budget) is ZeroDivisorStatus.NON_ZERO_DIVISOR:
        _kernel_exact(claims, base_flat, budget, RULE_LOC_NZD, "non-zero-divisor certified by ideal quotient")
        _kernel_exact(claims, flat, budget, detail="Rabinowitsch cross-check")
    else:
        # a nilpotent element lands here: the Rabinowitsch ideal is the unit ideal
        _kernel_exact(claims, flat, budget, RULE_LOC_KERNEL, "zero-divisor: no preservation rule, kernel value only")
    return claims.finish(flat)


def _eval_loc_subring(expr: LocSubringComplement, budget: Budget) -> DimensionResult:
    claims = _Claims()
    sub = claims.eval_base(expr.base, budget, "localizing the zero ring")
    if sub is None:
        return claims.finish()
    gens = expr.subring_generators
    if gens and all(g.is_constant() and not g.is_zero() for g in gens):
        # subring generated inside the coefficient field: S consists of units
        if sub.value.is_exact:
            claims.exactly(sub.value.value, RULE_UNIT_LOC, "subring generators lie in the coefficient field")
        else:
            claims.lower(sub.value.lo, RULE_UNIT_LOC)
            claims.upper(sub.value.hi, RULE_UNIT_LOC)
        return claims.finish(sub.flattened)
    claims.upper(sub.value.hi, RULE_LOC_UB, "no unit certificate for the multiplicative set")
    return claims.finish()


def _eval_frac(expr: FracField, budget: Budget) -> DimensionResult:
    claims = _Claims()
    if structurally_domain(expr.base):
        claims.exactly(0, RULE_FRAC, "base is structurally a domain")
        return claims.finish()
    sub = claims.eval_base(expr.base, budget, "the zero ring has no fraction field")
    if sub is None:
        return claims.finish()
    claims.upper(sub.value.hi, RULE_LOC_UB, "total quotient ring; domain not certified")
    return claims.finish()


def _eval_tensor(expr: Tensor, budget: Budget) -> DimensionResult:
    claims = _Claims()
    over = expr.over
    if not expr.legs:
        raise ValueError("a tensor product needs at least one factor")

    if len(expr.legs) == 1:
        # a one-factor tensor over the base field is the factor itself
        inner = _eval(expr.legs[0], budget)
        claims.merge(inner)
        claims.note(RULE_TENSOR_UNIT)
        return claims.result(inner.value, inner.flattened)

    subfields = [contained_subfield_trdeg(leg, over) for leg in expr.legs]
    infinite_legs = sum(1 for t in subfields if t == INF)
    if infinite_legs >= 2:
        claims.note(
            RULE_TENSOR_INF,
            "two factors contain countably infinite independent families",
        )
        claims.note(RULE_FFLAT, "enlarging the transcendental leg keeps every finite lower bound")
        return claims.result(DimensionValue.infinite())

    # trdeg over the base of each leg that is itself a field (None otherwise)
    field_legs = [
        t if isinstance(leg, (BaseField, FieldExt)) else None for leg, t in zip(expr.legs, subfields)
    ]
    if all(t is not None for t in field_legs):
        for leg in expr.legs:
            integral_extension_rule(claims, leg)
        # at most one leg is infinite here, so the formula gives an integer
        value = field_tensor_dimension(field_legs)
        claims.exactly(value.value, RULE_TRDEG_SUM, f"trdegs {sorted(field_legs)}: sum of all but the largest")
        flat = flatten_affine(expr)
        if flat is not None:
            _kernel_exact(claims, flat, budget, detail="affine cross-check of the trdeg formula")
        return claims.finish(flat)

    flat = flatten_affine(expr)
    if flat is not None:
        _kernel_exact(claims, flat, budget)
        return claims.finish(flat)

    # one transcendental field leg against affine legs: the generic fiber
    trans = [i for i, t in enumerate(field_legs) if t is not None]
    if len(trans) == 1 and field_legs[trans[0]] != INF:
        i = trans[0]
        t = field_legs[i]
        rest = [leg for j, leg in enumerate(expr.legs) if j != i]
        combined = flatten_affine(Tensor(tuple(rest), over))
        if combined is not None:
            integral_extension_rule(claims, expr.legs[i])
            fiber = dim_affine(combined, budget=budget)
            if fiber.kind == "empty":
                claims.mark_empty(detail="affine legs present the zero ring")
                return claims.finish()
            claims.exactly(fiber.value, RULE_FIBER, f"dim A, invariant under base change ({t} fresh transcendentals)")
            bound = fiber.value + t
            claims.upper(bound, RULE_TENSOR_UB, f"dim A + n <= {bound}")
            return claims.finish(combined)

        # the algebra legs may contain a subfield supplying independent
        # witnesses; a Noetherian-flagged algebra has a finite (or no) one
        rest_expr = rest[0] if len(rest) == 1 else Tensor(tuple(rest), over)
        if noetherian_flag(rest_expr):
            sub_t = contained_subfield_trdeg(rest_expr, over)
            inner = _eval(rest_expr, budget)
            claims.merge(inner)
            if inner.value.kind == "empty":
                claims.mark_empty()
                return claims.finish()
            if inner.value.is_exact:
                integral_extension_rule(claims, expr.legs[i])
                d = inner.value.value
                s = 0 if sub_t is None else min(sub_t, t)
                detail = f"subfield of trdeg {sub_t} supplies {s} independent witnesses; S^-1 A = A"
                claims.lower(s + d, RULE_TENSOR_LB, detail)
                claims.note(RULE_UNIT_LOC, "the witnesses generate a subfield, so S is made of units")
                if 0 < s < t:
                    claims.note(RULE_FFLAT, f"enlarging the transcendental leg from {s} to {t} keeps the bound")
                claims.upper(d + t, RULE_TENSOR_UB, "Noetherian-flagged algebra leg")
                if sub_t is not None and sub_t >= t:
                    claims.exactly(t + d, RULE_TENSOR_EQ, f"n={t}, dim A={d}")
                return claims.finish(inner.flattened)

    # fallback: free-module faithful flatness gives the best leg lower bound
    best = 0
    for leg in expr.legs:
        inner = _eval(leg, budget)
        if inner.value.kind == "empty":
            claims.mark_empty(detail="one tensor factor is the zero ring")
            return claims.finish()
        best = max(best, inner.value.lo)
    claims.lower(best, RULE_FFLAT, "every factor is a free module over the base field")
    return claims.finish()
