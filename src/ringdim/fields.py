"""Coefficient fields: the rationals, prime fields, and one transcendental
layer of rational functions over either.

Element representations are deliberately plain: ``Fraction`` for Q, canonical
ints in [0, p) for F_p, and gcd-reduced numerator/denominator polynomial
pairs for rational function fields.  Field objects mediate all arithmetic so
the polynomial layer never needs to know which representation it is holding.
Rational-function sums and products stay reduced by Henrici's formulas, which
take gcds only of denominators and cross terms; only construction runs the
full normalization, and ``inv`` only makes the swapped denominator monic.

Every field object provides:
    function_variables, from_int, inv
    zero, one        -- from_int(0) and from_int(1)
    add, mul, neg    -- the elements' own +, * and unary -
    is_zero          -- the elements' own truth, negated
    is_one           -- equality with the int 1
    element_key      -- hashable/sortable canonical key
    display_split    -- (is_negative, unsigned text) for the printer
``_Field`` gives zero, one, add, mul, neg, is_zero and is_one as described;
each field defines the rest.  ``PrimeField`` overrides ``add``, ``mul`` and
``neg`` to reduce mod p, and ``RationalFunctionField`` overrides ``is_one``,
since a ``RatFunc`` never equals the int 1.  Division is ``mul`` by ``inv``.
The unsigned text of ``display_split`` is "1" exactly when the element is 1
or -1: ``format_polynomial`` relies on that to print a term with such a
coefficient as its sign and monomial, without testing the element itself.
Every element also supports ``+``, ``-``, ``*``, unary ``-`` and truth (false
exactly at zero); the Groebner kernel (``ideals._Kernel``) divides with these
over every field but Q and Q(t) in one variable, where it divides on ints and
on polynomials in t over Z.
"""

from __future__ import annotations

import operator
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import FrozenRecord, TowerDepthError
from .orderings import GREVLEX
from .polynomials import Polynomial, PolynomialRing, format_polynomial, exact_divide, polynomial_gcd


# Miller-Rabin on these bases decides primality for every n < 3.18e23
# (Sorenson & Webster 2015), so below 2^64 the answer is a proof.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < 2^64; larger n raise ValueError."""
    if n >= 1 << 64:
        raise ValueError(f"prime modulus {n} is not below 2^64")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digits(n: int) -> str:
    """Every decimal digit of the int n.  ``str`` refuses an int past
    ``sys.get_int_max_str_digits()``, and powers build such coefficients;
    only then does ``Decimal`` print it."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


class _Field(FrozenRecord):
    """The protocol entries that the fields share: ``zero`` and ``one``
    from ``from_int``, and arithmetic by the elements' own operators."""

    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    is_zero = staticmethod(operator.not_)

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def is_one(self, a) -> bool:
        return a == 1


class RationalField(_Field):
    """The field Q, with Fraction elements."""

    function_variables: tuple[str, ...] = ()

    def from_int(self, n: int):
        return Fraction(n)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / a

    def element_key(self, a):
        return ("q", a)

    def display_split(self, a) -> tuple[bool, str]:
        num, den = a.numerator, a.denominator
        return num < 0, _digits(abs(num)) if den == 1 else f"{_digits(abs(num))}/{_digits(den)}"

    def __repr__(self):
        return "Q"


QQ = RationalField()


class PrimeField(_Field):
    """F_p for prime p; elements are canonical ints in [0, p), so the
    inherited ``is_zero`` and ``is_one`` need no reduction."""

    p: int
    function_variables: tuple[str, ...] = ()

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def element_key(self, a):
        return ("fp", a % self.p)

    def display_split(self, a) -> tuple[bool, str]:
        return False, str(a % self.p)

    def __repr__(self):
        return f"Fp({self.p})"


def normalize_rational_function(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Canonical form of num/den: gcd-reduced, denominator monic (grevlex).

    Canonicality makes rational-function equality a syntactic check, and
    keeping every value reduced keeps Groebner runs over function fields from
    drowning in coefficient growth.  This full gcd runs when a ``RatFunc`` is
    built; sums and products of reduced operands stay reduced by Henrici's
    formulas instead (see ``RatFunc``), and an inverse swaps the coprime
    parts (``RationalFunctionField.inv``).
    """
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return num.ring.zero(), num.ring.one()
    g = polynomial_gcd(num, den)
    if not g.is_constant():
        num = exact_divide(num, g)
        den = exact_divide(den, g)
    _, lc = den.leading(GREVLEX)
    field = den.ring.field
    if not field.is_one(lc):
        inv = field.inv(lc)
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _is_constant(p: Polynomial) -> bool:
    """True when ``p`` is a nonzero constant.  For a monic polynomial (a
    denominator, a gcd) that means ``p`` is 1; a numerator such as -1 or 1/2
    is constant without being 1."""
    terms = p.terms
    return len(terms) == 1 and not any(next(iter(terms)))


def _times(p: Polynomial, m: Polynomial) -> Polynomial:
    """p*m for a monic ``m``, skipping m = 1."""
    return p if _is_constant(m) else p * m


def _monic_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p*q for monic ``p`` and ``q``, skipping a factor 1."""
    return q if _is_constant(p) else _times(p, q)


def _gcd(p: Polynomial, q: Polynomial) -> Polynomial | None:
    """gcd(p, q) of nonzero ``p`` and ``q``, or None when it is 1; a constant
    operand skips the gcd."""
    if _is_constant(q) or _is_constant(p):
        return None
    g = polynomial_gcd(p, q)
    return None if _is_constant(g) else g


def _fraction_text(num: Polynomial, den: Polynomial, negate: bool = False) -> str:
    """``(num)/(den)``, or ``(num)`` when the monic ``den`` is 1; with
    ``negate``, -num in place of num (over Q)."""
    if _is_constant(den):
        return f"({format_polynomial(num, negate)})"
    return f"({format_polynomial(num, negate)})/({format_polynomial(den)})"


class RatFunc:
    """A reduced fraction of polynomials in the function-field variables.

    ``RatFunc(num, den)`` normalizes.  ``+``, ``-`` and ``*`` keep their
    results reduced by Henrici's formulas (Knuth, TAOCP vol. 2, 4.5.1): the
    operands are reduced with monic denominators, so only gcds of
    denominators and of cross terms are needed, and a quotient or product of
    monic polynomials is monic under grevlex.  They build the result with
    ``_reduced``, which trusts its arguments.  A ``RatFunc`` is false exactly
    when it is zero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        self.num, self.den = normalize_rational_function(num, den)

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RatFunc":
        r = object.__new__(cls)
        r.num, r.den = num, den
        return r

    def __add__(self, other: "RatFunc") -> "RatFunc":
        n, d, m, e = self.num, self.den, other.num, other.den
        g = _gcd(d, e)
        if g is None:
            # coprime denominators: the result is already reduced
            return RatFunc._reduced(_times(n, e) + _times(m, d), _monic_product(d, e))
        d_g, e_g = exact_divide(d, g), exact_divide(e, g)
        t = _times(n, e_g) + _times(m, d_g)
        if not t.terms:
            return RatFunc._reduced(t, t.ring.one())
        g2 = _gcd(t, g)
        if g2 is not None:
            t, e = exact_divide(t, g2), exact_divide(e, g2)
        return RatFunc._reduced(t, _monic_product(d_g, e))

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + -other

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        n, d, m, e = self.num, self.den, other.num, other.den
        if not n.terms:
            return self
        if not m.terms:
            return other
        g1 = _gcd(n, e)
        if g1 is not None:
            n, e = exact_divide(n, g1), exact_divide(e, g1)
        g2 = _gcd(m, d)
        if g2 is not None:
            m, d = exact_divide(m, g2), exact_divide(d, g2)
        return RatFunc._reduced(n * m, _monic_product(d, e))

    def __neg__(self) -> "RatFunc":
        return RatFunc._reduced(-self.num, self.den)

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return _fraction_text(self.num, self.den)


@lru_cache(maxsize=64)
def _poly_ring(base, variables: tuple[str, ...]) -> PolynomialRing:
    """One ring of numerators and denominators per (base, variables), so
    that the arithmetic of a function field's elements finds its operands'
    rings identical and need not compare them by value."""
    return PolynomialRing(base, variables)


class RationalFunctionField(_Field):
    """K(t_1, .., t_m) for K in {Q, F_p}: a single transcendental layer.

    Stacking a function field on a function field is rejected; a tower
    K(u)(v) is always represented flattened as K(u, v).
    """

    base: RationalField | PrimeField
    variables: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.base, RationalFunctionField):
            raise TowerDepthError("rational function fields cannot be nested; merge the variables")
        if not isinstance(self.base, (RationalField, PrimeField)):
            raise TypeError(f"unsupported base field {self.base!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate function-field variables {self.variables}")
        if not self.variables:
            raise ValueError("a rational function field needs at least one variable")

    @property
    def function_variables(self) -> tuple[str, ...]:
        return self.variables

    @property
    def poly_ring(self) -> PolynomialRing:
        return _poly_ring(self.base, self.variables)

    def from_int(self, n: int) -> RatFunc:
        ring = self.poly_ring
        return RatFunc._reduced(ring.from_int(n), ring.one())

    def generator(self, name: str) -> RatFunc:
        ring = self.poly_ring
        return RatFunc._reduced(ring.variable(name), ring.one())

    def inv(self, a: RatFunc) -> RatFunc:
        """den/num, with no gcd: the parts of a are already coprime, so only
        the new denominator needs making monic."""
        if a.num.is_zero():
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        _, lc = a.num.leading(GREVLEX)
        if self.base.is_one(lc):
            return RatFunc._reduced(a.den, a.num)
        inv = self.base.inv(lc)
        return RatFunc._reduced(a.den.scale(inv), a.num.scale(inv))

    def is_one(self, a: RatFunc) -> bool:
        return _is_constant(a.den) and _is_constant(a.num) and self.base.is_one(a.num.constant_value())

    def element_key(self, a: RatFunc):
        return ("rf", a.num.sort_key(), a.den.sort_key())

    def display_split(self, a: RatFunc) -> tuple[bool, str]:
        num, den = a.num, a.den
        if _is_constant(den) and num.is_constant():
            return self.base.display_split(num.constant_value())
        # the sign of the lead: F_p elements, ints in [0, p), have none
        neg = num.leading(GREVLEX)[1] < 0
        return neg, _fraction_text(num, den, neg)

    def __repr__(self):
        return f"FunField({self.base!r}; {','.join(self.variables)})"


CoefficientField = RationalField | PrimeField | RationalFunctionField


def merged_function_field(field: CoefficientField, extra: tuple[str, ...]) -> RationalFunctionField:
    """Adjoin fresh transcendentals to a field, flattening any existing layer."""
    if isinstance(field, RationalFunctionField):
        return RationalFunctionField(field.base, field.variables + extra)
    return RationalFunctionField(field, extra)
