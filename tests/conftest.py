from __future__ import annotations

import random

from hypothesis import settings

from ringdim import (
    EmptyRingError,
    IdealPresentation,
    Polynomial,
    PolynomialRing,
    RationalFunctionField,
    dim_affine,
    format_polynomial,
    parse_polynomial,
)

settings.register_profile("ci", max_examples=60, deadline=None)
settings.load_profile("ci")


def random_polynomial(
    rng: random.Random,
    ring: PolynomialRing,
    max_degree: int = 3,
    max_terms: int = 4,
    nonzero: bool = False,
) -> Polynomial:
    """Small sparse polynomial with coefficients the field builds from ints."""
    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            exps = [0] * ring.arity
            degree = rng.randint(0, max_degree)
            for _ in range(degree):
                if ring.arity:
                    exps[rng.randrange(ring.arity)] += 1
            coeff = ring.field.from_int(rng.choice([-3, -2, -1, 1, 1, 2, 3]))
            key = tuple(exps)
            terms[key] = ring.field.add(terms.get(key, ring.field.zero), coeff)
        p = Polynomial(ring, terms)
        if not nonzero or not p.is_zero():
            return p


def monomial(ring: PolynomialRing, exps, coeff=None) -> Polynomial:
    """The term coeff * x^exps (coeff defaults to 1)."""
    return Polynomial(ring, {tuple(exps): ring.field.one if coeff is None else coeff})


def height(prime: IdealPresentation) -> int:
    """Height of a prime of K[X_1..X_n], as n minus the dimension of the
    quotient."""
    dim = dim_affine(prime)
    if dim.kind == "empty":
        raise EmptyRingError("the unit ideal has no height")
    return prime.ring.arity - dim.value


def same_ideal(a: IdealPresentation, b: IdealPresentation) -> bool:
    """Two ideals of one ring are equal exactly when their reduced Groebner
    bases are."""
    assert a.ring == b.ring
    return a.groebner_basis() == b.groebner_basis()


def over_function_field(ideal: IdealPresentation, count: int) -> IdealPresentation:
    """The same generators read over K(T1..Tcount), K the coefficient field of
    ``ideal``; an existing function field K0(u..) becomes K0(u.., T1..).  The
    generators are printed and parsed back, so no library code lifts them."""
    field = ideal.ring.field
    fresh = tuple(f"T{i + 1}" for i in range(count))
    if isinstance(field, RationalFunctionField):
        lifted = RationalFunctionField(field.base, field.variables + fresh)
    else:
        lifted = RationalFunctionField(field, fresh)
    ring = PolynomialRing(lifted, ideal.ring.variables)
    return IdealPresentation(ring, [parse_polynomial(format_polynomial(g), ring) for g in ideal.generators])
