from __future__ import annotations

import random
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringdim import (
    BlockElimination,
    GREVLEX,
    LEX,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QQ,
    RationalField,
    RationalFunctionField,
    RingMismatchError,
    ZeroPolynomialError,
    buchberger,
    exact_divide,
    format_polynomial,
    parse_polynomial,
    polynomial_gcd,
)

from ringdim import fields
from conftest import random_polynomial


@pytest.fixture
def rxy():
    return PolynomialRing(QQ, ("x", "y"))


def test_add_cancellation(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    assert (x + y) + (x - y) == x.scale(QQ.from_int(2))


def test_add_zero_identity(rxy):
    p = rxy.variable("x") ** 2 - rxy.one()
    assert p + rxy.zero() == p


def test_int_coefficients_are_made_canonical_in_the_field():
    r = PolynomialRing(PrimeField(7), ("x",))
    assert Polynomial(r, {(1,): -1}) == Polynomial(r, {(1,): 6}) == r.variable("x").scale(6)
    assert hash(Polynomial(r, {(1,): -1})) == hash(Polynomial(r, {(1,): 6}))
    assert format_polynomial(Polynomial(r, {(1,): -1})) == "6*x"
    assert Polynomial(r, {(0,): 8}) == r.one()
    assert format_polynomial(Polynomial(r, {(0,): 8})) == "1"
    assert Polynomial(r, {(1,): 7}).is_zero()
    field = RationalFunctionField(QQ, ("t",))
    s = PolynomialRing(field, ("x",))
    p = Polynomial(s, {(1,): 2})
    assert p.terms == {(1,): field.from_int(2)}
    assert p == s.variable("x").scale(field.from_int(2))
    assert format_polynomial(p) == "2*x"


def test_char_two_cancellation():
    ring = PolynomialRing(PrimeField(2), ("x",))
    x = ring.variable("x")
    assert (x + x).is_zero()


def test_mul_difference_of_squares(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    assert (x + y) * (x - y) == x**2 - y**2


def test_mul_one_identity(rxy):
    p = rxy.variable("x") * rxy.variable("y") + rxy.from_int(5)
    assert p * rxy.one() == p


def test_mul_function_field_inverse():
    field = RationalFunctionField(QQ, ("t",))
    ring = PolynomialRing(field, ("x",))
    t = field.generator("t")
    x = ring.variable("x")
    assert x.scale(t) * x.scale(field.inv(t)) == x**2


def test_leading_term_lex(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    p = x**2 + x * y + y**2
    exps, coeff = p.leading(LEX)
    assert exps == (2, 0) and coeff == 1


def test_leading_term_grevlex_degree_tie():
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    p = ring.variable("x") + ring.variable("y") + ring.variable("z")
    exps, _ = p.leading(GREVLEX)
    assert exps == (1, 0, 0)


def test_leading_term_lex_against_exponent_comparison(rxy):
    # oracle: lexicographic comparison of the exponent vectors themselves
    x, y = rxy.variable("x"), rxy.variable("y")
    p = x * y**2 + x**2
    assert max(p.terms, key=lambda e: e) == (2, 0)  # tuple order IS lex order
    assert p.leading(LEX)[0] == (2, 0)


def test_leading_term_follows_the_order_asked_for(rxy):
    # the cached leading term must not leak from one order to the next
    x, y = rxy.variable("x"), rxy.variable("y")
    p = x + y**2
    assert p.leading(LEX)[0] == (1, 0)
    assert p.leading(GREVLEX)[0] == (0, 2)
    assert p.leading(BlockElimination(frozenset({0})))[0] == (1, 0)
    assert p.leading(GREVLEX)[0] == (0, 2)
    assert p.leading(LEX)[0] == (1, 0)


def test_leading_term_of_zero_raises(rxy):
    with pytest.raises(ZeroPolynomialError):
        rxy.zero().leading(LEX)


def test_ring_mismatch_raises(rxy):
    other = PolynomialRing(QQ, ("x", "z"))
    with pytest.raises(RingMismatchError):
        rxy.variable("x") + other.variable("x")


@pytest.fixture(params=["Q", "F5", "Qt"])
def any_ring(request):
    if request.param == "Q":
        return PolynomialRing(QQ, ("x", "y"))
    if request.param == "F5":
        return PolynomialRing(PrimeField(5), ("x", "y"))
    return PolynomialRing(RationalFunctionField(QQ, ("t",)), ("x", "y"))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**9))
def test_ring_axioms_random_triples(any_ring, seed):
    rng = random.Random(seed)
    a = random_polynomial(rng, any_ring)
    b = random_polynomial(rng, any_ring)
    c = random_polynomial(rng, any_ring)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_substitute(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    p = x**2 + y
    assert p.substitute({0: y}) == y**2 + y


def test_exact_divide(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    p = (x + y) * (x - y)
    assert exact_divide(p, x + y) == x - y
    assert exact_divide(x, y) is None


def _schoolbook_divide(p: Polynomial, q: Polynomial) -> Polynomial | None:
    """p/q by one polynomial subtraction per quotient term, or None."""
    lq, cq = q.leading(GREVLEX)
    quotient, rest = {}, p
    while rest:
        lr, cr = rest.leading(GREVLEX)
        if any(a > b for a, b in zip(lq, lr)):
            return None
        exps = tuple(b - a for a, b in zip(lq, lr))
        quotient[exps] = p.ring.field.div(cr, cq)
        rest = rest - q.mul_term(quotient[exps], exps)
    return Polynomial(p.ring, quotient)


@settings(derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**9))
def test_exact_divide_matches_schoolbook_division(any_ring, seed):
    rng = random.Random(seed)
    a, r = random_polynomial(rng, any_ring), random_polynomial(rng, any_ring)
    b = random_polynomial(rng, any_ring, nonzero=True)
    for p in (a * b, a * b + r):
        assert exact_divide(p, b) == _schoolbook_divide(p, b)
    assert exact_divide(a * b, b) == a


def test_polynomial_gcd_multivariate(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    f = (x + y) ** 2 * (x - y)
    g = (x + y) * (x**2 + rxy.one())
    d = polynomial_gcd(f, g)
    assert d == (x + y).monic()
    assert polynomial_gcd(rxy.zero(), g) == g.monic()


# A gcd that shares no code with the Groebner kernel or ``exact_divide``:
# primitive pseudo-remainder sequences, recursive in the largest variable
# that occurs.

def _content(p: Polynomial, i: int) -> Polynomial:
    parts = [p.coefficient_of(i, d) for d in range(p.degree_in(i) + 1)]
    parts = [q for q in parts if not q.is_zero()]
    g = parts[0]
    for q in parts[1:]:
        g = ref_polynomial_gcd(g, q)
    return g


def _pseudo_rem(f: Polynomial, g: Polynomial, i: int) -> Polynomial:
    n = g.degree_in(i)
    lc_g = g.coefficient_of(i, n)
    rest = f
    while not rest.is_zero() and rest.degree_in(i) >= n:
        d = rest.degree_in(i)
        lc_r = rest.coefficient_of(i, d)
        shift = tuple(d - n if j == i else 0 for j in range(f.ring.arity))
        rest = rest * lc_g - (lc_r * g).mul_term(f.ring.field.one, shift)
    return rest


def ref_polynomial_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """gcd(f, g), monic under grevlex, by primitive pseudo-remainder
    sequences; a single-term operand gives the monomial of least exponents."""
    if f.is_zero() and g.is_zero():
        return f
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if len(f.terms) == 1 or len(g.terms) == 1:
        exps = tuple(map(min, *f.terms, *g.terms))
        return Polynomial(f.ring, {exps: f.ring.field.one})
    i = max(f.support() | g.support())  # two terms or more: some variable occurs
    if f.degree_in(i) < g.degree_in(i):
        f, g = g, f
    cf, cg = _content(f, i), _content(g, i)
    content = ref_polynomial_gcd(cf, cg)
    a = _schoolbook_divide(f, cf)
    b = _schoolbook_divide(g, cg)
    while b.degree_in(i) > 0:
        r = _pseudo_rem(a, b, i)
        if r.is_zero():
            prim = _schoolbook_divide(b, _content(b, i))
            return (content * prim).monic()
        # monic as well as primitive, so no constant content builds up
        a, b = b, _schoolbook_divide(r, _content(r, i)).monic()
    # remainder dropped to degree 0 in x_i: the primitive parts are coprime
    return content.monic()


@settings(derandomize=True, max_examples=90, deadline=None)
@given(
    field=st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]),
    arity=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_polynomial_gcd_matches_the_reference_prs(field, arity, seed):
    ring = PolynomialRing(field, ("t", "s", "u")[:arity])
    rng = random.Random(seed)
    a, b, c = (random_polynomial(rng, ring, max_degree=2, max_terms=3, nonzero=True) for _ in range(3))
    f, g = a * c, b * c
    d = polynomial_gcd(f, g)
    assert d == ref_polynomial_gcd(f, g)
    assert field.is_one(d.leading(GREVLEX)[1])
    assert _schoolbook_divide(f, d) is not None and _schoolbook_divide(g, d) is not None


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**9))
def test_format_parse_round_trip(any_ring, seed):
    rng = random.Random(seed)
    p = random_polynomial(rng, any_ring)
    assert parse_polynomial(format_polynomial(p), any_ring) == p


def test_canonical_format_examples(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    p = x**2 * y.scale(QQ.from_int(3)).scale(QQ.inv(QQ.from_int(2))) - y + rxy.one()
    assert format_polynomial(p) == "3/2*x^2*y - y + 1"
    assert format_polynomial(rxy.zero()) == "0"


@pytest.mark.parametrize(
    "field, generators, order, basis",
    [
        (RationalFunctionField(QQ, ("t",)), ["(t + 1)*x - y", "t*y + 1"], GREVLEX,
         ["y + (1)/(t)", "x + (1)/(t^2 + t)"]),
        (RationalFunctionField(QQ, ("t",)), ["x + y", "(2 - t)/(t + 3)*x*y - 1"], LEX,
         ["y^2 - (t + 3)/(t - 2)", "x + y"]),
        (QQ, ["2*x^2 - 3*y", "x*y + 1"], GREVLEX, ["y^2 + 2/3*x", "x*y + 1", "x^2 - 3/2*y"]),
        (PrimeField(7), ["x - y", "x*y + 1"], GREVLEX, ["x + 6*y", "y^2 + 1"]),
    ],
    ids=["function-field", "function-field-negative-lead", "rationals", "f7"],
)
def test_printing_a_basis_does_no_field_arithmetic(monkeypatch, field, generators, order, basis):
    # counts, unlike timings, are the same on every machine
    ring = PolynomialRing(field, ("x", "y"))
    reduced = buchberger([parse_polynomial(g, ring) for g in generators], order)
    calls = []

    def counting(name, f):
        return lambda *args: calls.append(name) or f(*args)

    monkeypatch.setattr(fields, "Decimal", counting("Decimal", Decimal))
    monkeypatch.setattr(PolynomialRing, "one", counting("one", PolynomialRing.one))
    for cls in (RationalField, PrimeField, RationalFunctionField):
        for name in ("is_one", "neg"):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    assert [format_polynomial(g) for g in reduced] == basis
    assert calls == []
