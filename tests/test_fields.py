from __future__ import annotations

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringdim import (
    GREVLEX,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QQ,
    RatFunc,
    RationalFunctionField,
    TowerDepthError,
    normalize_rational_function,
    polynomial_gcd,
)

from ringdim import fields
from conftest import monomial, random_polynomial


@pytest.fixture
def qt():
    return RationalFunctionField(QQ, ("t",))


def test_normalize_cancels_common_factor(qt):
    ring = qt.poly_ring
    t = ring.variable("t")
    num, den = normalize_rational_function(t**2 - ring.one(), t - ring.one())
    assert num == t + ring.one()
    assert den == ring.one()


def test_normalize_zero_numerator(qt):
    ring = qt.poly_ring
    num, den = normalize_rational_function(ring.zero(), ring.variable("t") ** 3)
    assert num.is_zero() and den == ring.one()


def test_normalize_monic_denominator_and_idempotent(qt):
    ring = qt.poly_ring
    t = ring.variable("t")
    num, den = normalize_rational_function(t.scale(QQ.from_int(2)), ring.from_int(4))
    # (2t)/4 canonicalizes to ((1/2)t)/1 under the monic-denominator convention
    assert den == ring.one()
    assert num == t.scale(QQ.inv(QQ.from_int(2)))
    again = normalize_rational_function(num, den)
    assert again == (num, den)


def test_zero_denominator_rejected(qt):
    ring = qt.poly_ring
    with pytest.raises(ZeroDivisionError):
        normalize_rational_function(ring.one(), ring.zero())


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10**9))
def test_normalize_preserves_value_by_cross_multiplication(qt, seed):
    rng = random.Random(seed)
    ring = qt.poly_ring
    num = random_polynomial(rng, ring)
    den = random_polynomial(rng, ring, nonzero=True)
    new_num, new_den = normalize_rational_function(num, den)
    assert num * new_den == new_num * den
    assert normalize_rational_function(new_num, new_den) == (new_num, new_den)


def test_ratfunc_arithmetic(qt):
    ring = qt.poly_ring
    t = ring.variable("t")
    a = RatFunc(t**2 + t, t)  # reduces to t + 1
    assert a.num == t + ring.one() and a.den == ring.one()
    b = qt.generator("t")
    s = qt.add(a, b)
    assert s.num == t.scale(QQ.from_int(2)) + ring.one()
    assert qt.is_one(qt.mul(b, qt.inv(b)))
    with pytest.raises(ZeroDivisionError):
        qt.inv(qt.zero)


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(2, 4) == 3
    assert f5.inv(2) == 3
    assert f5.mul(f5.from_int(3), f5.inv(f5.from_int(2))) == 4  # 3/2 = 3*3 = 9 = 4
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ValueError):
        PrimeField(6)


def _accepted_as_prime(n: int) -> bool:
    try:
        PrimeField(n)
    except ValueError:
        return False
    return True


def test_prime_field_accepts_exactly_the_primes_below_ten_thousand():
    limit = 10_000
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, 100):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, limit, i))
    assert [n for n in range(limit) if _accepted_as_prime(n)] == [n for n in range(limit) if sieve[n]]


# a Carmichael number, then strong pseudoprimes to base 2, to bases 2..7,
# and to every prime base up to 23
@pytest.mark.parametrize("n", [4, 561, 2047, 3215031751, 3825123056546413051])
def test_prime_field_rejects_pseudoprimes(n):
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(n)


def test_prime_field_takes_a_large_prime():
    p = 2**61 - 1
    assert PrimeField(p).mul(2**60, 2) == 1


def test_tower_depth_limited(qt):
    with pytest.raises(TowerDepthError):
        RationalFunctionField(qt, ("u",))


def test_fields_are_frozen_and_hash_by_value(qt):
    assert PrimeField(7) == PrimeField(7) and hash(PrimeField(7)) == hash(PrimeField(7))
    assert PrimeField(7) != PrimeField(11) and QQ != PrimeField(7)
    assert qt == RationalFunctionField(QQ, ("t",)) and hash(qt) == hash(RationalFunctionField(QQ, ("t",)))
    with pytest.raises(AttributeError):
        PrimeField(7).p = 11
    with pytest.raises(AttributeError):
        qt.variables = ("u",)
    # each field keeps its own short repr
    assert (repr(QQ), repr(PrimeField(7)), repr(qt)) == ("Q", "Fp(7)", "FunField(Q; t)")


def test_equal_function_fields_share_one_ring(qt):
    # rational-function arithmetic checks its operands' rings; one ring
    # object per (base, variables) lets that check succeed on identity
    assert qt.poly_ring is RationalFunctionField(QQ, ("t",)).poly_ring
    assert qt.one.num.ring is qt.generator("t").den.ring is qt.poly_ring
    f7uv = RationalFunctionField(PrimeField(7), ("u", "v"))
    assert f7uv.poly_ring is RationalFunctionField(PrimeField(7), ("u", "v")).poly_ring
    assert f7uv.poly_ring != RationalFunctionField(PrimeField(7), ("v", "u")).poly_ring
    assert qt.poly_ring != RationalFunctionField(PrimeField(7), ("t",)).poly_ring


def test_function_field_variables_disjoint_from_ring():
    field = RationalFunctionField(QQ, ("t",))
    with pytest.raises(ValueError):
        PolynomialRing(field, ("t", "x"))


def test_multi_variable_function_field_gcd_reduction():
    field = RationalFunctionField(QQ, ("u", "v"))
    ring = field.poly_ring
    u, v = ring.variable("u"), ring.variable("v")
    r = RatFunc((u + v) * (u - v), u + v)
    assert r.num == u - v
    assert r.den == ring.one()


# -- sums and products against the schoolbook formulas --------------------------------

QT = RationalFunctionField(QQ, ("t",))
F7UV = RationalFunctionField(PrimeField(7), ("u", "v"))


def _linear_factors(field):
    """Pairwise coprime irreducible polynomials to build denominators from."""
    ring = field.poly_ring
    one = ring.one()
    if field is QT:
        t = ring.variable("t")
        return [t, t + one, t - ring.from_int(2), t.scale(QQ.from_int(2)) + ring.from_int(3)]
    u, v = ring.variable("u"), ring.variable("v")
    return [u, v, u + v, v + ring.from_int(2), u - v + one]


def _operand_pair(rng, field):
    """Two reduced operands whose denominators are both 1, equal, coprime or
    partly shared, with numerators that are often constants other than 1."""
    ring = field.poly_ring
    base = field.base
    factors = _linear_factors(field)

    def product(picks):
        p = ring.one()
        for i in picks:
            p = p * factors[i]
        return p

    shape = rng.choice(["one", "one-sided", "equal", "coprime", "shared", "random"])
    picks = rng.sample(range(len(factors)), len(factors))
    if shape == "one":
        dens = [ring.one(), ring.one()]
    elif shape == "one-sided":
        dens = [ring.one(), product(picks[:2])]
    elif shape == "equal":
        dens = [product(picks[:2])] * 2
    elif shape == "coprime":
        dens = [product(picks[:2]), product(picks[2:4]) * factors[picks[2]]]
    elif shape == "shared":
        dens = [product(picks[:2]), product(picks[1:3])]
    else:
        dens = [random_polynomial(rng, ring, max_degree=2, max_terms=3, nonzero=True) for _ in range(2)]
    rng.shuffle(dens)
    constants = [base.from_int(-1), base.inv(base.from_int(2)), base.from_int(3)]
    operands = []
    for den in dens:
        if rng.random() < 0.4:
            num = ring.constant(rng.choice(constants))
        else:
            num = random_polynomial(rng, ring, max_degree=2, max_terms=3)
        operands.append(RatFunc(num, den))
    return operands


def _dense(p):
    """Coefficients of a polynomial in Q[t], constant term first."""
    out = [Fraction(0)] * (max((e for (e,) in p.terms), default=-1) + 1)
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def _euclid_degree(f, g):
    """Degree of gcd(f, g) in Q[t] by the Euclidean algorithm on dense lists."""
    while g:
        while len(f) >= len(g):
            q = f[-1] / g[-1]
            shift = len(f) - len(g)
            f = [c - q * g[i - shift] if i >= shift else c for i, c in enumerate(f)]
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _check_result(field, r, num, den):
    ring = field.poly_ring
    assert r.num * den == num * r.den
    _, lc = r.den.leading(GREVLEX)
    assert field.base.is_one(lc)
    if r.num.is_zero():
        assert r.den == ring.one()
    assert r == RatFunc(num, den)
    if field is QT and not r.num.is_zero():
        assert _euclid_degree(_dense(r.num), _dense(r.den)) == 0


@pytest.mark.parametrize("field", [QT, F7UV], ids=["rational-t", "f7-uv"])
@settings(max_examples=80)
@given(seed=st.integers(0, 10**9))
def test_arithmetic_matches_the_schoolbook_formulas(field, seed):
    rng = random.Random(seed)
    a, b = _operand_pair(rng, field)
    if rng.random() < 0.15:
        b = a
    cases = [
        (field.add(a, b), a.num * b.den + b.num * a.den, a.den * b.den),
        (field.add(a, field.neg(b)), a.num * b.den - b.num * a.den, a.den * b.den),
        (field.mul(a, b), a.num * b.num, a.den * b.den),
        (field.add(field.neg(a), a), field.poly_ring.zero(), a.den),
        (field.add(a, field.neg(a)), field.poly_ring.zero(), a.den),
    ]
    if not field.is_zero(b):
        cases.append((field.mul(a, field.inv(b)), a.num * b.den, a.den * b.num))
        cases.append((field.inv(b), b.den, b.num))
        assert field.is_one(field.mul(b, field.inv(b)))
    for r, num, den in cases:
        _check_result(field, r, num, den)
    zero = field.add(a, field.neg(a))
    assert (zero.num, zero.den) == (field.poly_ring.zero(), field.poly_ring.one())


@pytest.mark.parametrize("field", [QT, F7UV], ids=["rational-t", "f7-uv"])
@settings(derandomize=True, max_examples=80)
@given(seed=st.integers(0, 10**9))
def test_inverse_is_the_normalized_swap(field, seed):
    # inv swaps the coprime parts without a gcd; the normalizing constructor,
    # which takes one, must build the same numerator and denominator
    for a in _operand_pair(random.Random(seed), field):
        if field.is_zero(a):
            continue
        r, expected = field.inv(a), RatFunc(a.den, a.num)
        assert (r.num, r.den) == (expected.num, expected.den)


def test_constant_numerators_are_not_one():
    # -1, 1/2 and 3 are constants but not 1: multiplying by them must scale
    ring = QT.poly_ring
    t = QT.generator("t")
    for c in (QQ.from_int(-1), QQ.inv(QQ.from_int(2)), QQ.from_int(3)):
        k = RatFunc(ring.constant(c), ring.one())
        assert QT.mul(k, t).num == ring.variable("t").scale(c)
        assert not QT.is_one(k)
        assert QT.is_zero(QT.add(QT.mul(k, t), QT.neg(QT.mul(t, k))))
    assert QT.is_one(QT.one) and not QT.is_one(QT.zero) and not QT.is_one(t)


@pytest.mark.parametrize(
    "field",
    [QQ, PrimeField(7), QT, RationalFunctionField(PrimeField(7), ("t", "s"))],
    ids=["rationals", "f7", "rational-t", "f7-ts"],
)
@settings(derandomize=True, max_examples=60)
@given(m=st.integers(-20, 20), n=st.integers(-20, 20))
def test_every_field_keeps_the_shared_protocol(field, m, n):
    # each field builds its elements with its own from_int; the shared
    # entries must agree with it, and over F_7 add, mul and neg must reduce
    # (4 + 5 is 2 there, not 9)
    characteristic = getattr(getattr(field, "base", field), "p", 0)
    a, b = field.from_int(m), field.from_int(n)
    assert field.zero == field.from_int(0) and field.one == field.from_int(1)
    assert field.is_zero(a) == (m % characteristic == 0 if characteristic else m == 0)
    assert field.is_one(a) == (m % characteristic == 1 if characteristic else m == 1)
    assert field.is_zero(field.zero) and field.is_one(field.one)
    assert field.add(a, b) == field.from_int(m + n)
    assert field.mul(a, b) == field.from_int(m * n)
    assert field.neg(a) == field.from_int(-m)
    if not field.is_zero(a):
        assert field.is_one(field.mul(a, field.inv(a)))


def _least_exponents(f, g):
    """The monomial x^m, m the least exponent of each variable over every
    term of f and g: the gcd when either is a single term."""
    ring = f.ring
    exps = [min(e[i] for e in list(f.terms) + list(g.terms)) for i in range(ring.arity)]
    return monomial(ring, exps)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["rationals", "f7"])
@settings(max_examples=80)
@given(seed=st.integers(0, 10**9))
def test_gcd_with_a_single_term_is_the_least_exponent_monomial(field, seed):
    rng = random.Random(seed)
    ring = PolynomialRing(field, ("x", "y", "z"))
    exps = tuple(rng.randint(0, 3) for _ in range(ring.arity))
    if rng.random() < 0.2:
        exps = (0, 0, 0)  # a constant operand
    term = monomial(ring, exps, field.from_int(rng.choice([-2, 1, 3])))
    other = random_polynomial(rng, ring, max_degree=5, max_terms=5, nonzero=True)
    if rng.random() < 0.5:
        other = other * monomial(ring, (1, 2, 0))  # several variables in every term
    for f, g in ((term, other), (other, term)):
        assert polynomial_gcd(f, g) == _least_exponents(f, g)


def test_coefficients_past_a_lowered_digit_limit_print_in_full(monkeypatch):
    # Decimal prints only what str(int) refuses; at the limit str still prints
    decimals = []
    monkeypatch.setattr(fields, "Decimal", lambda n: decimals.append(n) or Decimal(n))
    long, at_limit = 10**699 + 7, 10**639 + 3
    ring = QT.poly_ring
    held = RatFunc(Polynomial(ring, {(1,): Fraction(long), (0,): 1}), ring.one())
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        texts = [
            QQ.display_split(Fraction(-long, 3)),
            QQ.display_split(Fraction(2, long)),
            QT.display_split(held),
            QQ.display_split(Fraction(at_limit, 7)),
        ]
        digits = str(Decimal(long))
    finally:
        sys.set_int_max_str_digits(limit)
    assert texts == [
        (True, f"{digits}/3"),
        (False, f"2/{digits}"),
        (False, f"({digits}*t + 1)"),
        (False, f"{at_limit}/7"),
    ]
    assert decimals == [long, long, long]


def test_ratfunc_repr_keeps_the_sign_inside_the_numerator():
    ring = QT.poly_ring
    t = ring.variable("t")
    assert repr(RatFunc(-t - ring.one(), t)) == "(-t - 1)/(t)"
    assert repr(RatFunc(ring.from_int(-2), ring.one())) == "(-2)"
    assert repr(QT.one) == "(1)"
