from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ringdim import (
    PolynomialRing,
    PrimeField,
    QQ,
    RatFunc,
    RationalFunctionField,
    TowerDepthError,
    normalize_rational_function,
)

from conftest import random_polynomial


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
    assert num == t.scale(QQ.div(QQ.one, QQ.from_int(2)))
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
    assert f5.div(f5.from_int(3), f5.from_int(2)) == 4  # 3/2 = 3*3 = 9 = 4
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
@pytest.mark.parametrize("n", [561, 2047, 3215031751, 3825123056546413051])
def test_prime_field_rejects_pseudoprimes(n):
    with pytest.raises(ValueError, match="is not prime"):
        PrimeField(n)


def test_prime_field_takes_a_large_prime():
    p = 2**61 - 1
    assert PrimeField(p).mul(2**60, 2) == 1


def test_tower_depth_limited(qt):
    with pytest.raises(TowerDepthError):
        RationalFunctionField(qt, ("u",))


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
