from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from functools import cmp_to_key
from itertools import permutations, product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from ringdim import (
    BlockElimination,
    Budget,
    BudgetExhaustedError,
    GREVLEX,
    IdealPresentation,
    LEX,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QQ,
    RationalFunctionField,
    buchberger,
    eliminate,
    ideal_quotient,
    normal_form,
    saturate,
)
from ringdim import format_polynomial, ideals, parse_polynomial, parse_ring_expr, polynomial_gcd
from ringdim.ideals import _Divisors, _IntPoly, _Kernel, _buchberger, _int_poly_gcd, _packed, _packing
from ringdim.orderings import PackedMonomials
from ringdim.polynomials import monomial_divides

from conftest import monomial, random_polynomial, same_ideal
from test_golden_bases import KATSURA_4
from test_orderings import block_oracle, grevlex_oracle, lex_oracle

ELIMINATE_X = BlockElimination(frozenset({0}))
ORACLES = {LEX: lex_oracle, GREVLEX: grevlex_oracle, ELIMINATE_X: block_oracle(frozenset({0}))}


# -- reference division --------------------------------------------------------
# Written from the definitions and sharing no code with the engine's division:
# monomials are ranked by the order oracles of test_orderings, polynomials are
# read only through Polynomial.terms, and coefficients go through the field's
# own add/neg/mul/div.

def ref_leading(terms: dict, cmp) -> tuple[int, ...]:
    lead = None
    for m in terms:
        if lead is None or cmp(m, lead) > 0:
            lead = m
    return lead


def ref_normal_form(field, terms: dict, divisors: list[dict], cmp) -> dict:
    """Remainder of `terms` under the divisor rule: the first divisor, in
    descending leading-term order, whose leading term divides the current
    leading term (ties keep the given order)."""
    leads = [(ref_leading(g, cmp), g) for g in divisors if g]
    leads.sort(key=cmp_to_key(lambda a, b: cmp(b[0], a[0])))
    rest, remainder = dict(terms), {}
    while rest:
        m = ref_leading(rest, cmp)
        for lead, g in leads:
            if all(a <= b for a, b in zip(lead, m)):
                q = field.div(rest[m], g[lead])
                for gm, gc in g.items():
                    t = tuple(e + f - d for e, f, d in zip(gm, m, lead))
                    value = field.add(rest.get(t, field.zero), field.neg(field.mul(q, gc)))
                    if field.is_zero(value):
                        rest.pop(t, None)
                    else:
                        rest[t] = value
                break
        else:
            remainder[m] = rest.pop(m)
    return remainder


def ref_s_polynomial(field, f: dict, g: dict, cmp) -> dict:
    lf, lg = ref_leading(f, cmp), ref_leading(g, cmp)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    out: dict = {}
    for p, lead, sign in ((f, lf, field.one), (g, lg, field.neg(field.one))):
        scale = field.div(sign, p[lead])
        for m, c in p.items():
            t = tuple(e + l - d for e, l, d in zip(m, lcm, lead))
            value = field.add(out.get(t, field.zero), field.mul(scale, c))
            if field.is_zero(value):
                out.pop(t, None)
            else:
                out[t] = value
    return out


# -- reference Groebner basis -------------------------------------------------
# Buchberger's algorithm from the definitions, on the reference division
# alone: every S-pair, no criterion, then minimalization and tail reduction.

def ref_reduced_basis(field, generators: list[dict], cmp) -> list[dict]:
    """The reduced Groebner basis of the ideal the generators span: monic,
    in ascending leading-term order."""
    basis = [dict(g) for g in generators if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        r = ref_normal_form(field, ref_s_polynomial(field, basis[i], basis[j], cmp), basis, cmp)
        if r:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r)
    basis.sort(key=cmp_to_key(lambda f, g: cmp(ref_leading(f, cmp), ref_leading(g, cmp))))
    minimal = []
    for g in basis:
        lead = ref_leading(g, cmp)
        if not any(all(a <= b for a, b in zip(ref_leading(h, cmp), lead)) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        r = ref_normal_form(field, g, minimal[:i] + minimal[i + 1:], cmp)
        lc = r[ref_leading(r, cmp)]
        reduced.append({m: field.div(c, lc) for m, c in r.items()})
    return reduced


@pytest.fixture
def rxyz():
    return PolynomialRing(QQ, ("x", "y", "z"))


@pytest.fixture
def rxy():
    return PolynomialRing(QQ, ("x", "y"))


def assert_is_reduced_groebner_basis(basis, generators, order):
    """Independent verification: every S-polynomial reduces to zero, every
    original generator reduces to zero, the basis is reduced and monic, and
    it is the reference's reduced basis of the generators, so it spans no
    bigger ideal than they do.  Uses only the reference division and
    completion above, not the engine's."""
    cmp = ORACLES[order]
    field = basis[0].ring.field
    divisors = [g.terms for g in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = ref_s_polynomial(field, divisors[i], divisors[j], cmp)
            assert not ref_normal_form(field, s, divisors, cmp)
    for g in generators:
        assert not ref_normal_form(field, g.terms, divisors, cmp)
    leads = [ref_leading(g, cmp) for g in divisors]
    for i, g in enumerate(divisors):
        assert field.is_one(g[leads[i]])
        others = leads[:i] + leads[i + 1:]
        for exps in g:
            assert not any(all(a <= b for a, b in zip(lt, exps)) for lt in others)
    assert divisors == ref_reduced_basis(field, [g.terms for g in generators], cmp)


def test_groebner_oracle_rejects_the_basis_of_a_bigger_ideal(rxy):
    # (1) and (x, y) are reduced Groebner bases that contain x*y; only the
    # comparison with the reference tells them from the basis of (x*y)
    x, y = rxy.variable("x"), rxy.variable("y")
    assert_is_reduced_groebner_basis((x * y,), [x * y], GREVLEX)
    for wrong in ((rxy.one(),), (y, x)):
        with pytest.raises(AssertionError):
            assert_is_reduced_groebner_basis(wrong, [x * y], GREVLEX)


def _coefficient_pool(field) -> list:
    one = field.one
    pool = [field.from_int(n) for n in (1, -1, 2, 3)] + [field.div(one, field.from_int(2))]
    if isinstance(field, RationalFunctionField):
        t = field.generator("t")
        pool += [t, field.inv(field.add(t, one))]
    if field is QQ:
        # numerators and denominators of several machine words: the
        # engine divides over Q with ints, taking gcds and scaling
        pool += [Fraction(2**70 + 1, 3**40), Fraction(-7, 2**64 - 59)]
    return pool


# Over F_p the engine reduces a coefficient only when division reaches its
# monomial; with the 61-bit prime 2^61 - 1 the coefficients in between are
# ints of several machine words.
DIVISION_FIELDS = [
    (field, _coefficient_pool(field))
    for field in (PrimeField(7), PrimeField(2**61 - 1), QQ, RationalFunctionField(QQ, ("t",)))
]


@st.composite
def division_problems(draw):
    field, pool = draw(st.sampled_from(DIVISION_FIELDS))
    ring = PolynomialRing(field, ("x", "y", "z"))
    # Sometimes z has only the exponents 0 and 2^40, so that reductions
    # create monomials too wide for the engine's first field width.  Huge
    # exponents that are all one multiple of 2^40 keep the number of
    # division steps small; arbitrary ones could ask for 2^40 steps
    # (z^(2^40) divided by z^2 + z).
    z = draw(st.sampled_from([st.integers(0, 2), st.sampled_from([0, 2**40])]))
    monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), z)

    def polynomial(min_size: int) -> Polynomial:
        return Polynomial(ring, draw(st.dictionaries(monomials, st.sampled_from(pool), min_size=min_size, max_size=4)))

    f = polynomial(0)
    basis = [polynomial(1) for _ in range(draw(st.integers(1, 3)))]
    return f, basis, draw(st.sampled_from(list(ORACLES)))


def _outgrowing_width(field) -> tuple:
    # x^3*z^(2^40) reduced by x - z^(2^40) under lex is z^(2^42): it does
    # not fit the width the inputs ask for, not even with the guard bit
    ring = PolynomialRing(field, ("x", "y", "z"))
    x, z = ring.variable("x"), monomial(ring, (0, 0, 2**40))
    return x**3 * z, [x - z], LEX


def _lead_not_dividing() -> tuple:
    # The divisor packs to the ints 6*z^2 - 7*(2^64 - 59), and f to
    # 3^40*x*y + 3^40*y + (2^70 + 1)*z^2.  The lead 6 does not divide
    # 2^70 + 1, so the division scales the two remainder terms kept before
    # it, and the remainder must still come out exact.
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    one = QQ.one
    f = Polynomial(ring, {(1, 1, 0): one, (0, 1, 0): one, (0, 0, 2): Fraction(2**70 + 1, 3**40)})
    g = Polynomial(ring, {(0, 0, 2): Fraction(3, 2**64 - 59), (0, 0, 0): Fraction(-7, 2)})
    return f, [g], LEX


def _lead_not_dividing_over_t() -> tuple:
    # The Q(t) analogue: the divisor (t + 1)*z^2 - 7 has the lead t + 1,
    # which does not divide the coefficient t of z^2 in x*y + y + t*z^2, so
    # the division scales the two remainder terms kept before it by t + 1.
    field = RationalFunctionField(QQ, ("t",))
    ring = PolynomialRing(field, ("x", "y", "z"))
    t, one = field.generator("t"), field.one
    f = Polynomial(ring, {(1, 1, 0): one, (0, 1, 0): one, (0, 0, 2): t})
    g = Polynomial(ring, {(0, 0, 2): t + one, (0, 0, 0): field.from_int(-7)})
    return f, [g], LEX


@given(division_problems())
@example(_outgrowing_width(PrimeField(7)))
@example(_outgrowing_width(QQ))
@example(_lead_not_dividing())
@example(_lead_not_dividing_over_t())
def test_normal_form_matches_reference_division(problem):
    f, basis, order = problem
    expected = ref_normal_form(f.ring.field, f.terms, [g.terms for g in basis], ORACLES[order])
    assert normal_form(f, basis, order).terms == expected


def _through_first_keyless(records: list[tuple]) -> list[tuple]:
    # the records ``_Kernel.reduce`` may pick: none after one without a key
    for n, record in enumerate(records):
        if record[2] is None:
            return records[: n + 1]
    return records


@settings(derandomize=True, max_examples=60)
@given(
    st.lists(st.tuples(*[st.integers(0, 1)] * 3), max_size=4),
    st.lists(st.tuples(st.sampled_from(["add", "look"]), st.tuples(*[st.integers(0, 2)] * 3), st.booleans()), max_size=40),
)
def test_divisor_index_lookups_match_a_brute_force_filter(batch, steps):
    # Leads have exponents 0 and 1 only, so equal leads occur and ties must
    # keep the order added.  A lookup reduces one monomial under a bound no
    # signature reaches, which reads its list from the memo or makes it
    # there; lookups repeat and interleave
    # with adds, so a list that an add failed to update shows up.  Some
    # records have signature keys and some not, and a list may end at the
    # first without one.  A record's lead coefficient over Q numbers it, and
    # its tail is empty, so a reduction only pops the monomial it starts with.
    kernel = _Kernel(QQ, PackedMonomials(GREVLEX, 3, 4))
    pack, unpack = kernel.packing.pack, kernel.packing.unpack
    records = [(pack(e), [], None, n + 1) for n, e in enumerate(batch)]
    index = _Divisors(kernel.guard, records)
    for kind, e, keyed in steps:
        if kind == "add":
            n = len(records)
            records.append((pack(tuple(min(a, 1) for a in e)), [], n if keyed else None, n + 1))
            index.add(records[-1])
            continue
        m = pack(e)
        kernel.reduce({m: 1}, index, 1 << 99)
        hits = [r for r in records if all(a <= b for a, b in zip(unpack(r[0]), e))]
        hits.sort(key=cmp_to_key(lambda a, b: grevlex_oracle(unpack(b[0]), unpack(a[0]))))
        assert _through_first_keyless(index.memo[m]) == _through_first_keyless(hits)
    assert index.records == records


_SMALL_POLYNOMIALS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), st.sampled_from([1, -1, 2, 3, -5]), min_size=1, max_size=4)


@settings(derandomize=True, max_examples=60)
@given(
    st.sampled_from([PrimeField(7), QQ]),
    st.lists(_SMALL_POLYNOMIALS, min_size=1, max_size=5),
    st.lists(_SMALL_POLYNOMIALS, min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    st.one_of(st.none(), st.tuples(*[st.integers(0, 3)] * 3)),
)
def test_reduce_through_a_grown_index_matches_a_fresh_one(field, divisors, probes, keys, bound):
    # The completion loops grow one index while they reduce; the same
    # records indexed in one batch must give every reduction the same
    # (remainder, scale), with and without a signature bound.
    ring = PolynomialRing(field, ("x", "y", "z"))
    kernel = _Kernel(field, _packing(GREVLEX, 3, 16))
    if bound is not None:
        bound = kernel.packing.pack(bound) << kernel.packing.width
    pack = lambda terms: kernel.pack(Polynomial(ring, {m: field.from_int(c) for m, c in terms.items()}))[0]
    probes = [pack(t) for t in probes]
    grown, records = kernel.divisors(()), []
    for n, terms in enumerate(divisors):
        records.append(kernel.divisor(kernel.normalize(pack(terms)), None if bound is None else keys[n]))
        grown.add(records[-1])
        for f in probes:
            kernel.reduce(dict(f), grown, bound)
    fresh = _Divisors(kernel.guard, records)
    for f in probes:
        assert kernel.reduce(dict(f), grown, bound) == kernel.reduce(dict(f), fresh, bound)


def test_buchberger_twisted_cubic_style_example(rxyz):
    x, y, z = (rxyz.variable(i) for i in range(3))
    gens = [x**2 - y, x**3 - z]
    basis = buchberger(gens, LEX)
    expected = {x**2 - y, x * y - z, x * z - y**2, y**3 - z**2}
    assert set(basis) == expected
    assert_is_reduced_groebner_basis(basis, gens, LEX)


def test_buchberger_unit_ideal(rxy):
    x = rxy.variable("x")
    basis = buchberger([x - rxy.one(), x], GREVLEX)
    assert basis == (rxy.one(),)


def test_buchberger_already_reduced(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    assert set(buchberger([x, y], GREVLEX)) == {x, y}


def test_buchberger_zero_ideal(rxy):
    assert buchberger([rxy.zero()], GREVLEX) == ()


def test_normal_form_single_step(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    assert normal_form(x**2, [x**2 - y], LEX) == y


def test_normal_form_self_reduction(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    g = x**2 + x * y - rxy.one()
    assert normal_form(g, [g], GREVLEX).is_zero()


def test_normal_form_against_basis(rxyz):
    x, y, z = (rxyz.variable(i) for i in range(3))
    basis = buchberger([x**2 - y, x**3 - z], LEX)
    # hand division: x^2*y = y*(x^2 - y) + y^2
    assert normal_form(x**2 * y, basis, LEX) == y**2


def test_membership_examples(rxyz, rxy):
    x, y, z = (rxyz.variable(i) for i in range(3))
    I = IdealPresentation(rxyz, [x**2 - y, x**3 - z])
    assert I.contains(y**3 - z**2)
    xx = rxy.variable("x")
    assert IdealPresentation(rxy, [xx]).contains(xx**2)
    assert IdealPresentation(rxy, [xx - rxy.one(), xx]).contains(rxy.one())


def test_eliminate_parabola_parametrization():
    ring = PolynomialRing(QQ, ("t", "x", "y"))
    t, x, y = (ring.variable(i) for i in range(3))
    I = IdealPresentation(ring, [x - t, y - t**2])
    out = eliminate(I, ["x", "y"])
    # substitution oracle: every generator must vanish under x -> t, y -> t^2
    for g in out.generators:
        assert g.support() <= {1, 2}
        assert g.substitute({1: t, 2: t**2}).is_zero()
    assert same_ideal(out, IdealPresentation(ring, [y - x**2]))


def test_eliminate_keep_everything(rxy):
    x = rxy.variable("x")
    I = IdealPresentation(rxy, [x])
    assert same_ideal(eliminate(I, ["x", "y"]), I)


def test_eliminate_hyperbola_has_no_pure_x_members():
    ring = PolynomialRing(QQ, ("x", "Y"))
    x, Y = ring.variable("x"), ring.variable("Y")
    out = eliminate(IdealPresentation(ring, [x * Y - ring.one()]), ["x"])
    assert out.is_zero_ideal()


def test_eliminate_identity_invariant(rxyz):
    rng = random.Random(7)
    for _ in range(10):
        gens = [random_polynomial(rng, rxyz, nonzero=True) for _ in range(2)]
        I = IdealPresentation(rxyz, gens)
        assert same_ideal(eliminate(I, rxyz.variables), I)


def test_quotient_monomial_examples(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    assert same_ideal(ideal_quotient(IdealPresentation(rxy, [x * y]), x), IdealPresentation(rxy, [y]))
    assert same_ideal(ideal_quotient(IdealPresentation(rxy, [x**2]), x), IdealPresentation(rxy, [x]))


def brute_force_colon_check(rxy):
    """Oracle for ((xy) : x+y) = (xy): enumerate low-degree g over a small
    coefficient set; membership in the monomial ideal (xy) is the syntactic
    check that every term is divisible by xy."""
    x, y = rxy.variable("x"), rxy.variable("y")
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    f = x + y
    in_xy = lambda p: all(monomial_divides((1, 1), e) for e in p.terms)
    for coeffs in product([-1, 0, 1], repeat=len(monos)):
        g = Polynomial(rxy, {m: QQ.from_int(c) for m, c in zip(monos, coeffs)})
        if g.is_zero():
            continue
        if in_xy(g * f):
            assert in_xy(g)


def test_quotient_by_nonzerodivisor_is_identity(rxy):
    brute_force_colon_check(rxy)
    x, y = rxy.variable("x"), rxy.variable("y")
    I = IdealPresentation(rxy, [x * y])
    assert same_ideal(ideal_quotient(I, x + y), I)


def test_saturation_examples(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    assert same_ideal(saturate(IdealPresentation(rxy, [x**2 * y]), x), IdealPresentation(rxy, [y]))
    assert same_ideal(saturate(IdealPresentation(rxy, [x * y]), x + y), IdealPresentation(rxy, [x * y]))
    assert saturate(IdealPresentation(rxy, [x]), x).is_unit_ideal()


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_nzd_quotient_saturation_agree(field):
    ring = PolynomialRing(field, ("x", "y", "z"))
    rng = random.Random(2024)
    checked = 0
    while checked < 25:
        gens = [random_polynomial(rng, ring, max_degree=3, nonzero=True) for _ in range(2)]
        f = random_polynomial(rng, ring, max_degree=2, nonzero=True)
        I = IdealPresentation(ring, gens)
        if I.is_unit_ideal() or I.contains(f):
            continue
        quotient_fixes = same_ideal(ideal_quotient(I, f), I)
        saturation_fixes = same_ideal(saturate(I, f), I)
        assert quotient_fixes == saturation_fixes
        checked += 1


def test_reduced_basis_unique_under_generator_permutation(rxyz):
    rng = random.Random(11)
    for _ in range(8):
        gens = [random_polynomial(rng, rxyz, nonzero=True) for _ in range(3)]
        basis = buchberger(gens, GREVLEX)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, GREVLEX) == basis


def test_basis_outgrowing_the_first_width(rxyz):
    # Degree 17000 in the input starts the run at 16-bit fields; the lex
    # basis holds z^34000 - z^17001, so the run overflows after 6 pairs and
    # starts again at 32 bits.  Restoring the budget keeps the count at 10,
    # not 16.
    x, y, z = (rxyz.variable(i) for i in range(3))
    gens = [x * y - z**17000, x**2 - y, y**2 - x * z]
    first, second = Budget(), Budget(used=5)
    basis = buchberger(gens, LEX, first)
    assert buchberger(gens, LEX, second) == basis
    assert (first.used, second.used) == (10, 15)
    assert max(g.total_degree() for g in basis) == 34000
    assert_is_reduced_groebner_basis(basis, gens, LEX)


def test_pair_whose_lcm_outgrows_the_first_width(rxy):
    # Each lead fits the 16-bit fields that degree 20000 asks for, and the
    # lcm x^20000*y^20000 of degree 40000 would not; but the pair is coprime,
    # so it is skipped before its lcm is packed, and no pair is reduced.
    x, y = rxy.variable("x"), rxy.variable("y")
    gens = [x**20000 - rxy.one(), y**20000 - rxy.one()]
    budget = Budget(used=3)
    assert buchberger(gens, GREVLEX, budget) == (gens[1], gens[0])
    assert budget.used == 3


@pytest.mark.parametrize(
    "order", [GREVLEX, LEX, BlockElimination(frozenset({0}))], ids=["grevlex", "lex", "block0"]
)
def test_reduced_pair_whose_lcm_outgrows_the_first_width(rxy, order):
    # The leads share x*y, so the pair is reduced.  Under grevlex its lcm's
    # degree 40000 outgrows the 16-bit fields, and the run starts again at
    # 32 bits with the budget as it was; under lex and the block order every
    # field of the lcm fits.  Either way exactly one pair is spent.
    x, y = rxy.variable("x"), rxy.variable("y")
    gens = [x**20000 * y, x * y**20000]
    budget = Budget(used=3)
    basis = buchberger(gens, order, budget)
    assert sorted(basis, key=repr) == sorted(gens, key=repr)
    assert budget.used == 4


NARROW_WIDTH_CASES = [
    # Under lex a basis element gets a lead of total degree 4 or more while
    # each exponent fits 3-bit fields.  The classic loop starts again: its
    # pair keys hold lcm degrees modulo 2^width - 1, and in the wrapped order
    # it reduces 11 pairs, not 10.
    (LEX, ("x", "y", "z", "w"), ["z*w^2 - z*w", "x*z^2 + z", "x^2*z + y*z*w"]),
    # Ten generators, and a 3-bit signature holds only eight indices.  The
    # signature loop starts again; with the indices spilling into the
    # monomials it reduces 12 J-pairs, not 13.
    (GREVLEX, ("a", "b", "c", "d", "e"), ["a*c", "a*c + c*e", "c*d", "e^2", "a^2", "a*d", "a*e", "a*e + e^2", "d^2", "b^2"]),
    # At 3 bits one J-pair's signature segment outgrows its fields, but a
    # known syzygy's one-variable residual already kills the pair, so the
    # signature loop screens it out without reading the signature and keeps
    # the width; a loop that tested the signature first would start again.
    (GREVLEX, ("x", "y"), ["2*x*y + 4*x", "5*x^2 + y"]),
    # At 3 bits the signature segment of a coprime J-pair, on the side of the
    # element that joins last, outgrows its fields, and the check on that
    # segment starts the run again before the pair's Koszul syzygy is kept.
    (GREVLEX, ("x", "y", "z"), ["3*x*y + y*z + 2*x + 2", "y*z + 3*x", "2*y^2 + 6*z^2 + 2*x"]),
    # At 3 bits the Koszul syzygy of a J-pair that is not coprime, on the
    # side of the element that joins last, outgrows its fields.
    (GREVLEX, ("x", "y"), ["3*y^3", "3*x*y^2"]),
    # At 3 bits the syzygy a J-pair leaves on the side of the element that
    # joined first outgrows its fields.
    (GREVLEX, ("x", "y"), ["4*x*y^2 + 3", "4*y^2 + y"]),
    # At 4 bits the signature segment of a J-pair, on the side of the
    # element that joined first, outgrows its fields.
    (GREVLEX, ("x", "y"), ["3*x^2*y^3 + 6*x", "3*x^3", "9*x^3 + 4*x*y^2 + 6*y^2"]),
]


@pytest.mark.parametrize(
    "order, variables, texts",
    NARROW_WIDTH_CASES,
    ids=[
        "lead-degree",
        "generator-index",
        "screened-signature",
        "coprime-signature",
        "koszul-segment",
        "first-side-syzygy",
        "first-side-signature",
    ],
)
def test_narrow_first_width_gives_the_wide_outcome(monkeypatch, order, variables, texts):
    ring = PolynomialRing(PrimeField(7), variables)
    gens = [parse_polynomial(text, ring) for text in texts]
    wide = Budget()
    basis = buchberger(gens, order, wide)
    monkeypatch.setattr(ideals, "_FIRST_WIDTH", 2)  # the inputs' degrees ask for 3 or 4 bits
    narrow = Budget()
    assert buchberger(gens, order, narrow) == basis
    assert narrow.used == wide.used


# Systems on which a syzygy recorded while a new element's J-pairs are
# formed kills one of them.  The screen holds only the syzygies known before
# that walk, so the J-pair is pushed, and dropped when it is popped, where it
# spends no budget.
POP_TIME_DROPS = [
    (PrimeField(7), ["6*x*y^2 + y^2", "6*x*y^2", "3*x^2*y^3 + 6*x^2"], ["y^2", "x^2"], 1),
    (PrimeField(7), ["2*x*y^3 + 4*y", "5*x*y", "5*x^2*y + 6*x"], ["y", "x"], 4),
    (QQ, ["5*x*y^2 + 6", "5*x^3*y", "5*x^2*y^3 + 1"], ["1"], 6),
]


@pytest.mark.parametrize("field, texts, expected, used", POP_TIME_DROPS, ids=["F7-squares", "F7-variables", "rationals-unit"])
def test_a_syzygy_found_while_pairs_form_drops_them_at_pop(field, texts, expected, used):
    ring = PolynomialRing(field, ("x", "y"))
    gens = [parse_polynomial(text, ring) for text in texts]
    budget = Budget()
    basis = buchberger(gens, GREVLEX, budget)
    assert [format_polynomial(g) for g in basis] == expected
    assert [g.terms for g in basis] == ref_reduced_basis(field, [g.terms for g in gens], ORACLES[GREVLEX])
    assert budget.used == used


CYCLIC_5 = [
    " + ".join("*".join(f"x{(i + j) % 5}" for j in range(k)) for i in range(5)) for k in range(1, 5)
] + ["x0*x1*x2*x3*x4 - 1"]
KEEP_X3_X4 = BlockElimination(frozenset({0, 1, 2}))


def _width_system(name: str) -> tuple[Polynomial, ...]:
    if name == "katsura-4-Q":
        return parse_ring_expr(KATSURA_4.replace("(Fp(32003);", "(Q;")).relations
    katsura = parse_ring_expr(KATSURA_4).relations
    if name == "katsura-4":
        return katsura
    return tuple(parse_polynomial(text, katsura[0].ring) for text in CYCLIC_5)


@pytest.mark.parametrize(
    "name, order",
    [
        *((name, order) for name in ("katsura-4", "cyclic-5") for order in (GREVLEX, LEX, KEEP_X3_X4)),
        ("katsura-4-Q", GREVLEX),
    ],
    ids=[
        *(f"{name}-F32003-{order}" for name in ("katsura-4", "cyclic-5") for order in ("grevlex", "lex", "keep-x3-x4")),
        "katsura-4-Q-grevlex",
    ],
)
def test_first_widths_8_16_and_32_give_one_outcome(monkeypatch, name, order):
    # katsura-4 under lex outgrows 8 bits in the final tail reduction alone,
    # so its run starts again at 16
    gens = _width_system(name)
    outcomes = []
    for width in (8, 16, 32):
        monkeypatch.setattr(ideals, "_FIRST_WIDTH", width)
        budget = Budget()
        outcomes.append((buchberger(gens, order, budget), budget.used))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_groebner_cache_reuse(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    I = IdealPresentation(rxy, [x**2 - y])
    first = I.groebner_basis(GREVLEX)
    assert I.groebner_basis(GREVLEX) is first


def test_budget_exhaustion_is_an_error_not_an_answer():
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    x, y, z = (ring.variable(i) for i in range(3))
    gens = [x**2 + y * z - ring.one(), y**2 + x * z, z**2 + x * y + y]
    with pytest.raises(BudgetExhaustedError):
        buchberger(gens, LEX, Budget(limit=1))


def test_block_elimination_basis_separates_variables(rxyz):
    x, y, z = (rxyz.variable(i) for i in range(3))
    I = IdealPresentation(rxyz, [x - y * z, x * y - z])
    basis = I.groebner_basis(BlockElimination(frozenset({0})))
    free_of_x = [g for g in basis if 0 not in g.support()]
    assert free_of_x  # the contraction to K[y,z] is visible in the basis


def test_random_bases_pass_independent_verification(rxyz):
    rng = random.Random(61)
    for _ in range(5):
        gens = [random_polynomial(rng, rxyz, nonzero=True) for _ in range(2)]
        for order in (GREVLEX, LEX):
            basis = buchberger(gens, order)
            if basis == (rxyz.one(),):
                continue
            assert_is_reduced_groebner_basis(basis, gens, order)


QT = RationalFunctionField(QQ, ("t",))


def _functions_of_t(field) -> list:
    # t, t - 1, 1/(t + 1) and 3/t^2, in ``field``
    one, t = field.one, field.generator("t")
    return [t, t - one, field.inv(t + one), field.div(field.from_int(3), t * t)]


@st.composite
def grevlex_systems(draw):
    field = draw(st.sampled_from([PrimeField(32003), QQ, QT]))
    ring = PolynomialRing(field, ("x", "y", "z", "w")[: draw(st.integers(3, 4))])
    monomials = st.tuples(*[st.integers(0, 2)] * ring.arity)
    one = field.one
    fractions = [field.div(one, field.from_int(2)), field.div(field.from_int(-3), field.from_int(7))]
    if field is QT:
        fractions += _functions_of_t(field)
    coefficients = st.sampled_from([field.from_int(n) for n in (1, -1, 2, 3, -5)] + fractions)
    terms = st.dictionaries(monomials, coefficients, min_size=1, max_size=4)
    return [Polynomial(ring, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


@settings(derandomize=True, max_examples=80)
@given(grevlex_systems())
def test_signature_loop_reaches_the_classic_loops_basis(gens):
    # under grevlex ``buchberger`` runs the signature loop; the classic pair
    # loop, which lex and the block orders run, must give the same basis
    ring = gens[0].ring
    classic = _packed(gens, GREVLEX, lambda kernel: _buchberger(kernel, ring, gens, Budget()))
    assert buchberger(gens, GREVLEX) == classic


@st.composite
def small_systems(draw):
    """A few small generators over F_p, Q or Q(t) in two or three variables,
    and an order: small enough for the reference completion."""
    field = draw(st.sampled_from([PrimeField(32003), QQ, QT]))
    ring = PolynomialRing(field, ("x", "y", "z")[: draw(st.integers(2, 3))])
    monomials = st.tuples(*[st.integers(0, 2)] * ring.arity)
    pool = [field.from_int(n) for n in (1, -1, 2, -3)] + [field.div(field.one, field.from_int(2))]
    if field is QT:
        pool += _functions_of_t(field)[:2]
    terms = st.dictionaries(monomials, st.sampled_from(pool), min_size=1, max_size=3)
    gens = [Polynomial(ring, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]
    return gens, draw(st.sampled_from(list(ORACLES)))


@settings(derandomize=True, max_examples=60)
@given(small_systems())
def test_buchberger_gives_the_reference_reduced_basis(problem):
    # two-sided: the reduced basis is unique, so equality with the
    # reference's proves the engine's basis spans the generators' ideal
    gens, order = problem
    expected = ref_reduced_basis(gens[0].ring.field, [g.terms for g in gens], ORACLES[order])
    assert [g.terms for g in buchberger(gens, order)] == expected


# Generators the completion loops take as given, with no inter-reduction
# before them: a repeated one, an associate, a multiple of another, and one
# whose lead another lead divides.
REDUNDANT_GENERATORS = {
    "repeated": ["x - y*z", "y^2 - z", "x - y*z"],
    "associates": ["x - y*z", "2*x - 2*y*z", "y^2 - z"],
    "multiple": ["x^2 - y", "x^3 + x^2*z - x*y - y*z", "y*z - 1"],
    "divisible-lead": ["x^2 + y", "x^2*y - z", "x*z + 1"],
}


@pytest.mark.parametrize("order", list(ORACLES), ids=["lex", "grevlex", "block0"])
@pytest.mark.parametrize("field", [PrimeField(32003), QQ], ids=["F32003", "Q"])
@pytest.mark.parametrize("case", sorted(REDUNDANT_GENERATORS))
def test_redundant_generators_give_the_reference_basis_in_any_order(case, field, order):
    ring = PolynomialRing(field, ("x", "y", "z"))
    gens = [parse_polynomial(text, ring) for text in REDUNDANT_GENERATORS[case]]
    budget = Budget()
    basis = buchberger(gens, order, budget)
    assert [g.terms for g in basis] == ref_reduced_basis(field, [g.terms for g in gens], ORACLES[order])
    for shuffled in permutations(gens):
        again = Budget()
        assert buchberger(shuffled, order, again) == basis
        assert again.used == budget.used


@settings(derandomize=True)
@given(grevlex_systems())
def test_first_width_two_gives_the_default_outcome(gens):
    # the signature loop's width checks, its syzygy screen among them, may
    # restart a run at a wider width but never change what the run decides
    wide = Budget()
    basis = buchberger(gens, GREVLEX, wide)
    narrow = Budget()
    with patch.object(ideals, "_FIRST_WIDTH", 2):
        assert buchberger(gens, GREVLEX, narrow) == basis
    assert narrow.used == wide.used


QTS = RationalFunctionField(QQ, ("t", "s"))


@st.composite
def function_field_systems(draw):
    """The same random system over Q(t), where the kernel divides on
    polynomials in t over Z, and over Q(t, s) with s unused, where it
    divides on ``RatFunc`` coefficients, and an order."""
    variables = ("x", "y", "z")[: draw(st.integers(2, 3))]
    monomials = st.tuples(*[st.integers(0, 2)] * len(variables))
    coefficients = st.integers(0, 7)  # indices into each field's pool
    # two generators: with a third, the Q(t, s) side takes seconds on some
    # systems (its rational-function gcds), where Q(t) takes milliseconds
    systems = st.lists(st.dictionaries(monomials, coefficients, min_size=2, max_size=3), min_size=2, max_size=2)
    shapes = draw(systems)
    pairs = []
    for field in (QT, QTS):
        pool = [field.from_int(n) for n in (1, -1, 2, -3)] + _functions_of_t(field)
        ring = PolynomialRing(field, variables)
        pairs.append([Polynomial(ring, {m: pool[i] for m, i in terms.items()}) for terms in shapes])
    return pairs, draw(st.sampled_from([GREVLEX, LEX]))


def _outcome(gens, order) -> tuple:
    budget = Budget(limit=40)
    try:
        basis = buchberger(gens, order, budget)
    except BudgetExhaustedError:
        return "exhausted", budget.used
    return [format_polynomial(g) for g in basis], budget.used


@settings(derandomize=True, max_examples=60)
@given(function_field_systems())
def test_univariate_function_field_matches_the_two_variable_one(problem):
    # an oracle that shares no Z[t] code: with s unused, Q(t, s) must print
    # the same reduced basis after the same number of pair reductions
    (over_t, over_ts), order = problem
    assert _outcome(over_t, order) == _outcome(over_ts, order)


def test_two_variable_function_field_gcds_stay_small():
    # polynomial_gcd once kept the constant content of its pseudo-remainders;
    # their coefficients grew until this system took more than 10 s over Q(t, s)
    texts = ["2*y^2 + t*x", "t*x^2*y + 2*x + 2*y", "3/t^2*x^2*y + (t - 1)*x*y + x"]
    over_t, over_ts = ([parse_polynomial(s, PolynomialRing(field, ("x", "y"))) for s in texts] for field in (QT, QTS))
    assert _outcome(over_ts, LEX) == _outcome(over_t, LEX) == (["y", "x"], 5)


def _int_poly(coefficients) -> _IntPoly:
    coefficients = list(coefficients)
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    return _IntPoly(coefficients)


def _over_q(a: _IntPoly) -> Polynomial:
    return Polynomial(QT.poly_ring, {(e,): Fraction(c) for e, c in enumerate(a)})


int_polys = st.builds(
    lambda content, coefficients: _int_poly(content * c for c in coefficients),
    st.sampled_from([1, -1, 2, -6, 12]),
    st.lists(st.integers(-4, 4), max_size=4),
)


@given(int_polys, int_polys, int_polys)
@example(_IntPoly(()), _IntPoly((3,)), _IntPoly((-6, 4)))
@example(_IntPoly((4, -8)), _IntPoly((-2,)), _IntPoly((6, 0, -2)))
def test_int_polys_match_polynomials_over_q(a, b, c):
    A, B, C = _over_q(a), _over_q(b), _over_q(c)
    for result, expected in ((a + b, A + B), (a - b, A - B), (-a, -A), (a * b, A * B)):
        assert type(result) is _IntPoly and (not result or result[-1])
        assert _over_q(result) == expected
    if b:
        assert (a * b) // b == a
    # gcd(ac, bc) is c times gcd(a, b) up to a unit of Q; over Z its
    # content is the gcd of the operands' contents, and its lead positive
    g = _int_poly_gcd(a * c, b * c)
    if not (a * c or b * c):
        assert g == _IntPoly(())
        return
    assert g[-1] > 0
    assert _over_q(g).monic() == polynomial_gcd(A * C, B * C)
    assert gcd(*g) == gcd(*(a * c), *(b * c))
    assert (a * c) // g * g == a * c and (b * c) // g * g == b * c
    assert _int_poly_gcd(a, b, c) == _int_poly_gcd(_int_poly_gcd(a, b), c)


def test_generators_belong_under_every_cached_order(rxy):
    x, y = rxy.variable("x"), rxy.variable("y")
    I = IdealPresentation(rxy, [x**2 - y, x * y - rxy.one()])
    for order in (GREVLEX, LEX):
        I.groebner_basis(order)
        for g in I.generators:
            assert normal_form(g, I.groebner_basis(order), order).is_zero()


def test_quotient_and_saturation_definitional_properties():
    # definition-level re-check through normal forms only, independent of
    # the tag-variable construction that computes them
    rng = random.Random(314)
    ring = PolynomialRing(QQ, ("x", "y"))
    checked = 0
    while checked < 15:
        gens = [random_polynomial(rng, ring, max_degree=3, nonzero=True)]
        f = random_polynomial(rng, ring, max_degree=2, nonzero=True)
        I = IdealPresentation(ring, gens)
        if I.is_unit_ideal() or I.contains(f):
            continue
        colon = ideal_quotient(I, f)
        for q in colon.generators:
            assert I.contains(q * f)  # q*f lands back in I
        sat = saturate(I, f)
        for s in sat.generators:
            power = ring.one()
            for _ in range(7):
                if I.contains(s * power):
                    break
                power = power * f
            else:
                raise AssertionError(f"{s} * f^k never entered the ideal")
        # the tower I <= (I : f) <= (I : f^inf) holds
        for g in I.generators:
            assert colon.contains(g) and sat.contains(g)
        for q in colon.generators:
            assert sat.contains(q)
        checked += 1


def test_normal_form_is_idempotent_and_splits_membership(rxyz):
    rng = random.Random(2718)
    for _ in range(10):
        gens = [random_polynomial(rng, rxyz, nonzero=True) for _ in range(2)]
        basis = buchberger(gens, GREVLEX)
        if basis == (rxyz.one(),):
            continue
        f = random_polynomial(rng, rxyz, max_degree=4)
        r = normal_form(f, basis, GREVLEX)
        assert normal_form(r, basis, GREVLEX) == r
        assert normal_form(f - r, basis, GREVLEX).is_zero()


def test_budget_is_mutable_and_unhashable():
    budget = Budget(limit=3)
    assert budget == Budget(3, 0) and repr(budget) == "Budget(limit=3, used=0)"
    budget.used = 2
    assert budget.used == 2 and budget != Budget(limit=3)
    with pytest.raises(TypeError):
        hash(budget)
