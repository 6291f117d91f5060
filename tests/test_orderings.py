from __future__ import annotations

from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from ringdim import GREVLEX, LEX, BlockElimination, Polynomial, PolynomialRing, QQ
from ringdim.errors import ArityMismatchError
from ringdim.orderings import GrevLex, Lex, PackedMonomials, WidthOverflow
from ringdim.polynomials import monomial_divides, monomial_mul


def monomials_up_to(degree: int, arity: int) -> list[tuple[int, ...]]:
    return [m for m in product(range(degree + 1), repeat=arity) if sum(m) <= degree]


def compare(u: tuple[int, ...], v: tuple[int, ...], order) -> int:
    """The sign of u - v in the order, read off ``descending_key``: the
    greater monomial has the smaller key."""
    ku, kv = order.descending_key(u), order.descending_key(v)
    return (kv > ku) - (kv < ku)


def grevlex_oracle(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    # definition, spelled out independently: compare total degree, then the
    # rightmost nonzero entry of u - v decides (negative entry means greater)
    if sum(u) != sum(v):
        return -1 if sum(u) < sum(v) else 1
    diff = [a - b for a, b in zip(u, v)]
    for d in reversed(diff):
        if d:
            return 1 if d < 0 else -1
    return 0


def lex_oracle(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    # the leftmost nonzero entry of u - v decides (positive means greater)
    for d in (a - b for a, b in zip(u, v)):
        if d:
            return 1 if d > 0 else -1
    return 0


def block_oracle(block: frozenset[int]):
    # grevlex on the block variables alone, ties broken by grevlex on the rest
    def cmp(u: tuple[int, ...], v: tuple[int, ...]) -> int:
        inside = [tuple(e if i in block else 0 for i, e in enumerate(m)) for m in (u, v)]
        outside = [tuple(0 if i in block else e for i, e in enumerate(m)) for m in (u, v)]
        return grevlex_oracle(*inside) or grevlex_oracle(*outside)

    return cmp


def test_grevlex_matches_definition_on_small_monomials():
    for u in monomials_up_to(2, 2):
        for v in monomials_up_to(2, 2):
            assert compare(u, v, GREVLEX) == grevlex_oracle(u, v)


def test_grevlex_matches_definition_three_variables():
    monos = monomials_up_to(3, 3)
    for u in monos:
        for v in monos:
            assert compare(u, v, GREVLEX) == grevlex_oracle(u, v)


def test_lex_examples():
    # x > y^5 under lex with x first
    assert compare((1, 0), (0, 5), LEX) > 0
    assert compare((1, 1), (2, 0), GREVLEX) < 0
    assert compare((1, 2, 3), (1, 2, 3), LEX) == 0


def test_arity_mismatch_rejected():
    ring = PolynomialRing(QQ, ("x", "y"))
    with pytest.raises(ArityMismatchError):
        Polynomial(ring, {(1, 0, 0): QQ.one})


@pytest.mark.parametrize(
    "order",
    [LEX, GREVLEX, BlockElimination(frozenset({0})), BlockElimination(frozenset({1, 2}))],
    ids=["lex", "grevlex", "block0", "block12"],
)
def test_order_axioms_by_enumeration(order):
    monos = monomials_up_to(4, 3)
    unit = (0, 0, 0)
    for u in monos:
        assert compare(u, u, order) == 0
        if u != unit:
            assert compare(u, unit, order) > 0  # the unit monomial is minimal
    for u in monos:
        for v in monos:
            c = compare(u, v, order)
            assert c == -compare(v, u, order)  # antisymmetry
            if u != v:
                assert c != 0  # totality
    # multiplicativity: u < v implies uw < vw
    small = monomials_up_to(2, 3)
    for u in small:
        for v in small:
            if compare(u, v, order) >= 0:
                continue
            for w in small:
                uw = tuple(a + b for a, b in zip(u, w))
                vw = tuple(a + b for a, b in zip(v, w))
                assert compare(uw, vw, order) < 0


@pytest.mark.parametrize(
    "order, oracle",
    [(LEX, lex_oracle), (BlockElimination(frozenset({0, 2})), block_oracle(frozenset({0, 2})))],
    ids=["lex", "block02"],
)
def test_orders_match_their_definitions(order, oracle):
    monos = monomials_up_to(3, 3)
    for u in monos:
        for v in monos:
            assert compare(u, v, order) == oracle(u, v)


def test_block_elimination_ranks_block_above_rest():
    order = BlockElimination(frozenset({0}))
    # any monomial touching x ranks above every x-free monomial
    for v_free in [(0, 3, 0), (0, 0, 4), (0, 2, 2)]:
        assert compare((1, 0, 0), v_free, order) > 0


@pytest.mark.parametrize(
    "order",
    [LEX, GREVLEX, BlockElimination(frozenset({1}))],
    ids=["lex", "grevlex", "block1"],
)
def test_packed_monomials_follow_the_order_and_divisibility(order):
    monos = monomials_up_to(4, 3)
    packing = PackedMonomials(order, 3, 8)
    packed = {u: packing.pack(u) for u in monos}
    assert all(packing.unpack(m) == u for u, m in packed.items())
    by_int = sorted(monos, key=packed.__getitem__, reverse=True)
    assert by_int == sorted(monos, key=order.descending_key)
    for u in monos:
        for v in monos:
            assert (not (packed[v] - packed[u]) & packing.guard) == monomial_divides(u, v)
            assert packed[u] + packed[v] == packing.pack(monomial_mul(u, v))


def test_packed_monomial_outgrowing_its_width_sets_a_guard_bit():
    packing = PackedMonomials(GREVLEX, 2, 8)
    with pytest.raises(WidthOverflow):
        packing.pack((100, 28))  # degree 128 needs a ninth bit
    big = packing.pack((0, 127))
    assert not big & packing.guard
    assert (big + packing.pack((0, 1))) & packing.guard


LCM_ORDERS = [LEX, GREVLEX, BlockElimination(frozenset({0, 2}))]


@st.composite
def packed_leads(draw, count: int):
    """A packing at width 16 or 32 and ``count`` monomials of total degree
    below its field limit, as the pair loop's leading monomials are."""
    order = draw(st.sampled_from(LCM_ORDERS))
    width = draw(st.sampled_from([16, 32]))
    arity = draw(st.integers(1, 4))
    leads = []
    for _ in range(count):
        # a degree, often the largest that fits, split among the variables
        # at sorted cut points
        top = (1 << (width - 1)) - 1
        degree = draw(st.just(top) | st.integers(0, top))
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=arity - 1, max_size=arity - 1)))
        leads.append(tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree])))
    return PackedMonomials(order, arity, width), leads


@settings(derandomize=True)
@given(packed_leads(3))
@example((PackedMonomials(GREVLEX, 2, 16), [(32767, 0), (0, 32767), (1, 1)]))  # coprime, degree 65534
def test_packed_lcm_is_the_fieldwise_max(case):
    packing, (u, v, w) = case
    a, b, c = (packing.pack(m) & packing.exponent_mask for m in (u, v, w))
    lcm = tuple(map(max, u, v))
    e = packing.lcm(a, b)
    assert packing.unpack(e) == lcm
    assert packing.degree(e) == sum(lcm)
    assert (e == a + b) == all(min(pair) == 0 for pair in zip(u, v))  # coprime
    assert (not (e - c) & packing.exponent_guard) == monomial_divides(w, lcm)
    try:
        packed = packing.pack(lcm)
    except WidthOverflow:
        with pytest.raises(WidthOverflow):
            packing.monomial(e)
    else:
        assert packing.monomial(e) == packed


@settings(derandomize=True)
@given(packed_leads(5))
def test_pair_key_orders_like_degree_then_exponents(case):
    packing, leads = case
    segments = [packing.pack(m) & packing.exponent_mask for m in leads]
    pairs = [(i, j) for j in range(len(leads)) for i in range(j)]

    def tuple_key(pair):
        lcm = tuple(map(max, leads[pair[0]], leads[pair[1]]))
        return (sum(lcm), lcm, *pair)

    def int_key(pair):
        return (packing.graded(packing.lcm(segments[pair[0]], segments[pair[1]])), *pair)

    assert sorted(pairs, key=int_key) == sorted(pairs, key=tuple_key)


@st.composite
def slotted_leads(draw):
    """A lex packing of width 2 to 5 (where every exponent field is free up
    to its limit), up to eight leads for the slots, one more segment e, and
    a set of variables for the mask of ``slot_hits``."""
    width = draw(st.integers(2, 5))
    arity = draw(st.integers(1, 4))
    top = (1 << (width - 1)) - 1
    monomial = st.tuples(*[st.just(top) | st.integers(0, top)] * arity)
    leads = draw(st.lists(monomial, max_size=8))
    variables = draw(st.sets(st.integers(0, arity - 1)))
    return PackedMonomials(LEX, arity, width), leads, draw(monomial), variables


@settings(derandomize=True)
@given(slotted_leads())
@example((PackedMonomials(LEX, 4, 2), [(1, 1, 1, 1), (0, 0, 0, 0), (1, 0, 0, 1)], (0, 1, 1, 0), {0, 3}))
def test_slot_lcms_and_hits_match_the_pairwise_tests(case):
    packing, leads, u, variables = case
    bits, guard = packing.slot_bits, packing.exponent_guard

    def segment(m):
        return packing.pack(m) & packing.exponent_mask

    e = segment(u)
    slots = sum(segment(m) << bits * k for k, m in enumerate(leads))
    ones = sum(1 << bits * k for k in range(len(leads)))
    units = [segment(tuple(int(i == v) for i in range(len(u)))) for v in variables]
    mask = sum(unit * ((1 << packing.width) - 1) for unit in units)
    lcms = packing.slot_lcms(slots, ones, e)
    hits = packing.slot_hits(slots, ones, e, mask)
    assert lcms >> bits * len(leads) == 0
    assert len(hits) == len(leads)
    for k, m in enumerate(leads):
        lcm = packing.lcm(segment(m), e)
        assert lcms >> bits * k & (1 << bits) - 1 == lcm
        assert packing.unpack(lcm) == tuple(map(max, m, u))
        # the pair's flag is the per-pair test: a variable of the mask
        # divides lcm(m, u) / u
        assert bool(hits[k]) == any(not (lcm - e - unit) & guard for unit in units)
        assert bool(hits[k]) == any(m[v] > u[v] for v in variables)


def test_orders_are_equal_only_to_orders_of_their_own_type():
    # orders key the Groebner caches: Lex() and GrevLex() have no fields,
    # so only the type tells them apart
    assert Lex() != GrevLex() and Lex() == LEX and GrevLex() == GREVLEX
    assert len({Lex(): "lex", GrevLex(): "grevlex"}) == 2
    block = BlockElimination(frozenset({0}))
    copy = BlockElimination(frozenset({0}))
    assert block is not copy and block == copy and hash(block) == hash(copy)
    assert block != BlockElimination(frozenset({1}))
    # ``compare`` is a method, not a field
    assert repr(LEX) == "Lex()"
    assert repr(block) == "BlockElimination(block=frozenset({0}))"
