"""Groebner bases and derived ideal operations.

Everything downstream (dimension, chain verification, saturation) routes
through ``buchberger``.  Determinism matters more than speed here: pair
selection, divisor order in reductions, and the final basis sort all follow
fixed canonical orders so reruns are bit-identical and certificates can be
re-checked externally.

``buchberger`` packs every monomial into one int
(``orderings.PackedMonomials``: fixed-width fields with a guard bit each),
so comparing monomials is int comparison, multiplying them is ``+`` and a
divisibility test is one subtraction and one ``&``.  Division keeps the
unreduced part as a dict plus a heap of its monomials (heap division,
after Monagan & Pearce) and subtracts only the tail of each divisor
multiple.  It finds divisors in an index (``_Divisors``) that memoizes
those of each popped monomial and that a completion loop grows with its
basis.  Division is one loop for every coefficient field.  Over Q it runs
on ints, fraction-free: a divisor with lead a cancels a coefficient c by
scaling what is left by a/gcd(a, c), one int carries the scale, and
``Fraction`` appears only where a basis or normal form leaves the kernel.
Over Q(t) in one variable the same loop runs on polynomials in t over Z,
with a gcd in Z[t]: a constant is a plain int, so it costs what it costs
over Q, and any other is an ``_IntPoly``, a dense coefficient tuple.
``RatFunc`` appears only where ``Fraction`` does over Q, and a basis whose
leads are constants leaves by dividing by an int, as over Q.  Over F_p and
the other function fields coefficients meet through ``+``, ``-`` and ``*``
alone, and over F_p each is taken ``% p`` once, when its monomial is
popped.  The starting width fits the inputs; where ``pack``, the pop in
division or a loop's bound on each element it adds (for the signature
loop, a signature degree below half the field limit, which makes every sum
of a lead and a signature fit) finds it too narrow, the run starts again
at twice the width, so no answer depends on the width.

Two completion loops share that division and the final minimalization and
tail reduction, so both give the one reduced basis.  Both start from the
generators as given, each packed and ``normalize``d, in one fixed order
(``buchberger``): no pass reduces them by one another first.  Every
divisor the kernel records is normalized, so over a field it is monic.
Under grevlex, the order of every ``dim``, ``nzd`` and unit-ideal test,
the signature loop (``_signature_buchberger``) skips the pairs whose
remainder would be zero: katsura-6 over F_p reduces 44 J-pairs there, where
the classic loop reduces 164 S-pairs, 128 of them to zero.  Under lex and
the block orders of ``eliminate`` the classic loop (``_buchberger``: normal
selection, both classic pair criteria, on the exponent fields of the
packed leads) stays; ``buchberger`` says why.

An ``IdealPresentation`` caches one reduced basis per order, and with it,
once a normal form or a membership test against it is asked for, the
basis packed and indexed (``_Basis``): every membership test
(``contains``, chain verification) then packs only its element, divides
it by that index and reads whether the packed remainder is empty.  The index
memoizes the divisors of each monomial a division pops, across calls, so
the cache is not for concurrent use.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import islice
from math import gcd
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import BudgetExhaustedError, Record, RingMismatchError, ZeroPolynomialError
from .fields import PrimeField, RatFunc, RationalField, RationalFunctionField
from .orderings import GREVLEX, GrevLex, MonomialOrder, PackedMonomials, WidthOverflow
from .polynomials import (
    Polynomial,
    PolynomialRing,
    exact_divide,
    fresh_variable,
)

DEFAULT_PAIR_BUDGET = 50_000
# The narrowest field width a run starts at.  Ints are made of 30-bit
# digits: at 8 bits a six-variable grevlex monomial (twelve fields) is 96
# bits, four digits, where at 16 it was 192 bits, seven digits, and every
# add, hash and comparison of the kernel's loops gets cheaper.  No benchmark
# run outgrows 8 bits (6 restarts cyclic-5 under lex), and the width tests
# lower it to reach the checks that restart a run.
_FIRST_WIDTH = 8


class Budget(Record):
    """Cap on pair reductions: J-pairs under grevlex, S-pairs under lex and
    block orders (see ``buchberger``).  Exceeding it raises, never
    truncates."""

    limit: int = DEFAULT_PAIR_BUDGET
    used: int = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExhaustedError(self.used, self.limit)


class _IntPoly(tuple):
    """A polynomial in one variable t over Z of degree at least 1, for the
    kernel over Q(t): its coefficients from degree 0 up, at least two, the
    last one nonzero.  The kernel holds the constants of Z[t], zero among
    them, as plain ints, so a value of Z[t] is an int exactly when it is
    constant, and equal values are equal.  ``+``, ``-``, ``*`` and ``//``
    take an int on either side, and every operation returns such a value:
    an int wherever the result is constant.  ``a // b`` is exact division
    and needs b to divide a."""

    __slots__ = ()

    def __add__(self, other):
        if type(other) is int:
            return _IntPoly((self[0] + other, *self[1:])) if other else self
        a, b = (self, other) if len(self) >= len(other) else (other, self)
        n = len(b)
        s = [x + y for x, y in zip(a, b)]
        if len(a) > n:
            s += a[n:]
            return _IntPoly(s)
        return _int_poly(s)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other: int):
        return -self + other

    def __neg__(self) -> "_IntPoly":
        return _IntPoly([-x for x in self])

    def __mul__(self, other):
        if type(other) is int:
            if other == 1:
                return self
            return _IntPoly([other * x for x in self]) if other else 0
        out = [0] * (len(self) + len(other) - 1)
        for i, y in enumerate(other):
            if y:
                for j, x in enumerate(self, i):
                    out[j] += x * y
        return _IntPoly(out)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        if type(other) is int:
            return self if other == 1 else _IntPoly([x // other for x in self])
        n = len(other) - 1
        rest, lead, tail = list(self), other[n], other[:n]
        q = [0] * (len(self) - n)
        for i in range(len(q) - 1, -1, -1):
            c = q[i] = rest[i + n] // lead
            if c:
                for j, y in enumerate(tail, i):
                    rest[j] -= c * y
        return _int_poly(q)

    def __rfloordiv__(self, other: int) -> int:
        return 0  # a constant that a polynomial of degree >= 1 divides is 0


def _int_poly(s: list):
    """The value of Z[t] whose coefficients, from degree 0 up, are ``s``
    (which it may shorten): an ``_IntPoly``, or an int where it is
    constant."""
    while s and not s[-1]:
        s.pop()
    return _IntPoly(s) if len(s) > 1 else s[0] if s else 0


def _lead_negative(a) -> bool:
    return (a if type(a) is int else a[-1]) < 0


def _primitive(a) -> _IntPoly:
    """The ``a`` of degree >= 1 over the gcd of its coefficients, with a
    positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return _IntPoly(a) if c == 1 else _IntPoly([x // c for x in a])


def _pseudo_remainder(a: _IntPoly, b: _IntPoly) -> list:
    """A remainder of ``a`` by ``b`` (deg a >= deg b >= 1) after ``a`` is
    multiplied by a power of b's leading coefficient, as a list of
    coefficients with no trailing zeros.  The power is the number of steps
    that cancel a nonzero coefficient; for a primitive ``b`` any power
    leaves gcd(a, b) as it is."""
    r, n = list(a), len(b) - 1
    lead, tail = b[n], b[:n]
    for i in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        if c:
            r = [x * lead for x in r]
            for j, y in enumerate(tail, i - n):
                r[j] -= c * y
    while r and not r[-1]:
        r.pop()
    return r


def _int_poly_gcd(*polys):
    """gcd over Z[t] with a positive leading coefficient, 0 when every
    operand is 0.  Where an operand is a nonzero int it is the gcd of all
    the coefficients, an int; elsewhere the gcd of the contents times the
    last nonzero member of the primitive pseudo-remainder sequence
    (Collins; Knuth, TAOCP vol. 2, 4.6.1), an int where that member is
    constant."""
    g = 0
    for b in polys:
        if type(b) is int:
            if type(g) is int:
                g = gcd(g, b)
            elif b:
                g = gcd(b, *g)
        elif type(g) is int:
            if g:
                g = gcd(g, *b)
            else:
                g = -b if b[-1] < 0 else b
        else:
            d = gcd(gcd(*g), gcd(*b))
            a, b = _primitive(g), _primitive(b)
            if len(a) < len(b):
                a, b = b, a
            while True:
                r = _pseudo_remainder(a, b)
                if not r:
                    break
                if len(r) == 1:
                    b = 1
                    break
                a, b = b, _primitive(r)
            g = b * d
        if g == 1:
            return 1
    return g


def _int_poly_pair(c: RatFunc) -> tuple:
    """(n, d) over Z[t] with n/d = c, for c in Q(t): c's numerator and
    denominator times the lcm of their coefficients' denominators."""
    num, den = c.num.terms, c.den.terms
    k = math.lcm(*(x.denominator for x in num.values()), *(x.denominator for x in den.values()))
    return _dense(num, k), _dense(den, k)


def _dense(terms: dict, k: int):
    """k times the nonzero ``terms`` of Q[t], as a value of Z[t]."""
    out = [0] * (max(terms)[0] + 1)
    for (e,), x in terms.items():
        out[e] = x.numerator * (k // x.denominator)
    return _int_poly(out)


def _sparse(ring: PolynomialRing, a, lead: int) -> Polynomial:
    """a/lead in ``ring``, the ring Q[t], for a value a of Z[t]."""
    if type(a) is int:
        a = (a,)
    return Polynomial._raw(ring, {(e,): Fraction(x, lead) for e, x in enumerate(a) if x})


class _Divisors:
    """The divisor records (``_Kernel.divisor``) that ``_Kernel.reduce``
    divides by: ``records`` in the order added, ``ordered`` in the order
    ``reduce`` tries them (descending leading monomial, ties in the order
    added) with their negated leads in ``leads``, and ``memo``, which maps
    each monomial a reduction popped to the records whose leads divide it,
    cut after the first without a signature key: that one always fires.
    ``add`` files a new record under each such monomial its lead divides,
    so no list goes stale.  Only ``add`` reads and updates ``popped``, the
    memoized monomials sorted, so an index that never grows never sorts it.
    """

    __slots__ = ("guard", "records", "ordered", "leads", "memo", "popped")

    def __init__(self, guard: int, records: Iterable[tuple] = ()):
        self.guard, self.records, self.memo, self.popped = guard, list(records), {}, []
        self.ordered = sorted(self.records, key=itemgetter(0), reverse=True)
        self.leads = [-record[0] for record in self.ordered]

    def add(self, record: tuple):
        lm, guard, memo, popped = record[0], self.guard, self.memo, self.popped
        i = bisect_right(self.leads, -lm)
        self.leads.insert(i, -lm)
        self.ordered.insert(i, record)
        self.records.append(record)
        if len(popped) < len(memo):
            popped += islice(memo, len(popped), None)
            popped.sort()
        for m in islice(popped, bisect_left(popped, lm), None):
            if not (m - lm) & guard:
                hits = memo[m]
                i = len(hits)
                while i and hits[i - 1][0] < lm:
                    i -= 1
                hits.insert(i, record)


class _Kernel:
    """Division on packed polynomials: dicts {packed monomial: coefficient}.

    One kernel serves one run at one width, over any field.  Over Q the
    coefficients are ints, and over Q(t) in one variable t they are
    polynomials in t over Z (both ``integral``), ints where constant and
    ``_IntPoly`` elsewhere, so both rings share ``one``, 1: a packed
    polynomial stands for itself up to a nonzero factor of Q or Q(t), which
    ``pack`` and ``reduce`` report where it matters, and only ``divide``
    makes field elements (``Fraction``, ``RatFunc``) again.  The two rings
    differ only in the ``gcd`` the kernel holds and in ``negative``, the
    sign test on a lead; ``t_ring`` is Q[t] for Q(t) and None otherwise.
    Over other fields coefficients meet only through ``+``, ``-``, ``*``
    and unary ``-``; over ``PrimeField`` they may leave [0, p) inside a
    division, but ``pack``, ``normalize`` and ``reduce`` return canonical
    coefficients.  Everything that depends on the field is decided here,
    once per kernel.
    """

    __slots__ = ("field", "packing", "guard", "p", "integral", "one", "gcd", "negative", "t_ring")

    def __init__(self, field, packing: PackedMonomials):
        self.field = field
        self.packing = packing
        self.guard = packing.guard
        self.p = field.p if isinstance(field, PrimeField) else None
        univariate_q = (
            isinstance(field, RationalFunctionField)
            and isinstance(field.base, RationalField)
            and len(field.variables) == 1
        )
        self.t_ring = field.poly_ring if univariate_q else None
        self.integral = univariate_q or isinstance(field, RationalField)
        self.one = 1 if self.integral else field.one
        if univariate_q:
            self.gcd, self.negative = _int_poly_gcd, _lead_negative
        else:
            self.gcd, self.negative = gcd, (0).__gt__  # negative(a): 0 > a

    def pack(self, f: Polynomial) -> tuple[dict, object]:
        """f packed, and the factor d its coefficients were multiplied by:
        over Q and Q(t) the least common denominator, in Z and in Z[t],
        which makes them ints and values of Z[t] (ints where constant),
        and the field's one elsewhere."""
        pack = self.packing.pack
        if not self.integral:
            return {pack(m): c for m, c in f.terms.items()}, self.one
        if self.t_ring is not None:
            pairs = [(pack(m), *_int_poly_pair(c)) for m, c in f.terms.items()]
            d = 1
            for _, _, e in pairs:
                if e != d:
                    d = d * (e // _int_poly_gcd(d, e))
            return {m: n * (d // e) for m, n, e in pairs}, d
        d = math.lcm(*(c.denominator for c in f.terms.values()))
        return {pack(m): c.numerator * (d // c.denominator) for m, c in f.terms.items()}, d

    def unpack(self, ring: PolynomialRing, terms: dict) -> Polynomial:
        unpack = self.packing.unpack
        return Polynomial._raw(ring, {unpack(m): c for m, c in terms.items()})

    def divide(self, terms: dict, d) -> dict:
        """``terms`` over the nonzero scalar d, exactly.  Over Q and Q(t)
        the quotient has ``Fraction`` and ``RatFunc`` coefficients, so it
        is taken only for what leaves the kernel.  Over Q(t) an int d, a
        constant, divides each coefficient of each value as over Q, and
        every quotient has the denominator 1.  Otherwise each coefficient c
        becomes (c/g)/(d/g), g = gcd(c, d) in Z[t], both parts over the
        leading coefficient of d/g: the canonical ``RatFunc``, found with
        one gcd in Z[t].  Coefficients that share d/g share one denominator
        polynomial."""
        if self.integral:
            ring = self.t_ring
            if ring is None:
                return {m: Fraction(c, d) for m, c in terms.items()}
            if type(d) is int:
                one = _sparse(ring, 1, 1)
                return {m: RatFunc._reduced(_sparse(ring, c, d), one) for m, c in terms.items()}
            out, dens = {}, {}
            for m, c in terms.items():
                g = _int_poly_gcd(c, d)
                n, e = c // g, d // g
                lead = e if type(e) is int else e[-1]
                den = dens.get(e)
                if den is None:
                    den = dens[e] = _sparse(ring, e, lead)
                out[m] = RatFunc._reduced(_sparse(ring, n, lead), den)
            return out
        field, p = self.field, self.p
        if field.is_one(d):
            return terms
        inv = field.inv(d)
        if p:
            return {m: inv * c % p for m, c in terms.items()}
        return {m: field.mul(inv, c) for m, c in terms.items()}

    def monic(self, terms: dict) -> dict:
        return self.divide(terms, terms[max(terms)])

    def normalize(self, terms: dict) -> dict:
        """The associate of a nonzero polynomial that the completion loops
        keep: over Q the one with coprime int coefficients and a positive
        leading coefficient, over Q(t) the one with coprime Z[t]
        coefficients whose lead has a positive leading coefficient, and
        elsewhere the monic one."""
        if not self.integral:
            return self.monic(terms)
        content = self.gcd(*terms.values())
        if self.negative(terms[max(terms)]):
            content = -content
        if content == self.one:
            return terms
        return {m: c // content for m, c in terms.items()}

    def normalized(self, f: Polynomial) -> dict:
        """The nonzero f packed and ``normalize``d."""
        return self.normalize(self.pack(f)[0])

    def divisor(self, terms: dict, key: int | None = None) -> tuple:
        """(leading monomial, tail, signature key, lead) of a ``normalize``d
        polynomial.

        Over Q and Q(t) the lead is lc, an int or a value of Z[t]; over a
        field the polynomial is monic and the lead is None.  The key, set
        only in the signature loop, is the one ``reduce`` compares with its
        bound."""
        lm = max(terms)
        tail = [(m, c) for m, c in terms.items() if m != lm]
        return lm, tail, key, terms[lm] if self.integral else None

    def s_polynomial(self, f: tuple, g: tuple, lcm: int) -> dict:
        """S-polynomial of two divisors whose leading monomials divide
        ``lcm``, for ``reduce`` alone, up to a nonzero scalar: over a field
        f and g are monic, and it is the difference of their shifted tails;
        over Q and Q(t), with leads a and b, the tails are first multiplied
        by b/h and a/h, h = gcd(a, b).  It is written as ``reduce`` takes
        it, each coefficient in a one-item list.  Terms that cancel stay,
        with a zero coefficient, and over F_p coefficients may leave
        [0, p)."""
        f_tail, g_tail = f[1], g[1]
        if self.integral:
            a, b, one = f[3], g[3], self.one
            h = self.gcd(a, b)
            a, b = a // h, b // h
            if b != one:
                f_tail = [(m, c * b) for m, c in f_tail]
            if a != one:
                g_tail = [(m, c * a) for m, c in g_tail]
        shift = lcm - f[0]
        rest = {m + shift: [c] for m, c in f_tail}
        shift = lcm - g[0]
        get = rest.get
        for m, c in g_tail:
            t = m + shift
            cell = get(t)
            if cell is None:
                rest[t] = [-c]
            else:
                cell[0] -= c
        return rest

    def reduce(self, rest: dict, divisors: _Divisors, bound: int | None = None) -> tuple[dict, object]:
        """Remainder of ``rest`` under ``divisors``, and the
        scalar s it is multiplied by: the remainder of ``rest`` is the one
        returned over s.  ``rest`` holds each coefficient in a one-item
        list, the cell that division updates in place, and is used up.
        The largest unreduced monomial m is reduced by the first divisor, in
        descending leading-monomial order with ties in the order added,
        whose leading monomial divides m: the index's memo lists them from
        the first pop of m on.  In a regular reduction
        (``_signature_buchberger``) the bound is a signature, and a divisor
        with a key takes part only where ``(m << width) + key < bound``; one
        without a key always does.

        Heap division (Monagan & Pearce): the unreduced part is a dict with
        a heap of its negated monomials, so each step pops the largest one
        and nothing is rescanned.  Only the tail of q*m*g is added, since
        its leading term cancels the popped term.  Every monomial added is
        below the popped one, so each is pushed once and stays in ``rest``
        until it is popped.  A coefficient is looked at only then: over F_p
        it is taken ``% p`` once, and one that cancelled to zero is
        skipped.  An update is one ``+`` and one ``*``, over every field,
        into a monomial's cell, so it hashes its monomial once.

        Over a field every divisor is monic, so -c times the shifted tail
        is added and s is one.  Over Q and Q(t) the division is
        fraction-free: for a divisor with lead a and a popped coefficient c,
        h = gcd(a, c) (in Z or Z[t]), the unreduced part and the remainder
        so far are multiplied by a/h (and s with them), and (c/h) times the
        shifted tail is subtracted.

        Every monomial put into ``rest``, here or by ``s_polynomial``, is
        the sum of two that fit the width: that can set a guard bit but not
        carry past it.  So checking each popped monomial, before it is used
        as a shift or kept, catches every overflow in one place.
        """
        guard, width, p, gcd = self.guard, self.packing.width, self.p, self.gcd
        memo, get_hits, ordered, leads = divisors.memo, divisors.memo.get, divisors.ordered, divisors.leads
        heap = [-m for m in rest]
        heapify(heap)
        pop, push, get, take = heappop, heappush, rest.get, rest.pop
        remainder = {}
        scale = self.one
        while heap:
            m = -pop(heap)
            if m & guard:
                raise WidthOverflow(width)
            c = take(m)[0]
            if p:
                c %= p
            if not c:
                continue  # cancelled
            hits = get_hits(m)
            if hits is None:
                hits = memo[m] = []
                for r in islice(ordered, bisect_left(leads, -m), None):
                    if not (m - r[0]) & guard:
                        hits.append(r)
                        if r[2] is None:
                            break
            for lm, tail, key, lead in hits:
                if key is None or (m << width) + key < bound:
                    break
            else:
                remainder[m] = c
                continue
            if lead is None:
                q = -c
            else:
                h = gcd(c, lead)
                if h != lead:
                    k = lead // h
                    for cell in rest.values():
                        cell[0] *= k
                    for t, v in remainder.items():
                        remainder[t] = v * k
                    scale *= k
                q = -(c // h)
            shift = m - lm
            for gm, gc in tail:
                t = gm + shift
                cell = get(t)
                if cell is None:
                    rest[t] = [q * gc]
                    push(heap, -t)
                else:
                    cell[0] += q * gc
        return remainder, scale

    def divisors(self, polys: Iterable[dict]) -> _Divisors:
        """An index over the divisor records of ``polys``, in one sort."""
        return _Divisors(self.guard, map(self.divisor, polys))


@lru_cache(maxsize=64)
def _packing(order: MonomialOrder, arity: int, width: int) -> PackedMonomials:
    """One packing per (order, arity, width), kept across runs: a small
    ``chain`` run would otherwise build 25, and each builds its row, guard
    and weight-row tables (``_sums``) at construction."""
    return PackedMonomials(order, arity, width)


def _first_width(polys: Iterable[Polynomial], headroom: int = 1) -> int:
    """The field width a run starts at: at least ``_FIRST_WIDTH``, and wide
    enough that each field holds ``headroom`` times the largest total
    degree of ``polys`` with its guard bit to spare."""
    degree = max((p.total_degree() for p in polys if p), default=0)
    return max(_FIRST_WIDTH, (headroom * degree).bit_length() + 1)


def _packed(polys: Sequence[Polynomial], order: MonomialOrder, run, budget: Budget | None = None):
    """``run(kernel)`` on a kernel at the ``_first_width`` of ``polys``.
    Under grevlex, whose loop keeps every signature degree below
    ``limit / 2`` (``_completion``), the fields hold twice the largest
    degree: at ``D.bit_length() + 1`` bits a generator of degree D is past
    that bound, and the run would restart as soon as it joined.  Where
    ``pack``, division's pop or a per-element bound finds the width too
    narrow, the run restarts at twice it with ``budget.used`` as it was, so
    no outcome differs."""
    ring = polys[0].ring
    width = _first_width(polys, 2 if isinstance(order, GrevLex) else 1)
    used = budget.used if budget is not None else 0
    while True:
        try:
            return run(_Kernel(ring.field, _packing(order, ring.arity, width)))
        except WidthOverflow:
            if budget is not None:
                budget.used = used
            width *= 2


class _Basis(tuple):
    """Polynomials of ``ring`` that ``normal_form`` and membership tests
    divide by under ``order``, with their packed form: a kernel, and a keyless divisor
    index (``_Divisors``) of the elements packed and normalized.

    The first request builds both, at the ``_first_width`` of the basis and
    its element; later ones reuse them, the index's memo of popped
    monomials included.  An element that does not fit (``WidthOverflow``
    from ``pack`` or from division's pop) rebuilds them at twice the width,
    as ``_packed`` restarts a run.  The remainder does not depend on the
    width or on the memo: each popped monomial is reduced by the first
    divisor, in descending leading-monomial order, whose lead divides it.
    Every reduction grows the memo, so a ``_Basis`` is not for concurrent
    use.
    """

    def __new__(cls, polys: Iterable[Polynomial], order: MonomialOrder, ring: PolynomialRing):
        basis = super().__new__(cls, polys)
        for g in basis:
            if g.ring != ring:
                raise RingMismatchError("basis element in a different ring")
            if g.is_zero():
                raise ZeroPolynomialError("zero polynomial has no leading term")
        basis.order, basis.ring, basis.width, basis.packed = order, ring, 0, None
        return basis

    def remainder(self, f: Polynomial) -> tuple[dict, object]:
        """f's remainder, packed by the kernel in ``packed``, and the
        nonzero scalar d it carries: the normal form of f is the remainder
        over d.  The remainder is empty exactly when f lies in the ideal,
        so a membership test unpacks nothing.  An empty basis divides
        nothing: there the remainder is f's own terms, and d is None."""
        ring = self.ring
        if f.ring != ring:
            raise RingMismatchError("element in a different ring from the basis")
        if not self:
            return f.terms, None
        if not self.width:
            self.width = _first_width([f, *self])
        while True:
            if self.packed is None:
                kernel = _Kernel(ring.field, _packing(self.order, ring.arity, self.width))
                self.packed = kernel, kernel.divisors(map(kernel.normalized, self))
            kernel, divisors = self.packed
            try:
                rest, d = kernel.pack(f)
                remainder, s = kernel.reduce({m: [c] for m, c in rest.items()}, divisors)
                return remainder, d * s
            except WidthOverflow:
                self.width *= 2
                self.packed = None


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Fully reduce f modulo basis: no term of the result is divisible by
    any basis leading term.

    Divisors are tried by leading term, descending (ties in basis order),
    so the result is deterministic for a fixed basis.  The polynomials are
    packed, the basis is normalized, f is divided by the kernel
    ``buchberger`` uses, and the remainder is unpacked.  A basis that an
    ``IdealPresentation`` cached under ``order`` keeps its packed form
    between calls (``_Basis``); any other is packed for this call.
    """
    if not (isinstance(basis, _Basis) and basis.order == order):
        basis = _Basis(basis, order, f.ring)
    remainder, d = basis.remainder(f)
    if d is None:
        return f
    if not remainder:
        return f.ring.zero()  # without unpacking
    kernel = basis.packed[0]
    return kernel.unpack(f.ring, kernel.divide(remainder, d))


def buchberger(generators: Iterable[Polynomial], order: MonomialOrder, budget: Budget | None = None) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal the generators span.

    Under grevlex, signature completion (``_signature_buchberger``), which
    spends ``budget`` once per J-pair it reduces; under lex and block
    orders, the classic pair loop (``_buchberger``), which spends it once
    per S-pair.  The order is part of the input, so it alone picks the
    loop.  The signature loop leaves most zero remainders uncomputed: on
    katsura-5 over Q it reduces 20 J-pairs where the classic loop reduces
    66 S-pairs, 48 of them to zero, and takes 0.011 s instead of 0.027 s.
    Under lex and the block orders its Schreyer signatures fit less well:
    on cyclic-5 over F_32003 it reduces 172 J-pairs where the classic loop
    reduces 119 S-pairs, and takes 0.093 s instead of 0.024 s under lex
    (0.038 s instead of 0.022 s under the block order that keeps x3, x4),
    though on katsura-4 under lex it is faster (0.050 s instead of
    0.096 s).  (Best of three runs, Python 3.11 on a shared 2-core VM.)
    The zero ideal yields the empty basis.

    The generators are sorted by total degree, lowest first, then by term
    count, largest first, then by ``Polynomial.sort_key``; in the
    signature loop a generator's place breaks the ties of the Schreyer
    order.  The order is total, so the pairs reduced do not depend on the
    order the generators are written in.  They are packed once
    (``PackedMonomials``, at the narrowest width their degrees allow);
    S-polynomials, division and the final tail reduction run on packed
    polynomials, and only the reduced basis is unpacked.  A run that
    outgrows the width starts again at twice the width with the budget as
    it was at entry, so the pairs reduced, ``budget.used`` and the basis do
    not depend on the width.
    """
    budget = budget or Budget()
    generators = [g for g in generators if not g.is_zero()]
    if not generators:
        return ()
    ring = generators[0].ring
    for g in generators:
        if g.ring != ring:
            raise RingMismatchError("generators in different rings")
    generators.sort(key=lambda g: (g.total_degree(), -len(g.terms), g.sort_key()))
    complete = _completion(order)[0]
    return _packed(generators, order, lambda kernel: complete(kernel, ring, generators, budget), budget)


def _completion(order: MonomialOrder) -> tuple:
    """The loop ``buchberger`` runs under ``order``, and its name in reports."""
    if isinstance(order, GrevLex):
        return _signature_buchberger, "signature completion with the syzygy and cover criteria"
    return _buchberger, "Buchberger completion with both classic pair criteria"


def completion_name(order: MonomialOrder) -> str:
    """How ``buchberger`` completes a basis under ``order``, as a report
    names it."""
    return _completion(order)[1]


def _reduced_basis(kernel: _Kernel, ring: PolynomialRing, records: list[tuple]) -> tuple[Polynomial, ...]:
    """The unique reduced Groebner basis of the ideal of which the
    polynomials with the divisor records ``records`` are a Groebner basis;
    only here are its elements made monic."""
    guard = kernel.guard
    # minimalize: keep only records whose leading term no other divides,
    # scanning leading terms in ascending order
    kept: list[tuple] = []
    for record in sorted(records, key=itemgetter(0)):
        if all((record[0] - other[0]) & guard for other in kept):
            kept.append(record)
    # one keyless index serves every tail: no lead divides a monomial below it
    index = _Divisors(guard, [(lm, tail, None, lead) for lm, tail, _, lead in kept])
    reduced = []
    for lm, tail, _, lead in kept:
        remainder, scale = kernel.reduce({m: [c] for m, c in tail}, index)
        reduced.append({lm: scale if lead is None else lead * scale, **remainder})
    reduced.sort(key=max)
    # the basis shares most of its monomials: unpack each distinct one once
    unpack = kernel.packing.unpack
    exponents = {m: unpack(m) for m in set().union(*reduced)}
    return tuple(Polynomial._raw(ring, {exponents[m]: c for m, c in kernel.monic(g).items()}) for g in reduced)


def _buchberger(kernel: _Kernel, ring: PolynomialRing, generators: list[Polynomial], budget: Budget) -> tuple[Polynomial, ...]:
    """Classic completion: normal selection strategy (smallest lcm degree
    first) with both classic pair criteria.

    The pair loop reads only the exponent segment e_i of each packed lead
    (its low fields, which compare like the exponent tuple).  A heap entry
    is ``(graded lcm, i, j)``: one int with the lcm's degree above its
    exponent segment, so the heap pops pairs in the order of (lcm degree,
    lcm exponent tuple, i, j).  Leads i and j are coprime when the lcm
    segment is e_i + e_j.  Bit k of ``done[i]`` is set once the pair {i, k}
    is popped, so the chain criterion tests only the leads k in ``done[i] &
    done[j]``, each by ``(lcm - e_k) & exponent_guard``.  Every lead has
    degree below the field limit, which makes the lcm's degree and its full
    packed form exact; the full form is built, and checked against the
    width, only for a pair that is reduced.
    """
    packing = kernel.packing
    lcm, graded, segment, exponent_guard = packing.lcm, packing.graded, packing.exponent_mask, packing.exponent_guard
    divisors = kernel.divisors(())
    records = divisors.records  # divisor records, in basis order
    leads: list[int] = []  # exponent segments of the leading monomials
    done: list[int] = []  # bit k of done[i] is set once the pair {i, k} is popped
    heap: list = []

    def add(terms: dict):
        record = kernel.divisor(terms)
        e = record[0] & segment
        if packing.degree(e) >= packing.limit:
            raise WidthOverflow(packing.width)  # ``graded`` and ``monomial`` rely on it
        j = len(leads)
        for i, a in enumerate(leads):
            heappush(heap, (graded(lcm(a, e)), i, j))
        divisors.add(record)
        leads.append(e)
        done.append(0)

    for f in generators:
        add(kernel.normalized(f))
    while heap:
        key, i, j = heappop(heap)
        done[i] |= 1 << j
        done[j] |= 1 << i
        e = key & segment
        if e == leads[i] + leads[j]:
            continue  # coprime leading monomials
        # the chain criterion: another lead divides the lcm and both its
        # pairs with i and j are done
        chain = done[i] & done[j]
        while chain:
            low = chain & -chain
            if not (e - leads[low.bit_length() - 1]) & exponent_guard:
                break
            chain ^= low
        if chain:
            continue
        budget.spend()
        r = kernel.reduce(kernel.s_polynomial(records[i], records[j], packing.monomial(e)), divisors)[0]
        if r:
            add(kernel.normalize(r))
    return _reduced_basis(kernel, ring, records)


def _signature_buchberger(kernel: _Kernel, ring: PolynomialRing, generators: list[Polynomial], budget: Budget) -> tuple[Polynomial, ...]:
    """Signature completion, after Gao, Volny and Wang ("A new framework
    for computing Groebner bases") and Roune and Stillman ("Practical
    Groebner basis computation").

    Each basis element g carries a signature t*e_i: g is a combination of
    the generators f_i, as given, whose largest term, in the Schreyer order
    (t*lm(f_i), then i), is t*e_i.  A signature is one int,
    ``(t*lm(f_i)) << width | i``.  Then ``key = sig(g) - (lm(g) << width)``
    holds the ratio sig(g)/lm(g) above the index, and q*g has the signature
    ``((q*lm(g)) << width) + key``.  Such a sum of two packed monomials
    compares exactly even where it sets a guard bit, since no field
    carries past its guard.

    J-pairs are handled in increasing signature order, one per signature.
    The J-pair of g and h with lcm L takes the signature of the side with
    the larger key, ``(L << width) + max(key_g, key_h)``; equal keys make
    it singular, and it is dropped.  Its S-polynomial is reduced
    regularly: a divisor q*g may reduce a term, the lead or any other,
    only while its signature stays below the J-pair's (the ``bound`` of
    ``_Kernel.reduce``).  A J-pair is dropped, when it would be pushed and
    again when it is popped, by

    * the syzygy criterion: a known syzygy signature divides its own.  A
      zero remainder records its signature, and each new element records,
      with each earlier one, the signature of their Koszul syzygy,
      ``((lm(g)*lm(h)) << width) + max(key_g, key_h)``.  A coprime pair has
      that signature itself.
    * the cover criterion (on pop): an element whose signature divides the
      J-pair's has the larger key, so a multiple of it has the J-pair's
      signature and a smaller lead.  Of the J-pairs with one signature the
      one with the largest key is kept, so the test covers all of them.  A
      remainder whose lead could be reduced at its own signature would have
      made its J-pair covered, so none reaches the basis.

    The generators are the J-pairs e_i: each is reduced at its own
    signature, by the elements of smaller signature, so a generator that is
    a multiple or an associate of earlier ones reduces to zero there.
    Reducing one does not spend the budget; reducing any other J-pair
    spends it once.  Divisibility of signatures is read off their exponent
    segments.

    A new element k (lead segment e, signature segment ``span``) screens
    its J-pairs when it joins the basis, after Faugere's F5 and Roune and
    Stillman, and the pop decides the rest.  On a pair (a, k) whose
    signature k gives, the signature segment is span + d with
    d = lcm(l_a, e) - e, and a syzygy s of k's index divides it exactly
    when the residual lcm(s, span) - span divides d.  The residuals are
    taken once per element, from the syzygies known when it joins.  A
    syzygy recorded while its pairs are formed reaches those it kills when
    they are popped: the pop's syzygy test reads only the signature, so
    J-pairs with one signature share its outcome, and a dropped one spends
    no budget.  The residuals that are a single variable form one mask: d
    meets it exactly when the pair dies.  Each element keeps its mask, so
    the pairs whose signature the earlier element a gives are screened the
    same way: there the multiplier is lcm(l_a, e) - l_a, and the mask is
    a's.  ``PackedMonomials.slot_hits`` tests every earlier lead against
    both in one pass over ints that hold all leads, and all masks, side by
    side.  The other residuals, and the syzygies recorded since a joined,
    are tested pair by pair.  A J-pair that survives is queued under its
    signature segment and index, so one whose signature is queued already
    is merged without packing its signature.

    The run starts again at twice the width where ``len(generators) >
    2^width``, the room of the generator index, and where ``add`` meets a
    signature of degree ``limit / 2`` or more; no sum needs a test of its
    own.  Under grevlex no field of a packed monomial exceeds its degree,
    and a signature is never below its lead (key >= 0), so no lead reaches
    the bound either.  Every value the walk forms (span + d, l_a + span,
    lcm - l_a + span_a, e + span_a and lcm*sig_j/lm_j) has degree at most
    that of one lead plus one signature, below ``limit``, so it fits.
    """
    packing = kernel.packing
    width, segment, exponent_guard = packing.width, packing.exponent_mask, packing.exponent_guard
    half = packing.limit >> 1  # the bound on every signature's degree
    monomial, slot_hits, slot_bits = packing.monomial, packing.slot_hits, packing.slot_bits
    top = width - 1
    gens = [kernel.normalized(f) for f in generators]
    if len(gens) > 1 << width:
        raise WidthOverflow(width)
    index = (1 << width) - 1  # key & index, sig & index: the generator index
    units = {1 << (width * v) for v in range(ring.arity)}  # the segments of the variables
    divisors = kernel.divisors(())
    records = divisors.records  # divisor records, in basis order
    keys: list[int] = []
    leads: list[int] = []  # exponent segments of the leading monomials
    spans: list[int] = []  # exponent segments of the signatures' monomials
    # the leads again, one per slot of ``slot_bits`` bits, each element's
    # ``single`` mask in the same slots, and the slots' low bits
    slots = masks = ones = 0
    # Signature divisibility is read off exponent segments.  Per generator
    # index: the (key, signature segment) of its elements, and the minimal
    # signature segments of its known syzygies (tens where thousands are
    # recorded).
    elements: list[list[tuple]] = [[] for _ in gens]
    syzygies: list[list[int]] = [[] for _ in gens]
    # J-pairs by signature, written (signature segment << width | index),
    # and a heap of the signatures, packed
    queued = {(max(f) & segment) << width | i: (i, None) for i, f in enumerate(gens)}
    heap = [max(f) << width | i for i, f in enumerate(gens)]
    heapify(heap)

    def divides_any(known: list[int], t: int) -> bool:
        for s in known:
            if not (t - s) & exponent_guard:
                return True
        return False

    def record_syzygy(known: list[int], t: int):
        if known and divides_any(known, t):
            return
        known[:] = [s for s in known if (s - t) & exponent_guard]
        known.append(t)

    def add(terms: dict, sig: int):
        nonlocal slots, masks, ones
        k = len(records)
        lm = max(terms)
        key = sig - (lm << width)
        e = lm & segment
        span = sig >> width & segment
        if packing.degree(span) >= half:
            raise WidthOverflow(width)  # then every sum the walk forms fits
        keys.append(key)
        leads.append(e)
        spans.append(span)
        # A syzygy s of k's index divides the signature segment span + d of
        # the J-pair of a and k on k's side, d = lcm(l_a, e) - e, exactly
        # when its residual lcm(s, span) - span divides d.  A residual that
        # is a variable divides d when d meets its field: those make the
        # mask ``single``, and ``slot_hits`` tests every lead against it at
        # once.  Each earlier element a kept its own mask from when it
        # joined, and ``slot_hits`` tests lcm(l_a, e) - l_a against each in
        # the same pass: that screens the J-pairs whose signature a gives.
        # The screen holds the syzygies known before the walk; one recorded
        # during it reaches the J-pairs it kills when they are popped.
        mine = syzygies[key & index]
        single, others = 0, []
        for s in mine:
            # r = lcm(s, span) - span, all fields at once as in ``lcm``:
            # each field of x keeps its guard bit, and then holds the
            # difference of the fields of s and span, exactly when that of s
            # is the larger
            x = (s | exponent_guard) - span
            h = x & exponent_guard
            r = x & h - (h >> top)
            if r in units:
                single |= r * index  # the variable's whole field: ``index`` is one field's mask
            elif not r & single:  # a residual that meets the mask is implied
                others.append(r)
        hits = slot_hits(slots, ones, e, single, masks)
        for a, other, hit in zip(range(k), keys, hits):
            if hit & (1 if other < key else 2) or other == key:
                continue  # screened, or singular: the same index and ratio
            la = leads[a]  # d = lcm(l_a, e) - e, as r above
            x = (la | exponent_guard) - e
            h = x & exponent_guard
            d = x & h - (h >> top)
            if other < key:  # k's side gives the signature
                if others and divides_any(others, d):
                    continue
                t = span + d
                if d == la:  # coprime: the Koszul syzygy has the J-pair's signature
                    record_syzygy(mine, t)
                    continue
                # the Koszul syzygy, whose residual is l_a, is new only
                # when the J-pair survives, since its signature divides it
                if not (la & single or others and divides_any(others, la)):
                    record_syzygy(mine, la + span)
                j, i = k, a
            else:  # a's side gives the signature
                t = d + e - la + spans[a]
                known = syzygies[other & index]
                if known and divides_any(known, t):
                    continue
                if d == la:  # coprime
                    record_syzygy(known, t)
                    continue
                record_syzygy(known, e + spans[a])
                j, i = a, k
            # t is the signature segment: most J-pairs share their
            # signature with one queued before, so only a new one is packed
            sig_key = keys[j]
            t = t << width | sig_key & index
            held = queued.get(t)
            if held is None:
                queued[t] = (j, i)
                heappush(heap, (monomial(d + e) << width) + sig_key)
            elif keys[held[0]] < sig_key:
                queued[t] = (j, i)
        divisors.add(kernel.divisor(terms, key))
        elements[key & index].append((key, span))
        slots |= e << slot_bits * k
        masks |= single << slot_bits * k
        ones |= 1 << slot_bits * k

    while heap:
        sig = heappop(heap)
        t = sig >> width & segment
        j, i = queued.pop(t << width | sig & index)
        if i is None:
            r = kernel.reduce({m: [c] for m, c in gens[j].items()}, divisors, sig)[0]
        else:
            key = keys[j]
            known = syzygies[key & index]
            if known and divides_any(known, t):
                continue
            if any(other > key and not (t - s) & exponent_guard for other, s in elements[key & index]):
                continue
            budget.spend()
            r = kernel.reduce(kernel.s_polynomial(records[j], records[i], sig - key >> width), divisors, sig)[0]
        if r:
            add(kernel.normalize(r), sig)
        else:
            record_syzygy(syzygies[sig & index], t)
    return _reduced_basis(kernel, ring, records)


class IdealPresentation:
    """An ideal given by generators, with cached reduced Groebner bases.

    An ideal I of ``ring`` = K[X] also presents the affine algebra K[X]/I:
    every function that works on such an algebra takes its presentation.
    Zero generators are dropped on construction, so the zero ideal is the
    presentation with no generators.  Presentations are immutable apart from
    the basis cache: one reduced basis per order, computed on first use, and
    with each the packed form that the first normal form or membership
    test against it builds (``_Basis``), so ``contains`` packs the basis
    once.
    Every membership test grows the memo of that packed form's divisor
    index, so the cache, and with it a presentation, is not for concurrent
    use.
    """

    __slots__ = ("ring", "generators", "_gb_cache")

    def __init__(self, ring: PolynomialRing, generators: Iterable[Polynomial]):
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError(f"generator {g!r} is not in {ring!r}")
        self.ring = ring
        self.generators = tuple(g for g in gens if not g.is_zero())
        self._gb_cache: dict[MonomialOrder, _Basis] = {}

    @classmethod
    def zero_ideal(cls, ring: PolynomialRing) -> "IdealPresentation":
        return cls(ring, ())

    def __eq__(self, other):
        return (
            isinstance(other, IdealPresentation)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __repr__(self):
        return f"Ideal({', '.join(map(repr, self.generators))})"

    def groebner_basis(self, order: MonomialOrder = GREVLEX, budget: Budget | None = None) -> tuple[Polynomial, ...]:
        cached = self._gb_cache.get(order)
        if cached is None:
            cached = _Basis(buchberger(self.generators, order, budget), order, self.ring)
            self._gb_cache[order] = cached
        return cached

    def contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        return not self.groebner_basis(GREVLEX, budget).remainder(f)[0]

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def is_unit_ideal(self, budget: Budget | None = None) -> bool:
        basis = self.groebner_basis(GREVLEX, budget)
        return len(basis) == 1 and basis[0].is_constant()


def eliminate(ideal: IdealPresentation, keep: Iterable[str], budget: Budget | None = None) -> IdealPresentation:
    """Generators of the intersection with the subring on the kept variables.

    Computed from a basis under a block order that ranks the discarded
    variables above everything else; the result is presented in the same
    ambient ring.
    """
    ring = ideal.ring
    keep_idx = {ring.variable_index(name) for name in keep}
    block = frozenset(i for i in range(ring.arity) if i not in keep_idx)
    if not block:
        return IdealPresentation(ring, ideal.generators)
    from .orderings import BlockElimination

    basis = ideal.groebner_basis(BlockElimination(block), budget)
    return IdealPresentation(ring, [g for g in basis if g.support() <= keep_idx])


def _contract(ideal: IdealPresentation, ring: PolynomialRing, budget: Budget | None) -> list[Polynomial]:
    """Generators of the ideal's intersection with ``ring``, whose variables
    are the first ones of the ideal's ring."""
    inter = eliminate(ideal, ring.variables, budget)
    return [g.map_to(ring) for g in inter.generators]


def ideal_quotient(ideal: IdealPresentation, f: Polynomial, budget: Budget | None = None) -> IdealPresentation:
    """The colon ideal (I : f) = {g : g*f in I}.

    Uses the tag-variable intersection: I ∩ (f) is the elimination of t from
    t*I + (1-t)*(f), and dividing its generators by f gives the quotient.
    """
    if f.is_zero():
        raise ZeroPolynomialError("ideal quotient by zero")
    if f.ring != ideal.ring:
        raise RingMismatchError("quotient element in a different ring")
    ring = ideal.ring
    ext = ring.extend((fresh_variable("tagvar", ring),))
    t = ext.variable(ring.arity)
    mixed = [t * g.map_to(ext) for g in ideal.generators] + [(ext.one() - t) * f.map_to(ext)]
    gens = []
    for g in _contract(IdealPresentation(ext, mixed), ring, budget):
        q = exact_divide(g, f)
        if q is None:
            raise AssertionError("intersection generator not divisible by f")
        gens.append(q)
    return IdealPresentation(ring, gens)


def rabinowitsch(ideal: IdealPresentation, f: Polynomial) -> IdealPresentation:
    """(I, f*Y - 1) with one fresh variable Y appended to the ring: it
    presents the localization at f, and is the unit ideal when f lies in I."""
    if f.ring != ideal.ring:
        raise RingMismatchError("localizing element in a different ring")
    ring = ideal.ring
    ext = ring.extend((fresh_variable("Y", ring),))
    relation = f.map_to(ext) * ext.variable(ring.arity) - ext.one()
    return IdealPresentation(ext, [g.map_to(ext) for g in ideal.generators] + [relation])


def saturate(ideal: IdealPresentation, f: Polynomial, budget: Budget | None = None) -> IdealPresentation:
    """The saturation (I : f^inf), by inverting f with a fresh variable and
    contracting back to the original ring."""
    if f.is_zero():
        raise ZeroPolynomialError("saturation by zero")
    return IdealPresentation(ideal.ring, _contract(rabinowitsch(ideal, f), ideal.ring, budget))
