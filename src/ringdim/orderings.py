"""Monomial orders on exponent vectors.

Monomials are plain tuples of non-negative integers, one entry per ring
variable.  Every order here is global (the unit monomial is minimal) and
multiplicative (u < v implies uw < vw), which is what the Groebner engine
relies on.

Each order is defined by ``descending_key(u)``: a plain tuple whose
natural ascending order is the monomial order, descending.  Sorting by the
key costs one key build per monomial instead of a Python comparison call
per comparison.  Each order's ``compare(u, v)`` method, the sign of
u - v in the order, is derived from the key.

Each order also reads as a nonnegative integer weight matrix M
(``weights``): u > v exactly when (M·u, u) > (M·v, v) lexicographically.
``PackedMonomials`` uses that reading to pack a monomial into one int on
which the order, multiplication and divisibility are plain int operations;
the Groebner engine works on packed monomials.
"""

from __future__ import annotations

from itertools import compress
from operator import mul, neg

from .errors import FrozenRecord


def _grevlex_key(u: tuple[int, ...]) -> tuple:
    # higher degree first; then the smaller rightmost differing exponent
    return (-sum(u), u[::-1])


def _unit_rows(arity: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(arity)) for i in range(arity)]


def _grevlex_weights(variables: list[int], arity: int) -> list[tuple[int, ...]]:
    # the degree in the variables, then that degree without the last one,
    # without the last two, ...: a larger prefix sum means a smaller
    # rightmost differing exponent
    row = [0] * arity
    for i in variables:
        row[i] = 1
    rows = []
    for i in reversed(variables):
        rows.append(tuple(row))
        row[i] = 0
    return rows


def _compare_by_key(order, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    # the greater monomial has the smaller key
    ku, kv = order.descending_key(u), order.descending_key(v)
    return (kv > ku) - (kv < ku)


class Lex(FrozenRecord):
    """Pure lexicographic order; the first variable is strongest."""

    compare = _compare_by_key

    def descending_key(self, u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(neg, u))

    def weights(self, arity: int) -> list[tuple[int, ...]]:
        return _unit_rows(arity)


class GrevLex(FrozenRecord):
    """Graded reverse lexicographic order."""

    compare = _compare_by_key
    descending_key = staticmethod(_grevlex_key)

    def weights(self, arity: int) -> list[tuple[int, ...]]:
        return _grevlex_weights(list(range(arity)), arity)


class BlockElimination(FrozenRecord):
    """Elimination order for the variables whose indices lie in ``block``.

    Any monomial touching a block variable sorts above every block-free
    monomial; inside each part the tie-break is grevlex.  Computing a basis
    under this order makes the block-free basis elements generate the
    elimination ideal.
    """

    block: frozenset[int]

    compare = _compare_by_key

    def descending_key(self, u: tuple[int, ...]) -> tuple:
        inside = tuple(e if i in self.block else 0 for i, e in enumerate(u))
        outside = tuple(e - b for e, b in zip(u, inside))
        return _grevlex_key(inside) + _grevlex_key(outside)

    def weights(self, arity: int) -> list[tuple[int, ...]]:
        inside = [i for i in range(arity) if i in self.block]
        outside = [i for i in range(arity) if i not in self.block]
        return _grevlex_weights(inside, arity) + _grevlex_weights(outside, arity)


LEX = Lex()
GREVLEX = GrevLex()

MonomialOrder = Lex | GrevLex | BlockElimination


class WidthOverflow(Exception):
    """A packed exponent field outgrew its width."""


class PackedMonomials:
    """Exponent vectors of one arity packed into ints that compare like ``order``.

    A monomial u becomes the fields of M·u (M the order's ``weights``)
    followed by those of u, most significant first, each ``width`` bits wide
    with its top bit a guard that a valid monomial leaves clear.  Then, for
    packed monomials that fit:

    * ``m < n`` as ints exactly when m < n in the order;
    * ``m + n`` is the packed product (every field is linear in u);
    * ``(m - l) & guard == 0`` exactly when l divides m: a negative field
      difference borrows and sets that field's guard bit;
    * in a sum of two packed monomials, a field that outgrew ``width - 1``
      bits sets its guard bit and carries no further, so the sum can never
      equal a valid monomial.

    The low ``arity * width`` bits, ``m & exponent_mask``, are the exponent
    segment: the fields of u itself, x0 most significant.  Two segments
    compare as ints like their exponent tuples lexicographically, and the
    divisibility test works on them with ``exponent_guard``.  The pair loops
    of the Groebner engine run on segments alone (``lcm``, ``graded``, and
    ``slot_hits`` on many segments side by side in one int) and turn one
    back into a packed monomial (``monomial``) only for a pair they keep.

    ``pack`` raises ``WidthOverflow`` for a monomial that does not fit;
    callers that create monomials by addition test ``& guard`` themselves
    and start again at a larger width.
    """

    __slots__ = (
        "width", "guard", "limit", "exponent_mask", "exponent_guard",
        "slot_bits", "_rows", "_shifts", "_mask", "_segment_bits", "_sums",
    )

    def __init__(self, order: MonomialOrder, arity: int, width: int):
        weights = order.weights(arity)
        self._rows = weights + _unit_rows(arity)
        self.width = width
        self.limit = 1 << (width - 1)
        self.guard = sum(self.limit << (width * k) for k in range(len(self._rows)))
        self._shifts = [width * (arity - 1 - i) for i in range(arity)]
        self._mask = (1 << width) - 1
        self._segment_bits = width * arity
        self.exponent_mask = (1 << self._segment_bits) - 1
        self.exponent_guard = self.guard & self.exponent_mask
        # whole bytes, with a spare bit above the segment (``slot_hits``)
        self.slot_bits = (self._segment_bits >> 3) + 1 << 3
        # each weight row as (the mask of its variables' exponent fields,
        # the shift of its field): every order here has 0/1 weights
        fields, top = [self._mask << shift for shift in self._shifts], len(self._rows) - 1
        self._sums = [(sum(compress(fields, row)), width * (top - k)) for k, row in enumerate(weights)]

    def pack(self, u: tuple[int, ...]) -> int:
        packed = 0
        for row in self._rows:
            value = sum(map(mul, row, u))
            if value >= self.limit:
                raise WidthOverflow(self.width)
            packed = packed << self.width | value
        return packed

    def unpack(self, m: int) -> tuple[int, ...]:
        mask = self._mask
        return tuple([m >> shift & mask for shift in self._shifts])

    def lcm(self, a: int, b: int, guard: int = 0) -> int:
        """The exponent segment of lcm(u, v), from the segments a and b of
        u and v: the larger of each pair of fields, all fields at once.
        ``guard`` replaces ``exponent_guard`` for ints that hold several
        segments side by side (``slot_lcms``).

        No field of (a | guard) - b borrows from the next, and each keeps
        its guard bit exactly when a's field is at least b's; spread over
        its field, that bit selects a's field."""
        guard = guard or self.exponent_guard
        select = ((((a | guard) - b) & guard) >> (self.width - 1)) * self._mask
        return a & select | b & ~select

    def slot_lcms(self, slots: int, ones: int, e: int) -> int:
        """The segments lcm(a, e), one per slot, for the segments a held in
        the slots of ``slots``.

        A slot is ``slot_bits`` bits wide and holds one exponent segment in
        its low bits, the first slot lowest; ``ones`` has the low bit of
        every slot in use set.  The spare bits above each segment stay
        clear, so ``lcm`` works on all slots at once."""
        return self.lcm(slots, e * ones, self.exponent_guard * ones)

    def slot_hits(self, slots: int, ones: int, e: int, mask: int, masks: int) -> bytes:
        """One byte per slot of ``slots`` (as in ``slot_lcms``): bit 0 is
        set exactly when the segment lcm(a, e) - e meets ``mask``, and bit 1
        exactly when lcm(a, e) - a meets the slot's own mask in ``masks``
        (held as ``slots`` holds the segments).

        The part of a slot's quotient inside a mask is below
        2^(arity*width); adding 2^(arity*width) - 1 carries into the spare
        bit above the segment exactly when that part is nonzero."""
        lcms, spread, bits = self.slot_lcms(slots, ones, e), self.exponent_mask * ones, self._segment_bits
        mine = ((lcms - e * ones & mask * ones) + spread) >> bits & ones
        theirs = ((lcms - slots & masks) + spread) >> bits & ones
        return (mine | theirs << 1).to_bytes(ones.bit_length() + 7 >> 3, "little")[::self.slot_bits >> 3]

    def graded(self, e: int) -> int:
        """An int that orders exponent segments like (total degree, exponent
        tuple) does: the degree written above the segment.

        2^width is 1 modulo 2^width - 1, so the segment is its degree
        modulo 2^width - 1: the degree itself while that is below
        2^width - 1, as it is for the lcm of two monomials each of degree
        below ``limit``."""
        return (e % self._mask) << self._segment_bits | e

    def degree(self, e: int) -> int:
        """The total degree of the exponent segment ``e``."""
        mask = self._mask
        return sum(e >> shift & mask for shift in self._shifts)

    def monomial(self, e: int) -> int:
        """The packed monomial whose exponent segment is ``e``, of total
        degree below 2^width - 1, as the lcm of two monomials that fit is.

        A weight row's field is the sum of the exponent fields its mask
        selects, and, as in ``graded``, that part of the segment is the sum
        modulo 2^width - 1.  No weight field exceeds the degree, and a field
        that outgrew ``width - 1`` bits sets its guard bit without carrying:
        one test raises ``WidthOverflow`` for every monomial that does not
        fit."""
        m, mask = e, self._mask
        for fields, shift in self._sums:
            m |= (e & fields) % mask << shift
        if m & self.guard:
            raise WidthOverflow(self.width)
        return m
