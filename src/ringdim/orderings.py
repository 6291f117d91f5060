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

from dataclasses import dataclass
from operator import mul, neg


def _grevlex_key(u: tuple[int, ...]) -> tuple:
    # higher degree first; then the smaller rightmost differing exponent
    return (-sum(u), u[::-1])


def _unit_rows(arity: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(arity)) for i in range(arity)]


def _grevlex_weights(variables: list[int], arity: int) -> list[tuple[int, ...]]:
    # the degree in the variables, then that degree without the last one,
    # without the last two, ...: a larger prefix sum means a smaller
    # rightmost differing exponent
    return [tuple(int(i in variables[:k]) for i in range(arity)) for k in range(len(variables), 0, -1)]


def _compare_by_key(order, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    # the greater monomial has the smaller key
    ku, kv = order.descending_key(u), order.descending_key(v)
    return (kv > ku) - (kv < ku)


@dataclass(frozen=True)
class Lex:
    """Pure lexicographic order; the first variable is strongest."""

    compare = _compare_by_key

    def descending_key(self, u: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(neg, u))

    def weights(self, arity: int) -> list[tuple[int, ...]]:
        return _unit_rows(arity)


@dataclass(frozen=True)
class GrevLex:
    """Graded reverse lexicographic order."""

    compare = _compare_by_key
    descending_key = staticmethod(_grevlex_key)

    def weights(self, arity: int) -> list[tuple[int, ...]]:
        return _grevlex_weights(list(range(arity)), arity)


@dataclass(frozen=True)
class BlockElimination:
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

    ``pack`` raises ``WidthOverflow`` for a monomial that does not fit;
    callers that create monomials by addition test ``& guard`` themselves
    and start again at a larger width.
    """

    __slots__ = ("width", "guard", "_rows", "_limit", "_shifts", "_mask")

    def __init__(self, order: MonomialOrder, arity: int, width: int):
        self._rows = order.weights(arity) + _unit_rows(arity)
        self.width = width
        self._limit = 1 << (width - 1)
        self.guard = sum(self._limit << (width * k) for k in range(len(self._rows)))
        self._shifts = [width * (arity - 1 - i) for i in range(arity)]
        self._mask = (1 << width) - 1

    def pack(self, u: tuple[int, ...]) -> int:
        packed = 0
        for row in self._rows:
            value = sum(map(mul, row, u))
            if value >= self._limit:
                raise WidthOverflow(self.width)
            packed = packed << self.width | value
        return packed

    def unpack(self, m: int) -> tuple[int, ...]:
        mask = self._mask
        return tuple(m >> shift & mask for shift in self._shifts)
