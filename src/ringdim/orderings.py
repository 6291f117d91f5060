"""Monomial orders on exponent vectors.

Monomials are plain tuples of non-negative integers, one entry per ring
variable.  Every order here is global (the unit monomial is minimal) and
multiplicative (u < v implies uw < vw), which is what the Groebner engine
relies on.

Each order is defined once, by ``descending_key(u)``: a plain tuple whose
natural ascending order is the monomial order, descending.  The engine
sorts and heaps by the key, so a monomial costs one key build instead of a
Python comparison call per comparison.  ``compare(u, v)``, the sign of
u - v in the order, is derived from the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg

from .errors import ArityMismatchError


def _grevlex_key(u: tuple[int, ...]) -> tuple:
    # higher degree first; then the smaller rightmost differing exponent
    return (-sum(u), u[::-1])


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


@dataclass(frozen=True)
class GrevLex:
    """Graded reverse lexicographic order."""

    compare = _compare_by_key
    descending_key = staticmethod(_grevlex_key)


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


LEX = Lex()
GREVLEX = GrevLex()

MonomialOrder = Lex | GrevLex | BlockElimination


def compare(u: tuple[int, ...], v: tuple[int, ...], order: MonomialOrder) -> int:
    """Total-order comparison of two exponent vectors of equal arity."""
    if len(u) != len(v):
        raise ArityMismatchError(f"cannot compare arities {len(u)} and {len(v)}")
    return order.compare(u, v)

