"""Krull dimension of affine algebras and their element localizations.

The core computation is combinatorial: the dimension of K[X]/I equals the
largest variable subset meeting the leading-term ideal of I only in zero.
The subset scan is exhaustive, which the global variable cap keeps cheap,
and it is certifiable: tests re-derive it with an independent brute-force
oracle straight from monomial generators.

An affine algebra K[X]/I is passed as the ``IdealPresentation`` of I, which
carries the polynomial ring K[X] as ``ring``.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import combinations
from typing import Iterable

from .errors import EmptyRingError, FrozenRecord
from .ideals import Budget, IdealPresentation, ideal_quotient
from .orderings import GREVLEX, MonomialOrder
from .polynomials import Polynomial


INF = math.inf  # countably infinite transcendence degree


class DimensionValue(FrozenRecord):
    """Exact integer, empty ring, infinite, or an honest interval.

    The empty ring is its own case rather than a -1 sentinel: the dimension
    theorems all presuppose a nonzero ring and conflating the cases breeds
    silent bugs.
    """

    kind: str  # "exact" | "empty" | "infinite" | "interval"
    lo: object = None
    hi: object = None

    @classmethod
    def exact(cls, d: int) -> "DimensionValue":
        if d == INF:
            return cls.infinite()
        if d < 0:
            raise ValueError("negative dimension")
        return cls("exact", d, d)

    @classmethod
    def empty_ring(cls) -> "DimensionValue":
        return cls("empty")

    @classmethod
    def infinite(cls) -> "DimensionValue":
        return cls("infinite", INF, INF)

    @classmethod
    def interval(cls, lo, hi) -> "DimensionValue":
        if lo == INF:
            return cls.infinite()
        if lo == hi:
            return cls.exact(lo)
        if hi < lo:
            raise ValueError(f"interval [{lo}, {hi}] is empty")
        return cls("interval", lo, hi)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def value(self) -> int:
        if self.kind != "exact":
            raise ValueError(f"{self} is not an exact dimension")
        return self.lo

    def __str__(self):
        if self.kind == "exact":
            return str(self.lo)
        if self.kind == "empty":
            return "empty-ring"
        if self.kind == "infinite":
            return "inf"
        return f"[{self.lo}, {self.hi}]"


def independent_set_dimension(leading_monomials: Iterable[tuple[int, ...]], arity: int) -> int:
    """Largest subset U of variables such that no monomial's support fits
    inside U; scanning sizes top-down makes the common cases quick."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leading_monomials]
    if any(not s for s in supports):
        raise ValueError("a constant leading term means the unit ideal; handle it earlier")
    for size in range(arity, -1, -1):
        for subset in combinations(range(arity), size):
            u = frozenset(subset)
            if all(not s <= u for s in supports):
                return size
    raise AssertionError("unreachable: the empty subset is always independent")


def dim_affine(ideal: IdealPresentation, order: MonomialOrder = GREVLEX, budget: Budget | None = None) -> DimensionValue:
    """Exact Krull dimension of K[X]/I via independent sets of the
    leading-term ideal."""
    basis = ideal.groebner_basis(order, budget)
    if not basis:
        return DimensionValue.exact(ideal.ring.arity)
    if len(basis) == 1 and basis[0].is_constant():
        return DimensionValue.empty_ring()
    leads = [g.leading(order)[0] for g in basis]
    return DimensionValue.exact(independent_set_dimension(leads, ideal.ring.arity))


class ZeroDivisorStatus(Enum):
    NON_ZERO_DIVISOR = "non-zero-divisor"
    ZERO_DIVISOR = "zero-divisor"
    ZERO_ELEMENT = "zero-element"


def zero_divisor_status(ideal: IdealPresentation, f: Polynomial, budget: Budget | None = None) -> ZeroDivisorStatus:
    """Three-way test: f may be a unit-of-nothing (zero in K[X]/I), a genuine
    zero-divisor, or a non-zero-divisor, decided by whether (I : f) = I."""
    if f.ring != ideal.ring:
        raise ValueError("element must live in the algebra's ring")
    if f.is_zero() or ideal.contains(f, budget=budget):
        return ZeroDivisorStatus.ZERO_ELEMENT
    quotient = ideal_quotient(ideal, f, budget)
    # I is always contained in (I : f); equality needs only the reverse check
    if all(ideal.contains(g, budget=budget) for g in quotient.generators):
        return ZeroDivisorStatus.NON_ZERO_DIVISOR
    return ZeroDivisorStatus.ZERO_DIVISOR


def trdeg_affine_domain(ideal: IdealPresentation, budget: Budget | None = None) -> int:
    """Transcendence degree of Frac(A) over the base field, for A = K[X]/I
    a domain.

    Equal to dim A; the domain certificate travels with the caller and is
    surfaced in reports, not re-derived here.
    """
    dim = dim_affine(ideal, budget=budget)
    if dim.kind == "empty":
        raise EmptyRingError("the zero ring has no fraction field")
    return dim.value
