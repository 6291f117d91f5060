"""Groebner bases and derived ideal operations.

Everything downstream (dimension, chain verification, saturation) routes
through ``buchberger``.  Determinism matters more than speed here: pair
selection, divisor order in reductions, and the final basis sort all follow
fixed canonical orders so reruns are bit-identical and certificates can be
re-checked externally.

Speed comes from the reduction loop, not from changing the algorithm:
``normal_form`` keeps the unreduced part as a dict plus a heap of its
monomials under the order's ``descending_key`` (heap division, after
Monagan & Pearce), screens divisors by support mask and degree before the
exact divisibility test, and subtracts only the tail of each divisor
multiple.  The divisor rule and every intermediate basis are those of the
textbook loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add, itemgetter, le, sub
from typing import Iterable, Sequence

from .errors import BudgetExhaustedError, RingMismatchError, ZeroPolynomialError
from .orderings import GREVLEX, MonomialOrder
from .polynomials import (
    Polynomial,
    PolynomialRing,
    exact_divide,
    fresh_variable,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

DEFAULT_PAIR_BUDGET = 50_000


@dataclass
class Budget:
    """Cap on S-pair reductions; exceeding it raises, never truncates."""

    limit: int = DEFAULT_PAIR_BUDGET
    used: int = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExhaustedError(self.used, self.limit)


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, cf = f.leading(order)
    lg, cg = g.leading(order)
    lcm = monomial_lcm(lf, lg)
    field = f.ring.field
    left = f.mul_term(field.inv(cf), monomial_div(lcm, lf))
    right = g.mul_term(field.inv(cg), monomial_div(lcm, lg))
    return left - right


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Fully reduce f modulo basis: no term of the result is divisible by
    any basis leading term.

    Divisors are tried by leading term, descending, so the result is
    deterministic for a fixed basis.

    The unreduced part lives in a dict with a heap of its monomials
    (Monagan & Pearce's heap division): each step pops the largest
    monomial, so the remainder is never rescanned or rebuilt.  A monomial
    whose coefficient cancels stays in the heap and is skipped when popped.
    Only the tail of q*m*g is subtracted, since its leading term cancels the
    popped term exactly.
    """
    ring = f.ring
    field = ring.field
    key = order.descending_key
    divisors = []
    for g in basis:
        if g.ring != ring:
            raise RingMismatchError("basis element in a different ring")
        lm, lc = g.leading(order)
        divisors.append((key(lm), lm, None if field.is_one(lc) else lc, _support_mask(lm), sum(lm), g.terms))
    divisors.sort(key=itemgetter(0))
    cadd, cmul, is_zero = field.add, field.mul, field.is_zero
    rest = dict(f.terms)
    heap = [(key(m), m) for m in rest]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = rest.pop(m, None)
        if c is None:
            continue  # cancelled after it was pushed
        mask, degree = _support_mask(m), sum(m)
        for _, lm, lc, lmask, ldegree, terms in divisors:
            if ldegree <= degree and not lmask & ~mask and all(map(le, lm, m)):
                break
        else:
            remainder[m] = c
            continue
        q = field.neg(c if lc is None else field.div(c, lc))
        shift = tuple(map(sub, m, lm))
        for gm, gc in terms.items():
            if gm == lm:
                continue
            t = tuple(map(add, gm, shift))
            prod = cmul(q, gc)
            old = rest.get(t)
            if old is None:
                rest[t] = prod
                heapq.heappush(heap, (key(t), t))
            else:
                total = cadd(old, prod)
                if is_zero(total):
                    del rest[t]
                else:
                    rest[t] = total
    return Polynomial._raw(ring, remainder)


def _support_mask(m: tuple[int, ...]) -> int:
    return sum(1 << i for i, e in enumerate(m) if e)


def _inter_reduce(polys: list[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    current = sorted((p for p in polys if not p.is_zero()), key=Polynomial.sort_key)
    while True:
        changed = False
        result: list[Polynomial] = []
        for i, p in enumerate(current):
            others = result + current[i + 1:]
            r = normal_form(p, others, order) if others else p
            if r != p:
                changed = True
            if not r.is_zero():
                result.append(r.monic(order))
        if not changed:
            return result
        current = sorted(result, key=Polynomial.sort_key)


def buchberger(generators: Iterable[Polynomial], order: MonomialOrder, budget: Budget | None = None) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal the generators span.

    Normal selection strategy (smallest lcm degree first) with both classic
    pair criteria; the zero ideal yields the empty basis.
    """
    budget = budget or Budget()
    basis = _inter_reduce(list(generators), order)
    if not basis:
        return ()
    leads = [g.leading(order)[0] for g in basis]

    def pair_key(i: int, j: int):
        lcm = monomial_lcm(leads[i], leads[j])
        return (monomial_degree(lcm), lcm, i, j)

    heap: list = []
    for j in range(len(basis)):
        for i in range(j):
            heapq.heappush(heap, (*pair_key(i, j), i, j))
    done: set[tuple[int, int]] = set()

    while heap:
        *_, i, j = heapq.heappop(heap)
        lcm = monomial_lcm(leads[i], leads[j])
        if lcm == monomial_mul(leads[i], leads[j]):
            done.add((i, j))  # coprime leading terms reduce to zero
            continue
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(leads[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            done.add((i, j))
            continue
        budget.spend()
        r = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        done.add((i, j))
        if not r.is_zero():
            basis.append(r.monic(order))
            leads.append(basis[-1].leading(order)[0])
            new = len(basis) - 1
            for k in range(new):
                heapq.heappush(heap, (*pair_key(k, new), k, new))

    # minimalize: keep only elements whose leading term no other divides
    order_key = order.descending_key
    indexed = sorted(range(len(basis)), key=lambda i: order_key(leads[i]), reverse=True)
    kept: list[int] = []
    for i in indexed:
        if not any(monomial_divides(leads[k], leads[i]) for k in kept):
            kept.append(i)
    minimal = [basis[i] for i in kept]
    # tail-reduce each against the rest: the unique reduced basis
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        reduced.append(normal_form(g, others, order).monic(order) if others else g.monic(order))
    reduced.sort(key=lambda g: order_key(g.leading(order)[0]), reverse=True)
    return tuple(reduced)


class IdealPresentation:
    """An ideal given by generators, with cached reduced Groebner bases.

    Zero generators are dropped on construction, so the zero ideal is the
    presentation with no generators.  Presentations are immutable apart from
    the basis cache, whose fill is idempotent, so sharing across threads is
    safe.
    """

    __slots__ = ("ring", "generators", "_gb_cache")

    def __init__(self, ring: PolynomialRing, generators: Iterable[Polynomial]):
        gens = tuple(generators)
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError(f"generator {g!r} is not in {ring!r}")
        self.ring = ring
        self.generators = tuple(g for g in gens if not g.is_zero())
        self._gb_cache: dict[MonomialOrder, tuple[Polynomial, ...]] = {}

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
            cached = buchberger(self.generators, order, budget)
            self._gb_cache[order] = cached
        return cached

    def contains(self, f: Polynomial, order: MonomialOrder = GREVLEX, budget: Budget | None = None) -> bool:
        return normal_form(f, self.groebner_basis(order, budget), order).is_zero()

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
