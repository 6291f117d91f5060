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
        if g.is_zero():
            continue
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

    The zero ideal is presented by a single zero generator.  Presentations
    are immutable apart from the basis cache, whose fill is idempotent, so
    sharing across threads is safe.
    """

    __slots__ = ("ring", "generators", "_gb_cache")

    def __init__(self, ring: PolynomialRing, generators: Iterable[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("presentation needs at least one generator; use zero_ideal()")
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError(f"generator {g!r} is not in {ring!r}")
        self.ring = ring
        self.generators = gens
        self._gb_cache: dict[MonomialOrder, tuple[Polynomial, ...]] = {}

    @classmethod
    def zero_ideal(cls, ring: PolynomialRing) -> "IdealPresentation":
        return cls(ring, [ring.zero()])

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

    def is_zero_ideal(self, budget: Budget | None = None) -> bool:
        return not self.groebner_basis(GREVLEX, budget)

    def is_unit_ideal(self, budget: Budget | None = None) -> bool:
        basis = self.groebner_basis(GREVLEX, budget)
        return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()

    def same_ideal(self, other: "IdealPresentation", budget: Budget | None = None) -> bool:
        if self.ring != other.ring:
            raise RingMismatchError("comparing ideals of different rings")
        return all(other.contains(g, budget=budget) for g in self.generators) and all(
            self.contains(g, budget=budget) for g in other.generators
        )


def ideal_membership(f: Polynomial, ideal: IdealPresentation, budget: Budget | None = None) -> bool:
    if f.ring != ideal.ring:
        raise RingMismatchError("membership test across rings")
    return ideal.contains(f, budget=budget)


def fresh_variable(stem: str, taken: Iterable[str]) -> str:
    used = set(taken)
    if stem not in used:
        return stem
    k = 1
    while f"{stem}{k}" in used:
        k += 1
    return f"{stem}{k}"


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
    kept = [g for g in basis if g.support() <= keep_idx]
    if not kept:
        return IdealPresentation.zero_ideal(ring)
    return IdealPresentation(ring, kept)


def _push_to_extension(ideal_ring: PolynomialRing, ext: PolynomialRing, polys: Iterable[Polynomial]) -> list[Polynomial]:
    var_map = {i: i for i in range(ideal_ring.arity)}
    return [p.map_to(ext, var_map) for p in polys]


def _drop_last_variables(p: Polynomial, target: PolynomialRing) -> Polynomial:
    var_map = {i: i for i in range(target.arity)}
    return p.map_to(target, var_map)


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
    if ideal.is_zero_ideal(budget):
        return IdealPresentation.zero_ideal(ring)
    tag = fresh_variable("tagvar", ring.variables)
    ext = ring.extend((tag,))
    t = ext.variable(ring.arity)
    lifted = _push_to_extension(ring, ext, ideal.generators)
    f_ext = _push_to_extension(ring, ext, [f])[0]
    mixed = [t * g for g in lifted] + [(ext.one() - t) * f_ext]
    inter = eliminate(IdealPresentation(ext, mixed), ring.variables, budget)
    if inter.is_zero_ideal(budget):
        return IdealPresentation.zero_ideal(ring)
    gens = []
    for g in inter.generators:
        if g.is_zero():
            continue
        down = _drop_last_variables(g, ring)
        q = exact_divide(down, f)
        if q is None:
            raise AssertionError("intersection generator not divisible by f")
        gens.append(q)
    if not gens:
        return IdealPresentation.zero_ideal(ring)
    return IdealPresentation(ring, gens)


def saturate(ideal: IdealPresentation, f: Polynomial, budget: Budget | None = None) -> IdealPresentation:
    """The saturation (I : f^inf), by inverting f with a fresh variable and
    contracting back to the original ring."""
    if f.is_zero():
        raise ZeroPolynomialError("saturation by zero")
    if f.ring != ideal.ring:
        raise RingMismatchError("saturation element in a different ring")
    ring = ideal.ring
    inverse = fresh_variable("satvar", ring.variables)
    ext = ring.extend((inverse,))
    y = ext.variable(ring.arity)
    lifted = [g for g in _push_to_extension(ring, ext, ideal.generators) if not g.is_zero()]
    f_ext = _push_to_extension(ring, ext, [f])[0]
    gens = lifted + [f_ext * y - ext.one()]
    inter = eliminate(IdealPresentation(ext, gens), ring.variables, budget)
    if inter.is_zero_ideal(budget):
        return IdealPresentation.zero_ideal(ring)
    down = [_drop_last_variables(g, ring) for g in inter.generators if not g.is_zero()]
    if not down:
        return IdealPresentation.zero_ideal(ring)
    return IdealPresentation(ring, down)
