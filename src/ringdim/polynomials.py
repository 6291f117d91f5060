"""Exact multivariate polynomials over a pluggable coefficient field.

A ``PolynomialRing`` pairs a coefficient field object with an ordered tuple
of variable names.  The field object mediates all coefficient arithmetic
(see ``fields`` for the protocol), so this module never assumes a concrete
element type: rationals are ``Fraction``, prime-field elements are canonical
ints, rational functions are reduced numerator/denominator pairs.

Polynomials are immutable values; every operation returns a fresh one.
That is what makes it safe for ideal presentations to cache Groebner bases
and for concurrent evaluations to share structures.  A polynomial holds
nothing but its ring and its terms: the Groebner engine works on packed
copies (see ``ideals``), so nothing here is cached.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import add, itemgetter, le, sub
from typing import Iterable, Mapping

from .errors import ArityMismatchError, RingMismatchError, ZeroPolynomialError
from .orderings import GREVLEX, MonomialOrder

# -- exponent-vector helpers -------------------------------------------------

def monomial_mul(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, u, v))


def monomial_divides(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    return all(map(le, u, v))


def monomial_degree(u: tuple[int, ...]) -> int:
    return sum(u)


class PolynomialRing:
    """An ordered polynomial ring over a coefficient field.

    Equality is structural: same field, same variable names in the same
    order.  The variable cap is checked by the parser, where input builds a
    ring (``parser.check_variable_cap``); rings the program builds, with tag
    or Rabinowitsch variables, may exceed it.
    """

    __slots__ = ("field", "variables", "_index")

    def __init__(self, field, variables: Iterable[str]):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate ring variables in {self.variables}")
        function_vars = field.function_variables
        clash = set(self.variables) & set(function_vars)
        if clash:
            raise ValueError(f"ring variables shadow coefficient-field variables: {sorted(clash)}")
        self._index = {name: i for i, name in enumerate(self.variables)}

    @property
    def arity(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PolynomialRing)
            and self.field == other.field
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"PolynomialRing({self.field!r}, {self.variables!r})"

    def variable_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"{name!r} is not a variable of {self!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        return Polynomial(self, {(0,) * self.arity: c})

    def from_int(self, n: int) -> "Polynomial":
        return self.constant(self.field.from_int(n))

    def variable(self, name_or_index) -> "Polynomial":
        i = name_or_index if isinstance(name_or_index, int) else self.variable_index(name_or_index)
        exps = tuple(1 if j == i else 0 for j in range(self.arity))
        return Polynomial(self, {exps: self.field.one})

    def extend(self, extra: Iterable[str]) -> "PolynomialRing":
        return PolynomialRing(self.field, self.variables + tuple(extra))


def fresh_variable(stem: str, ring: PolynomialRing, taken: Iterable[str] = ()) -> str:
    """``stem``, or ``stem`` with the smallest positive integer suffix, that
    names neither a variable of ``ring`` or of its coefficient field nor
    anything in ``taken``."""
    used = {*ring.variables, *ring.field.function_variables, *taken}
    name, k = stem, 0
    while name in used:
        k += 1
        name = f"{stem}{k}"
    return name


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: Mapping[tuple[int, ...], object]):
        """Terms with coefficients in the field or given as ints, which
        ``field.from_int`` makes canonical; zero terms are dropped."""
        field = ring.field
        is_zero = field.is_zero
        clean = {}
        arity = ring.arity
        for exps, c in terms.items():
            if len(exps) != arity:
                raise ArityMismatchError(f"monomial {exps} has arity {len(exps)}, ring has {arity}")
            if isinstance(c, int):
                c = field.from_int(c)
            if not is_zero(c):
                clean[tuple(exps)] = c
        self.ring = ring
        self.terms = clean

    @classmethod
    def _raw(cls, ring: PolynomialRing, terms: dict) -> "Polynomial":
        # fast path: caller guarantees normalized terms of the right arity
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(monomial_degree(e) == 0 for e in self.terms)

    def constant_value(self):
        """The coefficient of the unit monomial (field zero if absent)."""
        return self.terms.get((0,) * self.ring.arity, self.ring.field.zero)

    def total_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no degree")
        return max(monomial_degree(e) for e in self.terms)

    def support(self) -> frozenset[int]:
        """Indices of the variables that actually occur."""
        seen = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    seen.add(i)
        return frozenset(seen)

    def degree_in(self, i: int) -> int:
        return max((exps[i] for exps in self.terms), default=0)

    def leading(self, order: MonomialOrder) -> tuple[tuple[int, ...], object]:
        """Leading (monomial, coefficient) under ``order``."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        best = min(self.terms, key=order.descending_key)
        return best, self.terms[best]

    def coefficient_of(self, i: int, d: int) -> "Polynomial":
        """Coefficient of x_i^d, as a polynomial with x_i cleared."""
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == d:
                cleared = exps[:i] + (0,) + exps[i + 1:]
                out[cleared] = c
        return Polynomial._raw(self.ring, out)

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"operands live in {self.ring!r} and {other.ring!r}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        field = self.ring.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                s = field.add(out[exps], c)
                if field.is_zero(s):
                    del out[exps]
                else:
                    out[exps] = s
            else:
                out[exps] = c
        return Polynomial._raw(self.ring, out)

    def __neg__(self) -> "Polynomial":
        neg = self.ring.field.neg
        return Polynomial._raw(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        field = self.ring.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = monomial_mul(e1, e2)
                prod = field.mul(c1, c2)
                if exps in out:
                    s = field.add(out[exps], prod)
                    if field.is_zero(s):
                        del out[exps]
                    else:
                        out[exps] = s
                elif not field.is_zero(prod):
                    out[exps] = prod
        return Polynomial._raw(self.ring, out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        field = self.ring.field
        if field.is_zero(c):
            return self.ring.zero()
        return Polynomial._raw(self.ring, {e: field.mul(c, v) for e, v in self.terms.items()})

    def mul_term(self, coeff, exps: tuple[int, ...]) -> "Polynomial":
        field = self.ring.field
        if field.is_zero(coeff):
            return self.ring.zero()
        return Polynomial._raw(
            self.ring,
            {monomial_mul(e, exps): field.mul(coeff, c) for e, c in self.terms.items()},
        )

    def monic(self) -> "Polynomial":
        _, lc = self.leading(GREVLEX)
        if self.ring.field.is_one(lc):
            return self
        return self.scale(self.ring.field.inv(lc))

    def substitute(self, values: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials of the same ring."""
        ring = self.ring
        result = ring.zero()
        for exps, c in self.terms.items():
            factor = ring.constant(c)
            kept = list(exps)
            for i, e in enumerate(exps):
                if e and i in values:
                    kept[i] = 0
                    factor = factor * values[i] ** e
            result = result + factor.mul_term(ring.field.one, tuple(kept))
        return result

    def map_to(self, target: PolynomialRing, var_map: Mapping[int, int] | None = None) -> "Polynomial":
        """Reinterpret in ``target``, sending variable i to var_map[i].

        Without ``var_map``, variable i goes to variable i of ``target``: the
        embedding into a ring with variables appended, or back onto a prefix
        of the variables.  Every variable actually occurring must be mapped;
        coefficients pass unchanged, so ``target`` shares this ring's field.
        """
        if var_map is None:
            var_map = range(target.arity)  # i -> i, defined for i < target.arity
        out: dict = {}
        field = target.field
        for exps, value in self.terms.items():
            new = [0] * target.arity
            for i, e in enumerate(exps):
                if e:
                    if i not in var_map:
                        raise ValueError(f"variable index {i} has no image in target ring")
                    new[var_map[i]] = e
            key = tuple(new)
            if key in out:
                value = field.add(out[key], value)
            if field.is_zero(value):
                out.pop(key, None)
            else:
                out[key] = value
        return Polynomial._raw(target, out)

    # -- identity ------------------------------------------------------------

    def sort_key(self):
        """Deterministic total key; used to canonicalize generator lists."""
        key = self.ring.field.element_key
        return tuple(sorted((e, key(c)) for e, c in self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        key = self.ring.field.element_key
        return hash((self.ring, frozenset((e, key(c)) for e, c in self.terms.items())))

    def __repr__(self):
        return format_polynomial(self)


# -- text form ----------------------------------------------------------------

def _monomial_entry(names: tuple[str, ...], exps: tuple[int, ...]) -> tuple[tuple, str]:
    """The grevlex ``descending_key`` of a monomial and its text ("" for 1)."""
    factors = []
    for name, e in zip(names, exps):
        if e == 1:
            factors.append(name)
        elif e:
            factors.append(f"{name}^{e}")
    return GREVLEX.descending_key(exps), "*".join(factors)


def format_polynomial(p: Polynomial, negate: bool = False, monomials: dict | None = None) -> str:
    """Canonical text: terms in descending grevlex order, `^` powers.

    The output parses back to an equal polynomial, so reports diff cleanly.
    A coefficient prints as the unsigned text of ``display_split``, which
    is "1" exactly for 1 and -1: those print as their sign alone.  With
    ``negate`` the text is that of -p, for p over Q, where -c prints as c
    with the sign flipped.  ``monomials`` memoizes ``_monomial_entry`` for
    p's variable names: pass one dict to print many polynomials of a ring.
    """
    if p.is_zero():
        return "0"
    field = p.ring.field
    names = p.ring.variables
    if monomials is None:
        monomials = {}
    get = monomials.get
    items = []
    for exps, c in p.terms.items():
        entry = get(exps)
        if entry is None:
            entry = monomials[exps] = _monomial_entry(names, exps)
        items.append((entry, c))
    # distinct monomials have distinct keys: no text or coefficient is compared
    items.sort(key=itemgetter(0))
    pieces: list[str] = []
    for (_, factors), c in items:
        negative, body = field.display_split(c)
        negative ^= negate
        if not factors:
            text = body
        elif body == "1":
            text = factors
        else:
            text = body + "*" + factors
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(pieces)


# -- division and gcd ----------------------------------------------------------

def exact_divide(p: Polynomial, q: Polynomial) -> Polynomial | None:
    """Quotient p/q when q divides p exactly, else None.

    The remainder is a dict updated in place with a heap of its monomials
    under grevlex, so no step rescans it or builds a polynomial.  Every
    monomial a step adds is below the one it removes, so each enters the
    heap once.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return p
    p._check_ring(q)
    field = p.ring.field
    key = GREVLEX.descending_key
    lq, cq = q.leading(GREVLEX)
    tail = [(e, field.neg(field.div(c, cq))) for e, c in q.terms.items() if e != lq]
    rest = dict(p.terms)
    heap = sorted((key(e), e) for e in rest)
    quotient: dict = {}
    while heap:
        lr = heappop(heap)[1]
        cr = rest.pop(lr)
        if field.is_zero(cr):
            continue
        if not monomial_divides(lq, lr):
            return None
        exps = tuple(map(sub, lr, lq))
        quotient[exps] = field.div(cr, cq)
        for e, c in tail:
            m = monomial_mul(e, exps)
            if m in rest:
                rest[m] = field.add(rest[m], field.mul(cr, c))
            else:
                rest[m] = field.mul(cr, c)
                heappush(heap, (key(m), m))
    return Polynomial._raw(p.ring, quotient)


def polynomial_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Multivariate gcd over a field, monic under grevlex, so canonical.

    When either operand is a single term c*x^a, every divisor of it is a
    monomial and the gcd is x^m, m the least exponent of each variable over
    the terms of both operands (a constant operand included).  Otherwise it
    comes from the Groebner kernel: for principal ideals (g : f) is
    (g / gcd(f, g)) (Cox, Little and O'Shea, "Ideals, Varieties, and
    Algorithms", ch. 4 §3), so the one generator q of ``ideal_quotient``
    gives the gcd as g/q.  Those kernel runs spend their own default
    ``Budget``, not a caller's, so a Groebner run over a function field
    spends the same ``budget.used`` whatever its coefficient gcds cost.
    """
    if f.is_zero() and g.is_zero():
        return f
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    f._check_ring(g)
    if len(f.terms) == 1 or len(g.terms) == 1:
        exps = tuple(map(min, *f.terms, *g.terms))
        return Polynomial._raw(f.ring, {exps: f.ring.field.one})
    from .ideals import IdealPresentation, ideal_quotient  # ideals imports fields, which imports this module

    (q,) = ideal_quotient(IdealPresentation(f.ring, [g]), f).generators
    return exact_divide(g, q).monic()
