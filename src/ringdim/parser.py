"""Text syntax for polynomials and ring expressions.

Polynomials use the usual infix notation with `^` for powers; `*` may be
omitted between a coefficient and a variable.  Identifiers resolve to ring
variables or, over a rational function field, to coefficient generators.
Division is permitted exactly when the divisor involves no ring variables,
which is what makes `3/2*x` and `(t^2+1)/(t)*z` parse while `x/y` is
rejected.

Ring expressions follow a small constructor grammar, one form per node:

    expr  := field
           | Ext(field; trdeg [; minpolys])
           | Poly(expr; vars) | Quot(expr; polys) | Loc(expr; poly)
           | LocSub(expr; polys) | Tensor(expr, expr .. [; field])
           | Frac(expr)
    field := Q | Fp(prime) | FunField(field; vars)
    trdeg := integer | inf

`Ext` auto-names its transcendence basis with the first k of s1, s2, ..
that the base field does not already use; minimal polynomials may mention
those names and earlier adjoined symbols, and must be monic in the one new
symbol they introduce.  Printing and parsing round-trip exactly.

Polynomials are read straight into the ring they live in, with no syntax
tree in between.  `Ext` needs its new symbols before its ring exists, so it
reads each minimal polynomial's identifiers off the tokens first.  Errors
come in reading order: a parse error names the first offending token.
"""

from __future__ import annotations

import sys
from itertools import count, islice
from typing import NamedTuple

from .calculus import (
    BaseField,
    FieldExt,
    FracField,
    LocElement,
    LocSubringComplement,
    PolyExt,
    Quotient,
    RingExpr,
    Tensor,
    tensor_variables,
)
from .dimension import INF
from .errors import ParseError
from .fields import (
    CoefficientField,
    PrimeField,
    QQ,
    RationalFunctionField,
    merged_function_field,
)
from .polynomials import Polynomial, PolynomialRing, format_polynomial


# -- lexing ---------------------------------------------------------------------

_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    ";": "SEMI",
    ",": "COMMA",
    "^": "CARET",
    "*": "STAR",
    "/": "SLASH",
    "+": "PLUS",
    "-": "MINUS",
}


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


# ring variables plus coefficient-field variables of a ring the input builds;
# the dimension kernel enumerates variable subsets, exponential in this count
MAX_TOTAL_VARIABLES = 12

# the parsers recurse once per parenthesis level; capping the depth here makes
# over-deep input a ParseError instead of a RecursionError that depends on
# how much stack the caller already used
MAX_NESTING = 100


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    depth = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            if ch == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise ParseError(f"parentheses nest deeper than {MAX_NESTING} levels", line, col)
            elif ch == ")":
                depth -= 1
            tokens.append(Token(_PUNCT[ch], ch, line, col))
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":
            start = i
            while i < len(text) and "0" <= text[i] <= "9":
                i += 1
            digits, limit = i - start, sys.get_int_max_str_digits()
            if limit and digits > limit:
                raise ParseError(f"integer literal has {digits} digits; at most {limit} are accepted", line, col)
            tokens.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.peek()
        if tok.kind != kind:
            wanted = what or kind
            raise ParseError(f"expected {wanted}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.next()


# -- polynomial expressions -------------------------------------------------------

def _parse_poly_expr(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    if cur.peek().kind == "MINUS":
        cur.next()
        poly = -_parse_poly_term(cur, ring)
    else:
        poly = _parse_poly_term(cur, ring)
    while cur.peek().kind in ("PLUS", "MINUS"):
        if cur.next().kind == "PLUS":
            poly = poly + _parse_poly_term(cur, ring)
        else:
            poly = poly - _parse_poly_term(cur, ring)
    return poly


def _parse_poly_term(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    poly = _parse_poly_factor(cur, ring)
    while True:
        tok = cur.peek()
        if tok.kind == "SLASH":
            cur.next()
            den = _parse_poly_factor(cur, ring)
            if den.is_zero():
                raise ParseError("division by zero", tok.line, tok.column)
            if not den.is_constant():
                raise ParseError("division only by coefficients, not ring variables", tok.line, tok.column)
            poly = poly.scale(ring.field.inv(den.constant_value()))
        elif tok.kind in ("STAR", "IDENT", "LPAREN"):
            # a star, or juxtaposition: 3x, 2(x+1)
            if tok.kind == "STAR":
                cur.next()
            poly = poly * _parse_poly_factor(cur, ring)
        else:
            return poly


def _parse_poly_factor(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    poly = _parse_poly_atom(cur, ring)
    if cur.peek().kind == "CARET":
        cur.next()
        poly = poly ** int(cur.expect("INT", "an integer exponent").text)
    return poly


def _parse_poly_atom(cur: _Cursor, ring: PolynomialRing) -> Polynomial:
    tok = cur.next()
    if tok.kind == "INT":
        return ring.from_int(int(tok.text))
    if tok.kind == "IDENT":
        if tok.text in ring.variables:
            return ring.variable(tok.text)
        field = ring.field
        if isinstance(field, RationalFunctionField) and tok.text in field.variables:
            return ring.constant(field.generator(tok.text))
        raise ParseError(f"unknown identifier {tok.text!r}", tok.line, tok.column)
    if tok.kind == "LPAREN":
        poly = _parse_poly_expr(cur, ring)
        cur.expect("RPAREN", "')'")
        return poly
    raise ParseError(f"expected a polynomial, found {tok.text or 'end of input'!r}", tok.line, tok.column)


def _parse_poly_list(cur: _Cursor, ring: PolynomialRing) -> tuple[Polynomial, ...]:
    polys = [_parse_poly_expr(cur, ring)]
    while cur.peek().kind == "COMMA":
        cur.next()
        polys.append(_parse_poly_expr(cur, ring))
    return tuple(polys)


def _parse_whole(text: str, parse):
    """Run one grammar rule over the whole text; anything left over is an error."""
    cur = _Cursor(tokenize(text))
    parsed = parse(cur)
    tok = cur.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return parsed


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    return _parse_whole(text, lambda cur: _parse_poly_expr(cur, ring))


# -- ring expressions --------------------------------------------------------------

_KEYWORDS = {"Q", "Fp", "FunField", "Ext", "Poly", "Quot", "Loc", "LocSub", "Tensor", "Frac", "inf"}

# the constructors that read elements of their base: the node each builds and
# what its elements are called when the base has no ring to parse them in
_ELEMENT_NODES = {
    "Quot": (Quotient, "polynomial relations"),
    "Loc": (LocElement, "a localizing element"),
    "LocSub": (LocSubringComplement, "subring generators"),
}


def _parse_field(cur: _Cursor) -> CoefficientField:
    tok = cur.expect("IDENT", "a field (Q, Fp(p), FunField(..))")
    if tok.text == "Q":
        return QQ
    if tok.text == "Fp":
        cur.expect("LPAREN", "'('")
        p = cur.expect("INT", "a prime")
        cur.expect("RPAREN", "')'")
        try:
            return PrimeField(int(p.text))
        except ValueError as exc:
            raise ParseError(str(exc), p.line, p.column) from None
    if tok.text == "FunField":
        cur.expect("LPAREN", "'('")
        base = _parse_field(cur)
        cur.expect("SEMI", "';'")
        names = _parse_name_list(cur)
        cur.expect("RPAREN", "')'")
        if isinstance(base, RationalFunctionField):
            raise ParseError("function fields do not nest; merge the variables", tok.line, tok.column)
        try:
            return RationalFunctionField(base, tuple(names))
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from None
    raise ParseError(f"unknown field {tok.text!r}", tok.line, tok.column)


def check_variable_cap(total: int, tok: Token) -> None:
    """Refuse, at the constructor ``tok``, a ring of ``total`` ring plus
    coefficient-field variables past the cap."""
    if total > MAX_TOTAL_VARIABLES:
        raise ParseError(f"{total} variables exceed the cap of {MAX_TOTAL_VARIABLES}", tok.line, tok.column)


def _parse_name_list(cur: _Cursor) -> list[str]:
    names = [cur.expect("IDENT", "a variable name").text]
    while cur.peek().kind == "COMMA":
        cur.next()
        names.append(cur.expect("IDENT", "a variable name").text)
    return names


class _Parsed(NamedTuple):
    """A parsed ring expression and what the constructors around it need."""

    expr: RingExpr
    # the ring its elements parse in; None where they cannot be parsed
    ambient: PolynomialRing | None
    # the ring of its presentation: the ambient ring, or for a tensor its
    # legs' variables juxtaposed over its base field; None for a fraction
    # field or an infinite extension
    ring: PolynomialRing | None
    # its ring plus coefficient-field variables, as the cap counts them
    size: int


def _build_ext(cur: _Cursor, open_tok: Token) -> _Parsed:
    base = _parse_field(cur)
    cur.expect("SEMI", "';'")
    tok = cur.peek()
    if tok.kind == "IDENT" and tok.text == "inf":
        cur.next()
        if cur.peek().kind == "SEMI":
            raise ParseError("infinite extensions take no minimal polynomials", open_tok.line, open_tok.column)
        cur.expect("RPAREN", "')'")
        return _Parsed(FieldExt(base, INF), None, None, len(base.function_variables))
    trdeg = int(cur.expect("INT", "a transcendence degree or 'inf'").text)
    # the identifiers of each minimal polynomial, read off the tokens up to the
    # closing ')' because the ring they parse in needs the new symbols first
    items: list[list[str]] = []
    if cur.peek().kind == "SEMI":
        cur.next()
        items.append([])
        depth = 0
        for tok in islice(cur.tokens, cur.pos, None):
            if tok.kind == "RPAREN":
                if depth == 0:
                    break
                depth -= 1
            elif tok.kind == "LPAREN":
                depth += 1
            elif tok.kind == "COMMA" and depth == 0:
                items.append([])
            elif tok.kind == "IDENT" and tok.text not in items[-1]:
                items[-1].append(tok.text)
    # the variables of the ring built below, checked before any name is built
    size = trdeg + len(base.function_variables) + len(items)
    check_variable_cap(size, open_tok)
    unused = (name for name in map("s{}".format, count(1)) if name not in base.function_variables)
    basis = tuple(islice(unused, trdeg))
    known = set(basis) | set(base.function_variables)
    symbols: list[str] = []
    for names in items:
        fresh = [n for n in names if n not in known and n not in symbols]
        if len(fresh) != 1:
            raise ParseError(
                "each minimal polynomial must introduce exactly one new symbol",
                open_tok.line,
                open_tok.column,
            )
        symbols.append(fresh[0])
    ring = PolynomialRing(merged_function_field(base, basis) if basis else base, tuple(symbols))
    minpolys = tuple(zip(symbols, _parse_poly_list(cur, ring))) if items else ()
    cur.expect("RPAREN", "')'")
    try:
        ext = FieldExt(base, trdeg, basis, minpolys)
    except ValueError as exc:
        raise ParseError(str(exc), open_tok.line, open_tok.column) from None
    return _Parsed(ext, ext.ambient_ring, ext.ambient_ring, size)


def _field_chain(expr: RingExpr) -> list[CoefficientField]:
    """Fields the expression is naturally an algebra over, outermost first."""
    if isinstance(expr, BaseField):
        chain = [expr.coefficients]
    elif isinstance(expr, (FieldExt, Tensor)):
        chain = [expr.over]
    else:
        return _field_chain(expr.base)
    last = chain[-1]
    if isinstance(last, RationalFunctionField):
        chain.append(last.base)
    return chain


def _parse_expr(cur: _Cursor) -> _Parsed:
    tok = cur.peek()
    if tok.kind != "IDENT":
        raise ParseError(f"expected a ring expression, found {tok.text or 'end of input'!r}", tok.line, tok.column)
    head = tok.text
    if head in ("Q", "Fp", "FunField"):
        field = _parse_field(cur)
        size = len(field.function_variables)
        check_variable_cap(size, tok)
        ring = PolynomialRing(field, ())
        return _Parsed(BaseField(field), ring, ring, size)
    cur.next()
    if head not in _KEYWORDS:
        raise ParseError(f"unknown constructor {head!r}", tok.line, tok.column)
    open_tok = cur.expect("LPAREN", "'('")

    if head == "Ext":
        return _build_ext(cur, open_tok)

    if head == "Poly":
        base = _parse_expr(cur)
        cur.expect("SEMI", "';'")
        names = _parse_name_list(cur)
        cur.expect("RPAREN", "')'")
        size = base.size + len(names)
        check_variable_cap(size, open_tok)
        ambient = base.ambient
        if ambient is None and isinstance(base.expr, FieldExt):
            # polynomials over an infinite extension parse with coefficients
            # in the extension's base field; the tree stays symbolic
            ambient = PolynomialRing(base.expr.over, ())
        # over a tensor, the new names extend its presentation, but elements
        # still cannot be parsed
        ring = base.ring if ambient is None else ambient
        if ring is not None:
            try:
                ring = PolynomialRing(ring.field, ring.variables + tuple(names))
            except ValueError as exc:
                raise ParseError(str(exc), open_tok.line, open_tok.column) from None
        return _Parsed(PolyExt(base.expr, tuple(names)), None if ambient is None else ring, ring, size)

    if head in _ELEMENT_NODES:
        node, noun = _ELEMENT_NODES[head]
        base = _parse_expr(cur)
        cur.expect("SEMI", "';'")
        if base.ambient is None:
            raise ParseError(f"cannot form {noun} over this base", open_tok.line, open_tok.column)
        parse = _parse_poly_expr if head == "Loc" else _parse_poly_list
        expr = node(base.expr, parse(cur, base.ambient))
        cur.expect("RPAREN", "')'")
        return base._replace(expr=expr)

    if head == "Tensor":
        legs = [_parse_expr(cur)]
        while cur.peek().kind == "COMMA":
            cur.next()
            legs.append(_parse_expr(cur))
        over = None
        if cur.peek().kind == "SEMI":
            cur.next()
            over = _parse_field(cur)
        cur.expect("RPAREN", "')'")
        if over is None:
            chains = [_field_chain(leg.expr) for leg in legs]
            for candidate in chains[0]:
                if all(candidate in chain for chain in chains[1:]):
                    over = candidate
                    break
            if over is None:
                raise ParseError(
                    "tensor legs share no base field; declare one with '; field'",
                    open_tok.line,
                    open_tok.column,
                )
        else:
            for leg in legs:
                if over not in _field_chain(leg.expr):
                    raise ParseError(
                        "a tensor leg is not an algebra over the declared base field",
                        open_tok.line,
                        open_tok.column,
                    )
        # every leg is an algebra over ``over``, so each counts the base
        # field's variables, which the product has once
        shared = len(over.function_variables)
        size = shared + sum(leg.size - shared for leg in legs)
        check_variable_cap(size, open_tok)
        ring = PolynomialRing(over, tensor_variables(over, [leg.ring.variables for leg in legs if leg.ring is not None]))
        return _Parsed(Tensor(tuple(leg.expr for leg in legs), over), None, ring, size)

    if head == "Frac":
        base = _parse_expr(cur)
        cur.expect("RPAREN", "')'")
        return _Parsed(FracField(base.expr), None, None, base.size)

    raise ParseError(f"unknown constructor {head!r}", tok.line, tok.column)


def parse_ring_expr(text: str) -> RingExpr:
    """Parse the constructor grammar into a ring expression tree."""
    return _parse_whole(text, _parse_expr).expr


def parse_field(text: str) -> CoefficientField:
    """Parse a field (Q, Fp(p), FunField(..)); the inverse of its ``repr``,
    which ``format_field`` returns."""
    return _parse_whole(text, _parse_field)


def ambient_ring_of(text: str) -> PolynomialRing | None:
    """The polynomial-parsing context of an expression (None for symbolic
    bases such as infinite extensions, tensors, and fraction fields)."""
    return _parse_expr(_Cursor(tokenize(text))).ambient


# -- printing -----------------------------------------------------------------------

def format_field(field: CoefficientField) -> str:
    """The text form of a field, which is its ``repr``."""
    return repr(field)


def format_ring_expr(expr: RingExpr) -> str:
    """Canonical text that parses back to an equal expression."""
    if isinstance(expr, BaseField):
        return format_field(expr.coefficients)
    if isinstance(expr, FieldExt):
        if not expr.algebraic_part:
            return f"Ext({format_field(expr.over)}; {expr.trdeg})"
        polys = ", ".join(format_polynomial(p) for _, p in expr.algebraic_part)
        return f"Ext({format_field(expr.over)}; {expr.trdeg}; {polys})"
    if isinstance(expr, PolyExt):
        return f"Poly({format_ring_expr(expr.base)}; {','.join(expr.variables)})"
    if isinstance(expr, Quotient):
        rels = ", ".join(format_polynomial(p) for p in expr.relations)
        return f"Quot({format_ring_expr(expr.base)}; {rels})"
    if isinstance(expr, LocElement):
        return f"Loc({format_ring_expr(expr.base)}; {format_polynomial(expr.element)})"
    if isinstance(expr, LocSubringComplement):
        gens = ", ".join(format_polynomial(p) for p in expr.subring_generators)
        return f"LocSub({format_ring_expr(expr.base)}; {gens})"
    if isinstance(expr, Tensor):
        legs = ", ".join(format_ring_expr(leg) for leg in expr.legs)
        return f"Tensor({legs}; {format_field(expr.over)})"
    if isinstance(expr, FracField):
        return f"Frac({format_ring_expr(expr.base)})"
    raise TypeError(f"unknown expression {expr!r}")
