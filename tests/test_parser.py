from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ringdim import (
    BaseField,
    FieldExt,
    LocElement,
    ParseError,
    PolynomialRing,
    PrimeField,
    QQ,
    Quotient,
    RationalFunctionField,
    Tensor,
    format_field,
    format_polynomial,
    flatten_affine,
    format_ring_expr,
    parse_field,
    parse_polynomial,
    parse_ring_expr,
)
from ringdim import parser
from ringdim.parser import MAX_NESTING


# -- polynomial text -----------------------------------------------------------

@pytest.fixture
def ring_qt():
    return PolynomialRing(RationalFunctionField(QQ, ("t",)), ("x", "y", "z"))


def test_parse_documented_example(ring_qt):
    p = parse_polynomial("3/2*x^2*y - t*z + 1", ring_qt)
    assert format_polynomial(p) == "3/2*x^2*y - (t)*z + 1"
    assert parse_polynomial(format_polynomial(p), ring_qt) == p


def test_parse_juxtaposition_and_parens():
    ring = PolynomialRing(QQ, ("x",))
    x = ring.variable("x")
    assert parse_polynomial("3x", ring) == x.scale(QQ.from_int(3))
    assert parse_polynomial("2(x + 1)", ring) == x.scale(QQ.from_int(2)) + ring.from_int(2)
    assert parse_polynomial("(x + 1)^2", ring) == x**2 + x.scale(QQ.from_int(2)) + ring.one()
    assert parse_polynomial("-x + x", ring).is_zero()


def test_parse_rational_coefficient_over_prime_field():
    ring = PolynomialRing(PrimeField(5), ("x",))
    p = parse_polynomial("3/2*x", ring)
    assert p == ring.variable("x").scale(4)  # 3 * inv(2) = 9 = 4 mod 5


def test_parse_division_restrictions(ring_qt):
    # dividing by a coefficient (even a function-field one) is fine
    p = parse_polynomial("(t^2 + 1)/(t)*z", ring_qt)
    assert not p.is_zero()
    with pytest.raises(ParseError):
        parse_polynomial("x/y", ring_qt)
    with pytest.raises(ParseError):
        parse_polynomial("x/0", ring_qt)


def test_parse_unknown_identifier_position():
    ring = PolynomialRing(QQ, ("x",))
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + bogus", ring)
    assert err.value.line == 1
    assert err.value.column == 5


def test_tokens_record_kind_text_and_position():
    tokens = parser.tokenize("x^2\n + 1")
    assert [(t.kind, t.text, t.line, t.column) for t in tokens] == [
        ("IDENT", "x", 1, 1), ("CARET", "^", 1, 2), ("INT", "2", 1, 3),
        ("PLUS", "+", 2, 2), ("INT", "1", 2, 4), ("EOF", "", 2, 5),
    ]
    assert repr(tokens[0]) == "Token(kind='IDENT', text='x', line=1, column=1)"


def test_parse_syntax_error_position():
    ring = PolynomialRing(QQ, ("x",))
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + + 1", ring)
    assert err.value.column == 5
    with pytest.raises(ParseError):
        parse_polynomial("x + ", ring)
    with pytest.raises(ParseError):
        parse_polynomial("x ? 1", ring)


@pytest.mark.parametrize(
    "text, column",
    [("Quot(Poly(Q;x); x^\u00b2)", 19), ("Quot(Poly(Q;x); 12\u00b2*x)", 19), ("Fp(\u0667)", 4)],
    ids=["superscript-exponent", "superscript-after-digits", "arabic-indic-prime"],
)
def test_only_ascii_digits_make_a_number(text, column):
    # str.isdigit() also holds for characters int() cannot read; each of
    # them is an unexpected character at its own position
    with pytest.raises(ParseError) as err:
        parse_ring_expr(text)
    assert err.value.message == f"unexpected character {text[column - 1]!r}"
    assert (err.value.line, err.value.column) == (1, column)


def test_nesting_cap():
    ring = PolynomialRing(QQ, ("x",))
    at_cap = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(at_cap, ring) == ring.variable("x")
    with pytest.raises(ParseError) as err:
        parse_polynomial("(" + at_cap + ")", ring)
    assert (err.value.line, err.value.column) == (1, MAX_NESTING + 1)


# -- ring expressions -----------------------------------------------------------

def test_grammar_examples():
    e = parse_ring_expr("Tensor(Ext(Q; 1), Ext(Q; 1))")
    assert isinstance(e, Tensor) and e.over == QQ
    assert all(isinstance(leg, FieldExt) for leg in e.legs)

    e = parse_ring_expr("Loc(Quot(Poly(Q; x,y); x*y); x+y)")
    assert isinstance(e, LocElement)
    assert isinstance(e.base, Quotient)

    e = parse_ring_expr("Tensor(Ext(Q; inf), Ext(Q; inf))")
    legs = e.legs
    from ringdim import INF

    assert legs[0].trdeg == INF


def test_field_forms():
    assert parse_ring_expr("Q") == BaseField(QQ)
    assert parse_ring_expr("Fp(7)") == BaseField(PrimeField(7))
    ff = parse_ring_expr("FunField(Q; t,u)")
    assert ff == BaseField(RationalFunctionField(QQ, ("t", "u")))
    with pytest.raises(ParseError):
        parse_ring_expr("Fp(6)")
    with pytest.raises(ParseError):
        parse_ring_expr("FunField(FunField(Q; t); u)")
    for field in (QQ, PrimeField(7), RationalFunctionField(QQ, ("t", "u"))):
        assert parse_field(format_field(field)) == field
    with pytest.raises(ParseError):
        parse_field("Q x")


def test_ext_with_minimal_polynomials():
    e = parse_ring_expr("Ext(Q; 1; a^2 - s1)")
    assert e.over == QQ and e.trdeg == 1 and e.basis_names == ("s1",)
    assert [name for name, _ in e.algebraic_part] == ["a"]
    with pytest.raises(ParseError):
        parse_ring_expr("Ext(Q; 0; 2*a^2 - 1)")  # not monic
    with pytest.raises(ParseError):
        parse_ring_expr("Ext(Q; inf; a^2 - 2)")  # no algebraic part over inf
    with pytest.raises(ParseError):
        parse_ring_expr("Ext(Q; 0; a*b - 1)")  # two new symbols at once


def test_ext_basis_skips_names_the_base_field_uses():
    e = parse_ring_expr("Ext(FunField(Q; s1); 2)")
    assert e.basis_names == ("s2", "s3")
    e = parse_ring_expr("Ext(FunField(Q; s1,s3); 3; a^2 - s1*s2)")
    assert e.basis_names == ("s2", "s4", "s5")
    assert parse_ring_expr(format_ring_expr(e)) == e
    # a base field without s-names keeps s1..sk
    assert parse_ring_expr("Ext(FunField(Q; t); 2)").basis_names == ("s1", "s2")


def test_ext_past_the_variable_cap_is_refused_before_naming_its_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the basis was built before the cap was checked")

    monkeypatch.setattr(parser, "merged_function_field", refuse)
    with pytest.raises(ParseError, match=r"^1000000 variables exceed the cap of 12 \(line 1, column 4\)$"):
        parse_ring_expr(f"Ext(Q; {10**6})")


_THIRTEEN = ",".join("abcdefghijklm")


@pytest.mark.parametrize(
    "text, column",
    [
        (f"Poly(Q; {_THIRTEEN})", 5),
        (f"FunField(Q; {_THIRTEEN})", 1),
        (f"Ext(FunField(Q; {_THIRTEEN}); 0)", 4),
        # ring variables and coefficient-field variables count together
        (f"Poly(FunField(Q; {_THIRTEEN[:11]}); {_THIRTEEN[12:]})", 5),
    ],
    ids=["Poly", "FunField", "Ext", "Poly-over-FunField"],
)
def test_variable_cap_is_a_parse_error_at_the_constructor(text, column):
    with pytest.raises(ParseError) as info:
        parse_ring_expr(text)
    assert (info.value.message, info.value.line, info.value.column) == ("13 variables exceed the cap of 12", 1, column)
    assert "unchecked" not in str(info.value)
    # rings built inside the program, such as Rabinowitsch presentations, may pass the cap
    assert PolynomialRing(QQ, tuple(_THIRTEEN.split(","))).arity == 13


@pytest.mark.parametrize(
    "text, column",
    [
        ("Poly(Tensor(Poly(Q;a,b,c,d,e,f), Poly(Q;g,h,i,j,k,l)); m)", 5),
        ("Tensor(Poly(Q;a,b,c,d,e,f,g), Poly(Q;h,i,j,k,l,m))", 7),
        ("Tensor(Tensor(Poly(Q;a,b,c,d), Poly(Q;e,f,g,h)), Poly(Q;i,j,k,l,m))", 7),
        # a leg's coefficient-field variables count too
        ("Tensor(FunField(Q; a,b,c,d,e,f,g), Poly(Q; h,i,j,k,l,m))", 7),
        # a fraction field counts the variables of the ring it is built from
        ("Poly(Frac(Poly(Q;a,b,c,d,e,f,g,h,i,j,k,l)); m)", 5),
    ],
    ids=["Poly-over-Tensor", "Tensor", "nested-Tensor", "FunField-leg", "Poly-over-Frac"],
)
def test_variable_cap_counts_a_tensor_as_the_sum_over_its_legs(text, column):
    with pytest.raises(ParseError) as info:
        parse_ring_expr(text)
    assert (info.value.message, info.value.line, info.value.column) == ("13 variables exceed the cap of 12", 1, column)


def test_variable_cap_counts_a_tensor_base_field_once():
    # 11 ring variables over Q(t): each leg is an algebra over Q(t), and t counts once
    e = parse_ring_expr("Tensor(Poly(FunField(Q; t); a,b,c,d,e,f), Poly(FunField(Q; t); g,h,i,j,k))")
    assert e.over == RationalFunctionField(QQ, ("t",))


@pytest.mark.parametrize(
    "text, names",
    [
        ("Poly(Tensor(Poly(Q;x), Poly(Q;y)); x)", "('x', 'y', 'x')"),
        # the second leg's x is x1 in the tensor, so x1 clashes with it
        ("Poly(Tensor(Poly(Q;x), Poly(Q;x)); x1)", "('x', 'x1', 'x1')"),
    ],
)
def test_poly_over_a_tensor_refuses_a_leg_name_at_its_position(text, names):
    with pytest.raises(ParseError) as info:
        parse_ring_expr(text)
    assert (info.value.message, info.value.line, info.value.column) == (f"duplicate ring variables in {names}", 1, 5)


def test_poly_over_a_tensor_names_its_variables_as_flattening_does():
    flat = flatten_affine(parse_ring_expr("Poly(Tensor(Poly(Q;x), Poly(Q;x)); y)"))
    assert flat.ring.variables == ("x", "x1", "y")


def test_tensor_base_inference_and_validation():
    e = parse_ring_expr("Tensor(Ext(Q; 1), Poly(FunField(Q; u); y))")
    assert e.over == QQ
    e = parse_ring_expr("Tensor(Poly(FunField(Q; u); y), Poly(FunField(Q; u); z))")
    assert e.over == RationalFunctionField(QQ, ("u",))
    with pytest.raises(ParseError):
        parse_ring_expr("Tensor(Poly(Q; x), Poly(Fp(5); y))")
    with pytest.raises(ParseError):
        parse_ring_expr("Tensor(Poly(Q; x), Poly(Q; y); Fp(5))")


def test_quotient_needs_polynomial_context():
    with pytest.raises(ParseError):
        parse_ring_expr("Quot(Tensor(Poly(Q; x), Poly(Q; y)); x*y)")
    with pytest.raises(ParseError):
        parse_ring_expr("Quot(Ext(Q; inf); x)")


def test_unknown_identifier_in_relations():
    with pytest.raises(ParseError):
        parse_ring_expr("Quot(Poly(Q; x); w - 1)")


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("Quot(Poly(Q; x); y, x^)", "unknown identifier 'y'", 18),
        ("Loc(Poly(Q; x); 1/x + )", "division only by coefficients, not ring variables", 18),
    ],
    ids=["identifier-before-exponent", "division-before-operand"],
)
def test_the_first_error_in_reading_order_is_reported(text, message, column):
    # polynomials are read straight into their ring, so an error in an
    # earlier element wins over a syntax error later in the text
    with pytest.raises(ParseError) as err:
        parse_ring_expr(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, 1, column)


def test_round_trip_corpus():
    corpus = [
        "Q",
        "Fp(5)",
        "FunField(Q; t)",
        "FunField(Fp(7); t,u)",
        "Ext(Q; 0)",
        "Ext(Q; 1)",
        "Ext(Q; 2)",
        "Ext(Q; inf)",
        "Ext(Fp(5); 1)",
        "Ext(Q; 1; a^2 - 2)",
        "Ext(Q; 1; a^2 - s1)",
        "Ext(Q; 2; a^2 - s1, b^3 - a)",
        "Ext(FunField(Q; s1); 2)",
        "Poly(Q; x)",
        "Poly(Q; x,y)",
        "Poly(Q; x,y,z)",
        "Poly(Fp(5); x,y)",
        "Poly(FunField(Q; t); x)",
        "Poly(Ext(Q; 1); y)",
        "Poly(Ext(Q; inf); y)",
        "Quot(Poly(Q; x); x^2 - 2)",
        "Quot(Poly(Q; x,y); x*y)",
        "Quot(Poly(Q; x,y); y^2 - x^3)",
        "Quot(Poly(Q; x,y,z); x*z, y*z)",
        "Quot(Poly(Fp(5); x,y); x*y - 1)",
        "Quot(Poly(FunField(Q; t); x); x^2 - t)",
        "Loc(Poly(Q; x); x)",
        "Loc(Poly(Q; x,y); x*y)",
        "Loc(Poly(Q; x,y); x^2 + y^2)",
        "Loc(Quot(Poly(Q; x,y); x*y); x + y)",
        "Loc(Quot(Poly(Q; x,y); x*y); x)",
        "LocSub(Poly(Q; u,y); u)",
        "LocSub(Poly(FunField(Q; u); y); u)",
        "LocSub(Poly(Q; u,v,y); u, v)",
        "Frac(Poly(Q; x))",
        "Frac(Quot(Poly(Q; x,y); y^2 - x^3))",
        "Tensor(Ext(Q; 1), Ext(Q; 1))",
        "Tensor(Ext(Q; 1), Ext(Q; 2), Ext(Q; 4))",
        "Tensor(Ext(Q; inf), Ext(Q; inf))",
        "Tensor(Ext(Q; 2), Ext(Q; inf))",
        "Tensor(Ext(Q; 1), Quot(Poly(Q; x,y); x*y))",
        "Tensor(Ext(Q; 1), Poly(FunField(Q; u); y))",
        "Tensor(Ext(Q; 2), Poly(FunField(Q; u); y))",
        "Tensor(Quot(Poly(Q; a); a^2 - 2), Quot(Poly(Q; b); b^2 - 2))",
        "Tensor(Poly(Q; x), Poly(Q; y), Poly(Q; z))",
        "Tensor(Ext(Q; 1; a^2 - 2), Ext(Q; 1))",
        "Tensor(Ext(Fp(5); 1), Ext(Fp(5); 1))",
        "Tensor(Quot(Poly(Q; x,y); x*y), Q)",
        "Poly(Quot(Poly(Q; x); x^2 - 2); y)",
        "Quot(Poly(Quot(Poly(Q; x); x^2 - 2); y); y^2 - x)",
        "Loc(Poly(Fp(5); x,y,z); x^2 + y^2 + z^2 + 1)",
        "Tensor(Ext(Q; 3), Ext(Q; 0))",
        "Frac(Poly(FunField(Q; t); x))",
        "LocSub(Quot(Poly(Q; u,y); y^2 - u); u)",
        "Quot(Poly(Q; x,y); 3/2*x^2*y - x + 1)",
    ]
    assert len(corpus) >= 50
    for text in corpus:
        expr = parse_ring_expr(text)
        printed = format_ring_expr(expr)
        again = parse_ring_expr(printed)
        assert again == expr, text
        assert format_ring_expr(again) == printed, text


# The strategies below build their texts from f-strings, format_field and
# the parser's own constructor names: the golden-report collector runs each
# plain ring-expression literal in tests/ as ``dim``, and skips the pieces of
# f-strings.
FIELDS = [QQ, PrimeField(7), PrimeField(32003)] + [
    RationalFunctionField(base, names) for base in (QQ, PrimeField(7)) for names in (("t",), ("t", "u"))
]


def _polynomial_text(draw, coefficient_names, variables) -> str:
    """Up to three terms with integer, fraction and function-field
    coefficients, over the given ring variables."""
    kinds = ["integer", "fraction"] + (["function"] if coefficient_names else [])
    text = draw(st.sampled_from(["", "-"]))
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "integer":
            coefficient = str(draw(st.integers(0, 5)))
        elif kind == "fraction":
            coefficient = f"{draw(st.integers(0, 5))}/{draw(st.integers(1, 5))}"
        else:
            top, bottom = draw(st.sampled_from(coefficient_names)), draw(st.sampled_from(coefficient_names))
            coefficient = f"({top}^{draw(st.integers(1, 2))} + {draw(st.integers(0, 2))})/({bottom})"
        powers = [f"{v}^{e}" for v in variables for e in [draw(st.integers(0, 2))] if e]
        text += (draw(st.sampled_from([" + ", " - "])) if k else "") + "*".join([coefficient] + powers)
    return text


def _ring_text(draw, field, depth):
    """A ring expression over ``field`` to the given constructor depth, and
    the coefficient names and ring variables its elements parse with (None
    where the grammar gives it no elements)."""
    head = draw(st.sampled_from(["field", "Ext"] + (["Tensor", "over"] if depth else [])))
    names = list(field.function_variables)
    if head == "field":
        return format_field(field), (names, [])
    if head == "Ext":
        trdeg = draw(st.sampled_from(["0", "1", "2", "inf"]))
        if trdeg == "inf":
            return f"Ext({format_field(field)}; inf)", None
        names += [f"s{k}" for k in range(1, int(trdeg) + 1)]
        text, symbols = f"Ext({format_field(field)}; {trdeg}", []
        for symbol in draw(st.sampled_from([[], ["a"], ["a", "b"]])):
            # monic in the new symbol, which the tail does not mention
            tail = _polynomial_text(draw, names, symbols)
            text += f"{', ' if symbols else '; '}{symbol}^{draw(st.integers(1, 3))} - ({tail})"
            symbols.append(symbol)
        return f"{text})", (names, symbols)
    if head == "Tensor":
        legs = [_ring_text(draw, field, depth - 1)[0] for _ in range(draw(st.integers(1, 3)))]
        over = draw(st.sampled_from(["", f"; {format_field(field)}"]))
        return f"Tensor({', '.join(legs)}{over})", None
    # a constructor over one base: those that read elements need a base
    # that has them
    base, scope = _ring_text(draw, field, depth - 1)
    head = draw(st.sampled_from(["Poly", "Frac"] + (list(parser._ELEMENT_NODES) if scope else [])))
    if head == "Frac":
        return f"Frac({base})", None
    if head == "Poly":
        taken = scope[1] if scope else []
        new = draw(st.lists(st.sampled_from([v for v in "pqvwxyz" if v not in taken]), min_size=1, max_size=2, unique=True))
        return f"Poly({base}; {','.join(new)})", scope and (scope[0], scope[1] + new)
    polys = [_polynomial_text(draw, *scope) for _ in range(1 if head == "Loc" else draw(st.integers(1, 2)))]
    return f"{head}({base}; {', '.join(polys)})", scope


@st.composite
def ring_texts(draw) -> str:
    """Ring expressions of the README grammar, to constructor depth 3."""
    return _ring_text(draw, draw(st.sampled_from(FIELDS)), 3)[0]


@settings(derandomize=True, max_examples=150)
@given(ring_texts())
def test_every_expression_that_parses_round_trips(text):
    try:
        expr = parse_ring_expr(text)
    except ParseError:
        return
    printed = format_ring_expr(expr)
    again = parse_ring_expr(printed)
    assert again == expr, text
    assert format_ring_expr(again) == printed, text


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_ring_expr("Q extra")
    with pytest.raises(ParseError):
        parse_ring_expr("Poly(Q; x))")
