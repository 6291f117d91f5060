from __future__ import annotations

import json
from itertools import permutations, product
from pathlib import Path

import pytest

from ringdim import (
    INF,
    BaseField,
    DimensionValue,
    FieldExt,
    InconsistentBoundsError,
    LocElement,
    ParseError,
    PolyExt,
    PolynomialRing,
    PrimeField,
    QQ,
    Quotient,
    RingMismatchError,
    Tensor,
    evaluate,
    field_tensor_dimension,
    flatten_affine,
    integral_extension_rule,
    parse_ring_expr,
)
from ringdim import cli
from ringdim.calculus import (
    CITATIONS,
    RULE_DOMAIN_TRDEG,
    RULE_EMPTY,
    RULE_FFLAT,
    RULE_FIBER,
    RULE_FIELD,
    RULE_FRAC,
    RULE_INTEGRAL,
    RULE_KERNEL,
    RULE_LOC_KERNEL,
    RULE_LOC_NZD,
    RULE_LOC_POLY,
    RULE_LOC_UB,
    RULE_LOC_ZERO,
    RULE_POLY_EXT,
    RULE_QUOT_UB,
    RULE_TENSOR_EQ,
    RULE_TENSOR_INF,
    RULE_TENSOR_LB,
    RULE_TENSOR_UB,
    RULE_TENSOR_UNIT,
    RULE_TRDEG_SUM,
    RULE_UNIT_LOC,
    DimensionResult,
    TraceEntry,
    _Claims,
    contained_subfield_trdeg,
    noetherian_flag,
)


def rules_of(result):
    return [t.rule for t in result.trace]


# -- expression and result records ---------------------------------------------

def test_records_take_keywords_and_defaults():
    entry = TraceEntry(rule="r", citation="c")
    assert entry.detail == "" and entry == TraceEntry("r", "c", "")
    assert repr(entry) == "TraceEntry(rule='r', citation='c', detail='')"
    with pytest.raises(TypeError):
        TraceEntry("r")
    with pytest.raises(TypeError):
        TraceEntry("r", "c", detail="d", note="n")
    assert FieldExt(QQ, 0) == FieldExt(over=QQ, trdeg=0, basis_names=(), algebraic_part=())


def test_expression_records_are_frozen_and_results_mutable():
    quotient = Quotient(BaseField(QQ), ())
    assert quotient == Quotient(BaseField(QQ), ()) and hash(quotient) == hash(Quotient(BaseField(QQ), ()))
    with pytest.raises(AttributeError):
        quotient.relations = ()
    with pytest.raises(AttributeError):
        TraceEntry("r", "c").detail = "d"
    result = DimensionResult(DimensionValue.exact(1), ())
    with pytest.raises(TypeError):
        hash(result)
    result.cross_checks = (("name", "detail"),)
    assert result == DimensionResult(DimensionValue.exact(1), (), None, (("name", "detail"),))


def test_field_extension_rejects_a_negative_trdeg():
    with pytest.raises(ValueError, match="negative transcendence degree"):
        FieldExt(QQ, -1)


# -- the tensor trdeg formula -------------------------------------------------

def test_formula_spot_values():
    assert field_tensor_dimension([1, 1]) == DimensionValue.exact(1)
    assert field_tensor_dimension([1, 2, 4]) == DimensionValue.exact(3)
    assert field_tensor_dimension([2, INF]) == DimensionValue.exact(2)
    assert field_tensor_dimension([INF, INF]) == DimensionValue.infinite()


def test_formula_degenerate_cases():
    assert field_tensor_dimension([5]) == DimensionValue.exact(0)
    assert field_tensor_dimension([INF]) == DimensionValue.exact(0)
    assert field_tensor_dimension([0, 0, 0]) == DimensionValue.exact(0)
    assert field_tensor_dimension([0, 3]) == DimensionValue.exact(0)
    with pytest.raises(ValueError):
        field_tensor_dimension([])


def test_formula_permutation_invariance_exhaustive():
    values = [0, 1, 2, 3, INF]
    for n in (2, 3, 4):
        for combo in product(values, repeat=n):
            base = field_tensor_dimension(list(combo))
            for perm in permutations(combo):
                assert field_tensor_dimension(list(perm)) == base


def test_trdeg_of(capsys):
    # the trdeg verb reads the declared degree; the algebraic part contributes nothing
    assert cli.main(["trdeg", "Ext(Q; 1; a^2 - 2)"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["trdeg"] == 1


# -- evaluate on closed shapes ---------------------------------------------------

def test_evaluate_field_tensor():
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 1), Ext(Q; 1))"))
    assert r.value == DimensionValue.exact(1)
    assert RULE_TRDEG_SUM in rules_of(r)


def test_evaluate_infinite_tensor():
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; inf), Ext(Q; inf))"))
    assert r.value == DimensionValue.infinite()
    assert RULE_TENSOR_INF in rules_of(r)


def test_evaluate_infinite_algebra_leg():
    # the countable case with an algebra leg that merely contains the family
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; inf), Poly(Ext(Q; inf); y))"))
    assert r.value == DimensionValue.infinite()
    assert RULE_TENSOR_INF in rules_of(r)


def test_evaluate_generic_fiber_with_recorded_upper_bound():
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 1), Quot(Poly(Q; x,y); x*y))"))
    assert r.value == DimensionValue.exact(1)
    assert RULE_FIBER in rules_of(r)
    assert RULE_TENSOR_UB in rules_of(r)
    assert RULE_TENSOR_EQ not in rules_of(r)


def test_tensor_is_commutative_on_the_golden_inputs():
    # reversing the legs of every pinned dim "Tensor(...)" input keeps the
    # value; with the Ext leg last the generic-fiber branch still applies
    rows = json.loads((Path(__file__).resolve().parent / "golden_reports.json").read_text(encoding="utf-8"))
    checked = fibers = 0
    for row in rows:
        command, text = row["argv"][:2]
        if command != "dim":
            continue
        try:
            expr = parse_ring_expr(text)
        except ParseError:
            continue
        if not isinstance(expr, Tensor) or len(expr.legs) < 2:
            continue
        flipped = evaluate(Tensor(expr.legs[::-1], expr.over))
        assert flipped.value == evaluate(expr).value, text
        checked += 1
        fibers += RULE_FIBER in rules_of(flipped)
    assert checked >= 38
    assert fibers >= 4


def test_evaluate_guard_rejects_equality_without_subfield():
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 1), Poly(Q; y))"))
    assert r.value == DimensionValue.exact(1)  # not 2
    assert RULE_TENSOR_EQ not in rules_of(r)


def test_evaluate_tensor_equality_with_subfield():
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 1), Poly(FunField(Q; u); y))"))
    assert r.value == DimensionValue.exact(2)
    rules = rules_of(r)
    assert RULE_TENSOR_EQ in rules and RULE_TENSOR_LB in rules and RULE_TENSOR_UB in rules


def test_evaluate_tensor_equality_field_case():
    # two transcendentals against a trdeg-3 field: the formula and the
    # equality rule describe the same ring
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 2), Ext(Q; 3))"))
    assert r.value == DimensionValue.exact(2)


def test_evaluate_interval_when_subfield_too_small():
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 2), Poly(FunField(Q; u); y))"))
    assert r.value == DimensionValue.interval(2, 3)
    rules = rules_of(r)
    assert RULE_TENSOR_LB in rules and RULE_TENSOR_UB in rules


def test_evaluate_localization_shapes():
    r = evaluate(parse_ring_expr("Loc(Poly(Q; x,y); x^2 + y^2)"))
    assert r.value == DimensionValue.exact(2)
    assert RULE_LOC_POLY in rules_of(r) and RULE_KERNEL in rules_of(r)

    r = evaluate(parse_ring_expr("Loc(Quot(Poly(Q; x,y); x*y); x + y)"))
    assert r.value == DimensionValue.exact(1)
    assert RULE_LOC_NZD in rules_of(r)

    r = evaluate(parse_ring_expr("Loc(Quot(Poly(Q; x,y); x*y); x)"))
    assert r.value == DimensionValue.exact(1)  # zero divisor: kernel only
    assert RULE_LOC_NZD not in rules_of(r)

    r = evaluate(parse_ring_expr("Loc(Quot(Poly(Q; x,y); x*y); x*y)"))
    assert r.value == DimensionValue.empty_ring()


def test_evaluate_quotients_and_fields():
    assert evaluate(parse_ring_expr("Q")).value == DimensionValue.exact(0)
    assert evaluate(parse_ring_expr("Ext(Q; inf)")).value == DimensionValue.exact(0)
    assert evaluate(parse_ring_expr("Quot(Poly(Q; x,y); y^2 - x^3)")).value == DimensionValue.exact(1)
    assert evaluate(parse_ring_expr("Quot(Poly(Q; x); x^2 - 2)")).value == DimensionValue.exact(0)
    assert evaluate(parse_ring_expr("Quot(Poly(Q; x); 1)")).value == DimensionValue.empty_ring()


def test_evaluate_poly_over_infinite_extension_gives_lower_bound_only():
    # an infinite-trdeg extension is deliberately not Noetherian-flagged, so
    # the polynomial layer adds to the lower bound but pins no upper bound
    r = evaluate(parse_ring_expr("Poly(Ext(Q; inf); y)"))
    assert r.value.kind == "interval"
    assert r.value.lo == 1


def test_evaluate_locsub_units():
    r = evaluate(parse_ring_expr("LocSub(Poly(FunField(Q; u); y); u)"))
    assert r.value == DimensionValue.exact(1)
    assert RULE_UNIT_LOC in rules_of(r)


def test_evaluate_locsub_nonunits_bounds():
    r = evaluate(parse_ring_expr("LocSub(Poly(Q; u, y); u)"))
    assert r.value.kind == "interval"
    assert r.value.lo == 0 and r.value.hi == 2


def test_evaluate_frac_field():
    assert evaluate(parse_ring_expr("Frac(Poly(Q; x, y))")).value == DimensionValue.exact(0)
    r = evaluate(parse_ring_expr("Frac(Quot(Poly(Q; x,y); x*y))"))
    assert r.value.kind == "interval"  # not certified a domain: honest bounds


def test_evaluate_deterministic_traces():
    text = "Tensor(Ext(Q; 1), Quot(Poly(Q; x,y); x*y))"
    a = evaluate(parse_ring_expr(text))
    b = evaluate(parse_ring_expr(text))
    assert [(t.rule, t.citation, t.detail) for t in a.trace] == [
        (t.rule, t.citation, t.detail) for t in b.trace
    ]
    assert a.value == b.value


# -- flattening ----------------------------------------------------------------

@pytest.mark.parametrize(
    "algebra, f, g",
    [
        ("Poly(Q; x,y)", "x", "y"),
        ("Poly(Q; x,y)", "x", "x*y - 1"),
        ("Quot(Poly(Q; x,y,z); x*y)", "x", "z"),
        ("Quot(Poly(Q; x,y); x^2)", "x", "y"),
        ("Poly(FunField(Fp(5); t); x,y)", "x + t", "x*y - t"),
        ("Loc(Poly(Q; x,y); y)", "x", "x - y^2"),
    ],
)
def test_localization_commutes_with_quotient(algebra, f, g):
    # inverting f and dividing by g give the same ring in either order
    left = evaluate(parse_ring_expr(f"Quot(Loc({algebra}; {f}); {g})"))
    right = evaluate(parse_ring_expr(f"Loc(Quot({algebra}; {g}); {f})"))
    assert left.value == right.value


@pytest.mark.parametrize(
    "algebra, f, g, value",
    [
        ("Quot(Poly(Q; x,y,z); x*y - z^2)", "x", "y", DimensionValue.exact(2)),
        ("Poly(Fp(7); x,y)", "x", "x + 1", DimensionValue.exact(2)),
        ("Quot(Poly(Q; x,y); x*y)", "x + y", "x", DimensionValue.exact(1)),
        ("Quot(Poly(Q; x,y); x*y)", "x", "y", DimensionValue.empty_ring()),
        ("Poly(FunField(Fp(5); t); x,y)", "x + t", "x*y - t", DimensionValue.exact(2)),
    ],
)
def test_localizing_twice_is_localizing_at_the_product(algebra, f, g, value):
    # inverting f and then g inverts f*g: one Rabinowitsch variable or two
    twice = evaluate(parse_ring_expr(f"Loc(Loc({algebra}; {f}); {g})"))
    once = evaluate(parse_ring_expr(f"Loc({algebra}; ({f})*({g}))"))
    assert twice.value == once.value == value


def test_flatten_lists_rabinowitsch_variables_last():
    flat = flatten_affine(parse_ring_expr("Tensor(Loc(Poly(Q; x); x), Poly(Q; y), Loc(Poly(Q; z); z))"))
    assert flat.ring.variables == ("x", "y", "z", "Y", "Y1")
    assert [str(g) for g in flat.generators] == ["x*Y - 1", "z*Y1 - 1"]


def test_flatten_refuses_an_element_outside_the_parsed_ring():
    # a hand-built tree can carry a polynomial the parser would never read
    # there; it is refused, not read by position in another field
    y = PolynomialRing(QQ, ("y",)).variable("y")
    base = PolyExt(BaseField(PrimeField(5)), ("x",))
    for expr in (Quotient(base, (y,)), LocElement(base, y)):
        with pytest.raises(RingMismatchError):
            evaluate(expr)


def _tensor_flat(*legs):
    return flatten_affine(Tensor(tuple(map(parse_ring_expr, legs)), QQ))


def test_tensor_flatten_polynomial_rings():
    combined = _tensor_flat("Poly(Q; x)", "Poly(Q; y)")
    assert combined.ring.variables == ("x", "y")
    assert combined.is_zero_ideal()


def test_tensor_flatten_renames_collisions():
    combined = _tensor_flat("Poly(Q; x)", "Poly(Q; x)")
    assert combined.ring.variables == ("x", "x1")
    # the renamed x must not take the name of the second leg's own x1
    assert _tensor_flat("Poly(Q; x)", "Poly(Q; x, x1)").ring.variables == ("x", "x2", "x1")


def test_tensor_flatten_field_mismatch():
    # a leg over a larger field has no presentation over the tensor's base
    assert _tensor_flat("Poly(Q; x)", "Poly(FunField(Q; t); y)") is None


def test_tensor_of_quadratic_extensions_dimension_zero():
    r = evaluate(parse_ring_expr("Tensor(Quot(Poly(Q; a); a^2-2), Quot(Poly(Q; b); b^2-2))"))
    assert r.value == DimensionValue.exact(0)
    assert RULE_KERNEL in rules_of(r)


def test_tensor_with_base_field_is_identity():
    r = evaluate(parse_ring_expr("Tensor(Quot(Poly(Q; x,y); x*y), Q)"))
    assert r.value == DimensionValue.exact(1)


# -- every cited rule, reached through evaluate -------------------------------------

EXACT = DimensionValue.exact
RULE_CASES = [
    ("Q", EXACT(0), [RULE_FIELD]),
    ("Tensor(Ext(Q; 0; a^2 - 2), Q)", EXACT(0), [RULE_INTEGRAL, RULE_TRDEG_SUM, RULE_KERNEL]),
    ("Tensor(Ext(Q; inf), Ext(Q; inf))", DimensionValue.infinite(), [RULE_TENSOR_INF, RULE_FFLAT]),
    (
        "Tensor(Ext(Q; 1), Poly(FunField(Q; u); y))",
        EXACT(2),
        [RULE_TENSOR_LB, RULE_UNIT_LOC, RULE_TENSOR_UB, RULE_TENSOR_EQ],
    ),
    (
        "Tensor(Ext(Q; 1; a^2 - s1), Quot(Poly(Q; x,y); x*y))",
        EXACT(1),
        [RULE_INTEGRAL, RULE_FIBER, RULE_TENSOR_UB],
    ),
    # no field leg helps: the free-module fallback
    ("Tensor(Ext(Q; inf), Poly(Q; y))", DimensionValue.interval(1, INF), [RULE_FFLAT]),
    ("Tensor(Poly(Q; x))", EXACT(1), [RULE_TENSOR_UNIT]),
    ("Poly(Ext(Q; inf); y)", DimensionValue.interval(1, INF), [RULE_POLY_EXT]),
    ("Quot(Poly(Ext(Q; inf); y); y^2 - 2)", DimensionValue.interval(0, INF), [RULE_QUOT_UB]),
    ("Loc(Poly(Q; x,y); x^2 + y^2)", EXACT(2), [RULE_LOC_POLY, RULE_KERNEL]),
    ("Loc(Quot(Poly(Q; x,y); x*y); x + y)", EXACT(1), [RULE_LOC_NZD, RULE_KERNEL]),
    ("Loc(Quot(Poly(Q; x,y); x*y); x)", EXACT(1), [RULE_LOC_KERNEL]),
    ("Loc(Quot(Poly(Q; x,y); x*y); x*y)", DimensionValue.empty_ring(), [RULE_LOC_ZERO]),
    ("Quot(Poly(Q; x); 1)", DimensionValue.empty_ring(), [RULE_EMPTY]),
    ("LocSub(Poly(Q; u, y); u)", DimensionValue.interval(0, 2), [RULE_LOC_UB]),
    ("Frac(Poly(Q; x, y))", EXACT(0), [RULE_FRAC]),
]


@pytest.mark.parametrize("text, value, rules", RULE_CASES, ids=[case[0] for case in RULE_CASES])
def test_evaluate_rule_paths(text, value, rules):
    r = evaluate(parse_ring_expr(text))
    assert r.value == value
    assert set(rules) <= set(rules_of(r))


def test_rule_cases_reach_every_cited_rule(capsys):
    reached = {rule for _, _, rules in RULE_CASES for rule in rules}
    # the trdeg verb applies the affine-domain rule outside evaluate
    cli.main(["trdeg", "Poly(Q; x)"])
    reached |= {e["rule"] for e in json.loads(capsys.readouterr().out)["trace"]}
    assert RULE_DOMAIN_TRDEG in reached
    assert reached == set(CITATIONS)


# Branches of a rule that only an expression without an affine presentation
# reaches, each pinned by the trace entries it ends with.
BRANCH_CASES = [
    # a Noetherian-flagged base with a finite upper bound bounds Poly(.) above
    (
        "Poly(Tensor(Ext(Q; 2), Poly(FunField(Q; u); y)); z)",
        DimensionValue.interval(3, 4),
        [(RULE_POLY_EXT, "chains extend by 1 across the new variables"), (RULE_POLY_EXT, "Noetherian-flagged base")],
    ),
    # localizing at an element of a base with no presentation
    ("Loc(Poly(Ext(Q; inf); x); x)", DimensionValue.interval(0, INF), [(RULE_LOC_UB, "")]),
    # a unit localization copies both ends of an interval
    ("LocSub(Poly(Ext(Q; inf); x); 2)", DimensionValue.interval(1, INF), [(RULE_UNIT_LOC, ""), (RULE_UNIT_LOC, "")]),
    # structurally a domain through Loc, LocSub and Frac
    ("Frac(Loc(Poly(Q; x); x))", EXACT(0), [(RULE_FRAC, "base is structurally a domain")]),
    ("Frac(LocSub(Poly(FunField(Q; u); y); u))", EXACT(0), [(RULE_FRAC, "base is structurally a domain")]),
    ("Frac(Frac(Poly(Q; x)))", EXACT(0), [(RULE_FRAC, "base is structurally a domain")]),
]


@pytest.mark.parametrize("text, value, tail", BRANCH_CASES, ids=[case[0] for case in BRANCH_CASES])
def test_evaluate_rule_branches(text, value, tail):
    r = evaluate(parse_ring_expr(text))
    assert r.value == value
    assert [(e.rule, e.detail) for e in r.trace][-len(tail):] == tail


# -- hypotheses of the tensor rules ------------------------------------------------

def test_tensor_upper_bound_needs_noetherian_flag():
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 1), Quot(Poly(Q; x,y); x*y))"))
    assert [(e.rule, e.detail) for e in r.trace if e.rule == RULE_TENSOR_UB] == [
        (RULE_TENSOR_UB, "dim A + n <= 2")
    ]
    # an infinite-trdeg algebra leg is not Noetherian-flagged: no upper bound
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 1), Poly(Ext(Q; inf); y))"))
    assert r.value == DimensionValue.interval(1, INF)
    assert RULE_TENSOR_UB not in rules_of(r)


def test_integral_extension_rule():
    claims = _Claims()
    integral_extension_rule(claims, parse_ring_expr("Ext(Q; 1; a^2 - 2)"))
    assert rules_of(claims) == [RULE_INTEGRAL]
    for text in ("Ext(Q; 1)", "Q", "Quot(Poly(Q; a); a^2 - 2)"):
        claims = _Claims()
        integral_extension_rule(claims, parse_ring_expr(text))
        assert claims.trace == []


def test_integral_extension_in_tensor_evaluation():
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 1; a^2 - 2), Ext(Q; 1))"))
    assert r.value == DimensionValue.exact(1)
    assert "integral-extension" in rules_of(r)


def test_faithfully_flat_shapes():
    # enlarging the transcendental leg beyond the witnesses keeps the bound
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 2), Poly(FunField(Q; u); y))"))
    assert RULE_FFLAT in rules_of(r)
    # enough witnesses: no enlargement to justify
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 1), Poly(FunField(Q; u); y))"))
    assert RULE_FFLAT not in rules_of(r)


def test_noetherian_flagging():
    assert noetherian_flag(parse_ring_expr("Quot(Poly(Q; x,y); x*y)"))
    assert noetherian_flag(parse_ring_expr("Loc(Poly(Q; x); x)"))
    assert not noetherian_flag(parse_ring_expr("Ext(Q; inf)"))
    assert not noetherian_flag(parse_ring_expr("Tensor(Ext(Q; inf), Ext(Q; 1))"))


def test_contained_subfield_trdeg():
    assert contained_subfield_trdeg(parse_ring_expr("Poly(FunField(Q; u); y)"), QQ) == 1
    assert contained_subfield_trdeg(parse_ring_expr("Poly(Q; y)"), QQ) == 0
    assert contained_subfield_trdeg(parse_ring_expr("Ext(Q; inf)"), QQ) == INF
    assert (
        contained_subfield_trdeg(parse_ring_expr("Quot(Poly(FunField(Q; u,v); y); y^2 - 2)"), QQ)
        == 2
    )


def test_claims_detect_contradictions():
    claims = _Claims()
    claims.exactly(1, RULE_KERNEL)
    with pytest.raises(InconsistentBoundsError):
        claims.exactly(2, RULE_TRDEG_SUM)
    claims2 = _Claims()
    claims2.lower(3, RULE_TENSOR_LB)
    claims2.upper(2, RULE_TENSOR_UB)
    with pytest.raises(InconsistentBoundsError):
        claims2.finish()


def test_claims_record_upper_bound_check_in_either_order():
    expected = (("upper-bound-consistent", f"{RULE_KERNEL} within {RULE_TENSOR_UB}"),)
    exact_first = _Claims()
    exact_first.exactly(1, RULE_KERNEL)
    exact_first.upper(2, RULE_TENSOR_UB)
    upper_first = _Claims()
    upper_first.upper(2, RULE_TENSOR_UB)
    upper_first.exactly(1, RULE_KERNEL)
    assert exact_first.finish().cross_checks == upper_first.finish().cross_checks == expected
    bounds_only = _Claims()
    bounds_only.lower(1, RULE_TENSOR_LB)
    bounds_only.upper(2, RULE_TENSOR_UB)
    assert bounds_only.finish().cross_checks == ()


def test_tensor_infinite_applicability():
    # the countable rule needs two infinite families, one per factor
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; inf), Ext(Q; 3))"))
    assert r.value == DimensionValue.exact(3)
    assert RULE_TENSOR_INF not in rules_of(r)
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; inf), Poly(Q; y))"))
    assert RULE_TENSOR_INF not in rules_of(r)


def test_symbolic_zero_ring_is_not_infinite():
    # a visibly-unit relation over a symbolic base must yield the empty
    # ring, not trip the countable-family rule through its dead subfield
    expr = parse_ring_expr("Tensor(Ext(Q; inf), Quot(Poly(Ext(Q; inf); y); 2))")
    assert evaluate(expr).value == DimensionValue.empty_ring()
    alone = parse_ring_expr("Quot(Poly(Ext(Q; inf); y); 2)")
    assert evaluate(alone).value == DimensionValue.empty_ring()


def test_faithfully_flat_infinite_enlargement():
    # a factor that is itself infinite-dimensional makes the whole tensor so
    r = evaluate(parse_ring_expr("Tensor(Tensor(Ext(Q; inf), Ext(Q; inf)), Poly(Q; y))"))
    assert r.value == DimensionValue.infinite()
    assert rules_of(r) == [RULE_FFLAT]


def test_tensor_equality_rule_function():
    # the chain bound meets the Noetherian upper bound once the algebra leg
    # contains a subfield of trdeg >= n
    r = evaluate(parse_ring_expr("Tensor(Ext(Q; 1), Poly(FunField(Q; u,v); y))"))
    assert r.value == DimensionValue.exact(2)
    assert RULE_TENSOR_EQ in rules_of(r)
    for text in (
        "Tensor(Ext(Q; 2), Poly(FunField(Q; u); y))",  # subfield too small
        "Tensor(Ext(Q; 1), Poly(Ext(Q; inf); y))",  # not Noetherian-flagged
        "Tensor(Ext(Q; 1), LocSub(Poly(Q; u, y); u))",  # algebra leg only bounded
    ):
        assert RULE_TENSOR_EQ not in rules_of(evaluate(parse_ring_expr(text))), text


def test_evaluate_prime_field_tensors():
    r = evaluate(parse_ring_expr("Tensor(Ext(Fp(5); 1), Ext(Fp(5); 1))"))
    assert r.value == DimensionValue.exact(1)
    r = evaluate(parse_ring_expr("Tensor(Quot(Poly(Fp(5); a); a^2-2), Quot(Poly(Fp(5); b); b^2-2))"))
    assert r.value == DimensionValue.exact(0)


def test_evaluate_mixed_algebraic_and_funfield_quotient():
    # Q(s1)(a) tensor (Q(u)[y]/(y^2 - u)) over Q: both legs have trdeg 1,
    # so the answer is 1 whichever route proves it
    text = "Tensor(Ext(Q; 1; a^2 - s1), Quot(Poly(FunField(Q; u); y); y^2 - u))"
    r = evaluate(parse_ring_expr(text))
    assert r.value == DimensionValue.exact(1)
    assert "integral-extension" in rules_of(r)


def test_evaluate_empty_funfield_quotient_leg():
    text = "Tensor(Ext(Q; 1), Quot(Poly(FunField(Q; u); y); y^2 - u, y^2 - u - 1))"
    r = evaluate(parse_ring_expr(text))
    assert r.value == DimensionValue.empty_ring()
