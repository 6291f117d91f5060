from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from ringdim import (
    DimensionValue,
    EmptyRingError,
    GREVLEX,
    IdealPresentation,
    LEX,
    PolynomialRing,
    PrimeField,
    QQ,
    RationalFunctionField,
    ZeroDivisorStatus,
    dim_affine,
    evaluate,
    parse_ring_expr,
    trdeg_affine_domain,
    zero_divisor_status,
    eliminate,
)
from ringdim.ideals import rabinowitsch

from conftest import height, monomial, over_function_field, random_polynomial


# -- independent oracle, written against the raw monomial generators ----------

def monomial_ideal_dim_oracle(monomials: list[tuple[int, ...]], arity: int) -> int:
    """Brute force straight from the input monomials: the dimension of
    K[X]/(monomials) is the largest variable subset containing no
    generator's support."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monomials]
    best = 0
    for size in range(arity + 1):
        for subset in combinations(range(arity), size):
            u = set(subset)
            if all(not s <= u for s in supports):
                best = max(best, size)
    return best


def random_monomial_ideal(rng, ring, max_gens=6, max_degree=3):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exps = [0] * ring.arity
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randrange(ring.arity)] += 1
        gens.append(monomial(ring, exps))
    return gens


def test_dim_polynomial_rings():
    for n in range(7):
        ring = PolynomialRing(QQ, tuple(f"x{i}" for i in range(n)))
        A = IdealPresentation.zero_ideal(ring)
        assert dim_affine(A) == DimensionValue.exact(n)


def test_dim_fixture_set():
    rxyz = PolynomialRing(QQ, ("x", "y", "z"))
    x, y, z = (rxyz.variable(i) for i in range(3))
    assert dim_affine(IdealPresentation(rxyz, [x * z, y * z])).value == 2
    rxy = PolynomialRing(QQ, ("x", "y"))
    xx, yy = rxy.variable("x"), rxy.variable("y")
    assert dim_affine(IdealPresentation(rxy, [xx * yy - rxy.one()])).value == 1
    rab = PolynomialRing(QQ, ("a", "b"))
    a, b = rab.variable("a"), rab.variable("b")
    two = rab.from_int(2)
    assert dim_affine(IdealPresentation(rab, [a**2 - two, b**2 - two])).value == 0


def test_dim_empty_ring_is_distinct():
    rxy = PolynomialRing(QQ, ("x", "y"))
    A = IdealPresentation(rxy, [rxy.one()])
    assert dim_affine(A) == DimensionValue.empty_ring()


def test_dimension_values_print_as_documented():
    assert [str(v) for v in (
        DimensionValue.exact(1),
        DimensionValue.empty_ring(),
        DimensionValue.infinite(),
        DimensionValue.interval(2, 3),
    )] == ["1", "empty-ring", "inf", "[2, 3]"]


def test_readme_library_example_prints_what_it_shows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(snippet, {})
    shown = re.search(r"print\(result\.value\) +# (.+)", snippet).group(1)
    assert out.getvalue().splitlines() == [
        shown,
        "generic-fiber-kernel -- purely transcendental base extension preserves affine dimension",
        "tensor-upper-bound -- dim A[X_1..X_n] = dim A + n for Noetherian A (Matsumura, Thm 15.4)",
    ]
    assert shown == "1"


def test_dim_matches_monomial_oracle_random():
    rng = random.Random(99)
    ring = PolynomialRing(QQ, tuple(f"x{i}" for i in range(5)))
    for _ in range(60):
        gens = random_monomial_ideal(rng, ring)
        A = IdealPresentation(ring, gens)
        expected = monomial_ideal_dim_oracle([g.leading(GREVLEX)[0] for g in gens], ring.arity)
        assert dim_affine(A).value == expected


def test_dim_order_invariance():
    # grevlex bases come from the signature loop, lex bases from the
    # classic pair loop: the two share no completion code
    rng = random.Random(5)
    for field in (QQ, PrimeField(32003)):
        ring = PolynomialRing(field, ("x", "y", "z"))
        for _ in range(15):
            gens = [random_polynomial(rng, ring, nonzero=True) for _ in range(2)]
            A = IdealPresentation(ring, gens)
            assert dim_affine(A, order=GREVLEX) == dim_affine(A, order=LEX)


def dim_of(text: str) -> DimensionValue:
    return evaluate(parse_ring_expr(text)).value


def test_dim_poly_localization_examples():
    assert dim_of("Loc(Poly(Q; x,y); x*y)") == DimensionValue.exact(2)
    assert dim_of("Loc(Poly(Q; x); 1)") == DimensionValue.exact(1)
    assert dim_of("Loc(Poly(Q; x,y,z); x^2 + y^2 + z^2 + 1)") == DimensionValue.exact(3)
    assert dim_of("Loc(Poly(Q; x,y); 0)") == DimensionValue.empty_ring()


def test_rabinowitsch_presentation_shape():
    r1 = PolynomialRing(QQ, ("x",))
    A = IdealPresentation.zero_ideal(r1)
    loc = rabinowitsch(A, r1.variable("x"))
    assert loc.ring.variables == ("x", "Y")
    x, Y = loc.ring.variable(0), loc.ring.variable(1)
    assert loc.generators == (x * Y - loc.ring.one(),)
    # contraction consistency: eliminating Y recovers the zero ideal
    assert eliminate(loc, ["x"]).is_zero_ideal()


def test_rabinowitsch_of_an_element_of_the_ideal_is_the_unit_ideal():
    rxy = PolynomialRing(QQ, ("x", "y"))
    x, y = rxy.variable("x"), rxy.variable("y")
    A = IdealPresentation(rxy, [x * y])
    loc = rabinowitsch(A, x * y)
    assert loc.is_unit_ideal()
    assert dim_affine(loc) == DimensionValue.empty_ring()


def test_rabinowitsch_variable_avoids_coefficient_field_names():
    ring = PolynomialRing(RationalFunctionField(QQ, ("Y",)), ("x",))
    loc = rabinowitsch(IdealPresentation.zero_ideal(ring), ring.variable("x"))
    assert loc.ring.variables == ("x", "Y1")
    assert dim_affine(loc) == DimensionValue.exact(1)


def test_dim_localization_examples():
    assert dim_of("Quot(Poly(Q; x,y); x*y)") == DimensionValue.exact(1)
    assert dim_of("Loc(Quot(Poly(Q; x,y); x*y); x + y)") == DimensionValue.exact(1)  # non-zero-divisor
    assert dim_of("Loc(Quot(Poly(Q; x,y); x*y); x)") == DimensionValue.exact(1)  # zero-divisor: kernel value
    assert dim_of("Loc(Poly(Q; x); x)") == DimensionValue.exact(1)


def test_localizing_at_zero_inside_a_construction_gives_the_zero_ring():
    assert dim_of("Poly(Loc(Quot(Poly(Q;x); x); x); z)") == DimensionValue.empty_ring()
    assert dim_of("Tensor(Loc(Quot(Poly(Q;x); x); x), Poly(Q;y))") == DimensionValue.empty_ring()
    assert dim_of("Loc(Poly(FunField(Q; Y); x); x)") == DimensionValue.exact(1)


def test_zero_divisor_status():
    rxy = PolynomialRing(QQ, ("x", "y"))
    x, y = rxy.variable("x"), rxy.variable("y")
    A = IdealPresentation(rxy, [x * y])
    assert zero_divisor_status(A, x) is ZeroDivisorStatus.ZERO_DIVISOR
    assert zero_divisor_status(A, x + y) is ZeroDivisorStatus.NON_ZERO_DIVISOR
    assert zero_divisor_status(A, x * y) is ZeroDivisorStatus.ZERO_ELEMENT
    domain = IdealPresentation.zero_ideal(PolynomialRing(QQ, ("x",)))
    f = domain.ring.variable("x") + domain.ring.one()
    assert zero_divisor_status(domain, f) is ZeroDivisorStatus.NON_ZERO_DIVISOR


def test_localization_never_raises_dimension():
    rng = random.Random(31)
    ring = PolynomialRing(QQ, ("x", "y"))
    checked = 0
    while checked < 20:
        gens = [random_polynomial(rng, ring, nonzero=True)]
        A = IdealPresentation(ring, gens)
        f = random_polynomial(rng, ring, max_degree=2, nonzero=True)
        if A.is_unit_ideal() or A.contains(f):
            continue
        loc = dim_affine(rabinowitsch(A, f))
        if loc.kind == "empty":
            continue
        assert loc.value <= dim_affine(A).value
        checked += 1


def test_height_examples():
    rxy = PolynomialRing(QQ, ("x", "y"))
    assert height(IdealPresentation(rxy, [rxy.variable("x")])) == 1
    rxyz = PolynomialRing(QQ, ("x", "y", "z"))
    assert height(IdealPresentation(rxyz, [rxyz.variable("x"), rxyz.variable("y")])) == 2
    x, y = rxy.variable("x"), rxy.variable("y")
    assert height(IdealPresentation(rxy, [y**2 - x**3])) == 1
    with pytest.raises(EmptyRingError):
        height(IdealPresentation(rxy, [rxy.one()]))


def test_generic_fiber_examples():
    # Ext(Q; n) against affine legs: the generic fiber, whose dimension is
    # the affine legs' dimension
    for text, d in [
        ("Tensor(Ext(Q; 1), Poly(Q; y))", 1),
        ("Tensor(Ext(Q; 1), Quot(Poly(Q; x,y); x*y))", 1),
        ("Tensor(Ext(Q; 3), Quot(Poly(Q; x); x))", 0),
    ]:
        result = evaluate(parse_ring_expr(text))
        assert result.value == DimensionValue.exact(d), text
        assert "generic-fiber-kernel" in [t.rule for t in result.trace], text


def test_generic_fiber_preserves_dimension_randomized():
    # base-change invariance, which the generic-fiber rule cites: the
    # generators read over K(T1) give the dimension they give over K
    rng = random.Random(17)
    for field in (QQ, PrimeField(5)):
        ring = PolynomialRing(field, ("x", "y"))
        for _ in range(10):
            A = IdealPresentation(ring, [random_polynomial(rng, ring, nonzero=True) for _ in range(rng.randint(1, 2))])
            lifted = over_function_field(A, 1)
            assert lifted.ring.field == RationalFunctionField(field, ("T1",))
            assert dim_affine(lifted) == dim_affine(A), A.generators


def test_generic_fiber_merges_existing_function_field():
    # K(u) -> K(u, T1, T2): one merged layer, and the dimension stays put
    field = RationalFunctionField(QQ, ("u",))
    ring = PolynomialRing(field, ("x", "y"))
    x, y = ring.variable("x"), ring.variable("y")
    u, one = ring.constant(field.generator("u")), ring.one()
    for gens, d in [([], 2), ([u * x * y - one], 1), ([x**2 - u, y**2 - u * x], 0), ([x - u, x - u - one], None)]:
        A = IdealPresentation(ring, gens)
        lifted = over_function_field(A, 2)
        assert lifted.ring.field == RationalFunctionField(QQ, ("u", "T1", "T2"))
        expected = DimensionValue.empty_ring() if d is None else DimensionValue.exact(d)
        assert dim_affine(A) == dim_affine(lifted) == expected, gens


def test_trdeg_affine_domain_examples():
    rxy = PolynomialRing(QQ, ("x", "y"))
    x, y = rxy.variable("x"), rxy.variable("y")
    cusp = IdealPresentation(rxy, [y**2 - x**3])
    assert trdeg_affine_domain(cusp) == 1
    r4 = PolynomialRing(QQ, tuple(f"x{i}" for i in range(4)))
    assert trdeg_affine_domain(IdealPresentation.zero_ideal(r4)) == 4
    r1 = PolynomialRing(QQ, ("x",))
    quad = IdealPresentation(r1, [r1.variable("x") ** 2 - r1.from_int(2)])
    assert trdeg_affine_domain(quad) == 0
    with pytest.raises(EmptyRingError):
        trdeg_affine_domain(IdealPresentation(r1, [r1.one()]))


def test_interval_collapses_and_validates():
    assert DimensionValue.interval(2, 2) == DimensionValue.exact(2)
    with pytest.raises(ValueError):
        DimensionValue.interval(3, 1)


def test_dimension_value_is_a_frozen_record():
    value = DimensionValue.interval(1, 3)
    assert repr(value) == "DimensionValue(kind='interval', lo=1, hi=3)"
    assert DimensionValue.empty_ring() == DimensionValue("empty", None, None)
    assert hash(value) == hash(DimensionValue("interval", 1, 3))
    with pytest.raises(AttributeError):
        value.hi = 4
