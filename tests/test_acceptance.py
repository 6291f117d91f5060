"""Acceptance suite: one test per criterion, exact equality throughout,
one PASS/FAIL line printed per criterion (run with `pytest -s` to see them).

Expected values come from independent oracles computed inside this module
(brute-force subset scans, direct formula restatements, substitution
checks), never from the code paths under test.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import jsonschema

from ringdim import (
    INF,
    BaseField,
    DimensionValue,
    IdealPresentation,
    LocElement,
    PolyExt,
    PolynomialRing,
    PrimalityCertificate,
    PrimeField,
    QQ,
    Quotient,
    build_chain,
    certified_lower_bound,
    dim_affine,
    evaluate,
    field_tensor_dimension,
    flatten_affine,
    parse_ring_expr,
    verify_chain,
    verify_substitution_transfer,
    zero_divisor_status,
    ZeroDivisorStatus,
)
from ringdim import cli
from ringdim.calculus import RULE_TENSOR_EQ, RULE_TENSOR_INF
from ringdim.chains import ChainCertificate
from ringdim.orderings import GREVLEX

from conftest import height, monomial, over_function_field, random_polynomial


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


# -- 1. tensor formula over all small trdeg multisets ---------------------------

def formula_oracle(values):
    """Independent restatement: infinite when two factors are infinite,
    otherwise the sum after removing one largest value."""
    infinite_count = sum(1 for v in values if v == INF)
    if infinite_count >= 2:
        return DimensionValue.infinite()
    finite = [v for v in values if v != INF]
    if infinite_count == 1:
        return DimensionValue.exact(sum(finite))  # the infinite factor is the largest
    return DimensionValue.exact(sum(finite) - max(finite))


def test_criterion_1_tensor_formula_suite():
    with criterion(1, "tensor trdeg formula"):
        values = [0, 1, 2, 3, INF]
        multisets = [
            m for size in (2, 3, 4) for m in combinations_with_replacement(values, size)
        ]
        assert len(multisets) >= 65
        for multiset in multisets:
            expected = formula_oracle(multiset)
            assert field_tensor_dimension(list(multiset)) == expected
            for perm in set(permutations(multiset)):
                assert field_tensor_dimension(list(perm)) == expected
        assert field_tensor_dimension([1, 1]) == DimensionValue.exact(1)
        assert field_tensor_dimension([1, 2, 4]) == DimensionValue.exact(3)
        assert field_tensor_dimension([2, INF]) == DimensionValue.exact(2)
        assert field_tensor_dimension([INF, INF]) == DimensionValue.infinite()


# -- 2. localized polynomial rings keep their dimension --------------------------

def _localization(ring, relations, f) -> LocElement:
    """A[1/f] for A = K[ring]/(relations), as a ring expression."""
    base = PolyExt(BaseField(ring.field), ring.variables)
    return LocElement(Quotient(base, tuple(relations)) if relations else base, f)


def test_criterion_2_polynomial_localization_suite():
    with criterion(2, "polynomial-ring localization dimension"):
        rng = random.Random(26_08_01)
        for trial in range(200):
            field = QQ if trial < 100 else PrimeField(5)
            n = 1 + trial % 3
            ring = PolynomialRing(field, tuple("xyz"[:n]))
            f = random_polynomial(rng, ring, max_degree=4, max_terms=4, nonzero=True)
            loc = evaluate(_localization(ring, (), f))
            assert loc.value == DimensionValue.exact(n), (field, f)
            assert dim_affine(loc.flattened) == DimensionValue.exact(n), (field, f)


# -- 3. inverting a non-zero-divisor preserves affine dimension -------------------

def _random_affine_instances(rng, wanted: int):
    found = 0
    while found < wanted:
        field = QQ if rng.random() < 0.5 else PrimeField(5)
        n = rng.randint(1, 3)
        ring = PolynomialRing(field, tuple("xyz"[:n]))
        gens = [
            random_polynomial(rng, ring, max_degree=3, max_terms=3, nonzero=True)
            for _ in range(rng.randint(1, 2))
        ]
        algebra = IdealPresentation(ring, gens)
        f = random_polynomial(rng, ring, max_degree=2, max_terms=2, nonzero=True)
        if algebra.is_unit_ideal() or algebra.contains(f):
            continue
        if zero_divisor_status(algebra, f) is not ZeroDivisorStatus.NON_ZERO_DIVISOR:
            continue
        found += 1
        yield algebra, f


def _prime_instances(rng, wanted: int):
    """Certificate-backed primes of K[x, y, z]: coordinate subspaces and
    graphs x_i - q(later variables), all verified substitution transfers."""
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    x, y, z = (ring.variable(i) for i in range(3))
    produced = 0
    while produced < wanted:
        shape = rng.randrange(3)
        if shape == 0:
            gens, subs = [x], [(0, ring.zero())]
        elif shape == 1:
            gens, subs = [x, y], [(0, ring.zero()), (1, ring.zero())]
        else:
            q = random_polynomial(rng, ring, max_degree=2, max_terms=2)
            q = q.substitute({0: ring.zero()})  # q uses only y, z
            gens, subs = [x - q], [(0, q)]
        prime = IdealPresentation(ring, gens)
        cert = PrimalityCertificate(
            "substitution-transfer",
            base_prime=IdealPresentation.zero_ideal(ring),
            substitutions=tuple(subs),
        )
        assert verify_substitution_transfer(cert, prime)
        f = random_polynomial(rng, ring, max_degree=2, max_terms=2, nonzero=True)
        if prime.contains(f):
            continue
        produced += 1
        yield prime, cert, f


def test_criterion_3_nzd_localization_suite():
    with criterion(3, "non-zero-divisor localization"):
        rng = random.Random(26_08_02)
        for algebra, f in _random_affine_instances(rng, 100):
            loc = evaluate(_localization(algebra.ring, algebra.generators, f))
            assert loc.value == dim_affine(algebra), (algebra, f)
            assert dim_affine(loc.flattened) == dim_affine(algebra), (algebra, f)
        for prime, _, f in _prime_instances(rng, 20):
            ring = prime.ring
            ext = ring.extend(("Yloc",))
            y_loc = ext.variable(ring.arity)
            gens = [g.map_to(ext) for g in prime.generators]
            gens.append(f.map_to(ext) * y_loc - ext.one())
            extended = IdealPresentation(ext, gens)
            assert height(extended) == height(prime) + 1, (
                prime,
                f,
            )


# -- 4. the transcendental-tensor equality and its hypothesis guard ---------------

def test_criterion_4_tensor_equality_cross_check():
    with criterion(4, "tensor equality over detected subfields"):
        bases = {1: "FunField(Q; u)", 2: "FunField(Q; u,v)"}
        algebra_shapes = [
            "Poly({base}; y)",
            "Quot(Poly({base}; y); y^2 - 2)",
            "Poly({base}; y,z)",
            "Quot(Poly({base}; y,z); y*z)",
        ]
        for m, base in bases.items():
            for shape in algebra_shapes:
                a_text = shape.format(base=base)
                a_expr = parse_ring_expr(a_text)
                flat = flatten_affine(a_expr)
                d = dim_affine(flat).value
                assert d <= 2
                for n in range(1, m + 1):
                    tensor = parse_ring_expr(f"Tensor(Ext(Q; {n}), {a_text}; Q)")
                    result = evaluate(tensor)
                    assert result.value == DimensionValue.exact(n + d), (a_text, n)
                    assert RULE_TENSOR_EQ in [t.rule for t in result.trace]
                    # kernel cross-check: extending the base by fresh
                    # transcendentals leaves the affine dimension alone
                    assert dim_affine(over_function_field(flat, n)) == DimensionValue.exact(d)
        guard = evaluate(parse_ring_expr("Tensor(Ext(Q; 1), Poly(Q; y))"))
        assert guard.value == DimensionValue.exact(1)  # the generic fiber, not 2
        assert RULE_TENSOR_EQ not in [t.rule for t in guard.trace]


# -- 5. chain certificates and their mutation detection ----------------------------

def _standard_chain(k: int) -> ChainCertificate:
    ring = PolynomialRing(QQ, tuple(f"u{i+1}" for i in range(k)))
    algebra = IdealPresentation.zero_ideal(ring)
    witnesses = [ring.variable(i) for i in range(k)]
    fresh = [f"X{i+1}" for i in range(k)]
    return build_chain(algebra, witnesses, fresh)


def _corrupt(cert: ChainCertificate, mode: int) -> ChainCertificate:
    ring = cert.ring
    top = cert.links[-1]
    if mode == 0:  # drop a generator from the top link
        new_top = IdealPresentation(ring, top.generators[:-1])
    elif mode == 1:  # swap the last witness for a constant of K
        idx = ring.arity - 1
        gens = list(top.generators)[:-1] + [ring.variable(idx) - ring.from_int(1)]
        new_top = IdealPresentation(ring, gens)
    else:  # duplicate the previous link
        new_top = cert.links[-2]
    return ChainCertificate(
        ring,
        cert.links[:-1] + (new_top,),
        cert.evidence,
        cert.witness_variables,
        cert.witnesses,
    )


def test_criterion_5_chain_certificates():
    with criterion(5, "witness-chain certification"):
        for k in (1, 2, 3):
            cert = _standard_chain(k)
            assert cert.length() == k
            assert all(verify_chain(cert).values())
            assert certified_lower_bound(cert)[0] == field_tensor_dimension([k, k]).value == k
        rng = random.Random(26_08_03)
        for mode in (0, 1, 2):
            for _ in range(10):
                cert = _standard_chain(rng.randint(1, 3))
                broken = _corrupt(cert, mode)
                assert not all(verify_chain(broken).values()), mode


# -- 6. kernel dimension vs the brute-force independent-set oracle ------------------

def subset_dimension_oracle(monomials, arity: int) -> int:
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monomials]
    best = 0
    for size in range(arity + 1):
        for subset in combinations(range(arity), size):
            chosen = set(subset)
            if all(not s <= chosen for s in supports):
                best = max(best, size)
    return best


def test_criterion_6_dimension_oracle_equivalence():
    with criterion(6, "independent-set dimension oracle"):
        rng = random.Random(26_08_04)
        ring6 = PolynomialRing(QQ, tuple(f"x{i}" for i in range(6)))
        for _ in range(500):
            gens = []
            for _ in range(rng.randint(1, 6)):
                exps = [0] * 6
                for _ in range(rng.randint(1, 3)):
                    exps[rng.randrange(6)] += 1
                gens.append(monomial(ring6, exps))
            algebra = IdealPresentation(ring6, gens)
            expected = subset_dimension_oracle([g.leading(GREVLEX)[0] for g in gens], 6)
            assert dim_affine(algebra) == DimensionValue.exact(expected)
        # fixture set
        for n in range(5):
            ring = PolynomialRing(QQ, tuple(f"x{i}" for i in range(n)))
            assert dim_affine(IdealPresentation.zero_ideal(ring)) == DimensionValue.exact(n)
        rxyz = PolynomialRing(QQ, ("x", "y", "z"))
        x, y, z = (rxyz.variable(i) for i in range(3))
        assert dim_affine(IdealPresentation(rxyz, [x * z, y * z])).value == 2
        rxy = PolynomialRing(QQ, ("x", "y"))
        xx, yy = rxy.variable("x"), rxy.variable("y")
        assert dim_affine(IdealPresentation(rxy, [xx * yy - rxy.one()])).value == 1
        rab = PolynomialRing(QQ, ("a", "b"))
        a, b = rab.variable("a"), rab.variable("b")
        quad = IdealPresentation(rab, [a**2 - rab.from_int(2), b**2 - rab.from_int(2)])
        assert dim_affine(quad).value == 0


# -- 7. infinite results carry the right rules --------------------------------------

def test_criterion_7_infinite_cases():
    with criterion(7, "infinite tensor dimensions"):
        for text in (
            "Tensor(Ext(Q; inf), Ext(Q; inf))",
            "Tensor(Ext(Q; inf), Poly(Ext(Q; inf); y))",
            "Tensor(Ext(Q; inf), Quot(Poly(Ext(Q; inf); y); y^2 - 2))",
        ):
            result = evaluate(parse_ring_expr(text))
            assert result.value == DimensionValue.infinite(), text
            assert RULE_TENSOR_INF in [t.rule for t in result.trace], text
        finite = evaluate(parse_ring_expr("Tensor(Ext(Q; 2), Ext(Q; inf))"))
        assert finite.value == DimensionValue.exact(2)


# -- 8. the CLI end to end ------------------------------------------------------------

def test_criterion_8_cli_end_to_end(capsys, tmp_path):
    with criterion(8, "CLI reports and exit codes"):
        schema = json.loads((Path(cli.__file__).parent / "report_schema.json").read_text())

        def run(*argv):
            code = cli.main(list(argv))
            out = capsys.readouterr().out
            report = json.loads(out)
            jsonschema.validate(report, schema)
            return code, report

        code, report = run("dim", "Tensor(Ext(Q;1),Ext(Q;2),Ext(Q;4))")
        assert code == cli.EXIT_OK
        assert report["result"]["dimension"] == {"kind": "exact", "value": 3}
        assert any(e["rule"] == "field-tensor-trdeg-sum" for e in report["trace"])

        code, report = run("nzd", "Quot(Poly(Q;x,y); x*y)", "x")
        assert code == cli.EXIT_OK
        assert report["result"]["is_zero_divisor"] is True

        cert_path = tmp_path / "cert.json"
        code, report = run(
            "chain", "--witnesses", "u", "--fresh", "X1", "Poly(Q;u)", "--out", str(cert_path)
        )
        assert code == cli.EXIT_OK
        assert report["result"]["lower_bound"] == 1

        code, _ = run("dim", "Quot(Poly(Q;x); y)")
        assert code == cli.EXIT_USER_ERROR
        code, _ = run(
            "gb",
            "Quot(Poly(Q;x,y,z); x^2 + y*z - 1, y^2 + x*z, z^2 + x*y + y)",
            "--budget",
            "1",
        )
        assert code == cli.EXIT_BUDGET
