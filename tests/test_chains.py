from __future__ import annotations

import random

import pytest

from ringdim import (
    CertificateError,
    ChainCertificate,
    ChainStepEvidence,
    IdealPresentation,
    PolynomialRing,
    PrimalityCertificate,
    QQ,
    build_chain,
    certified_lower_bound,
    evaluate,
    field_tensor_dimension,
    parse_ring_expr,
    verify_algebraic_independence,
    verify_avoidance,
    verify_avoidance_by_evaluation,
    verify_chain,
    verify_substitution_transfer,
)

from conftest import same_ideal


def polynomial_ring_algebra(*names):
    return IdealPresentation.zero_ideal(PolynomialRing(QQ, names))


def build_standard(k: int) -> ChainCertificate:
    A = polynomial_ring_algebra(*(f"u{i+1}" for i in range(k)))
    witnesses = [A.ring.variable(i) for i in range(k)]
    fresh = [f"X{i+1}" for i in range(k)]
    return build_chain(A, witnesses, fresh)


def test_single_step_chain():
    A = polynomial_ring_algebra("u")
    cert = build_chain(A, [A.ring.variable("u")], ["X1"])
    assert cert.length() == 1
    assert cert.links[0].is_zero_ideal()
    x1 = cert.ring.variable("X1")
    u = cert.ring.variable("u")
    assert same_ideal(cert.links[1], IdealPresentation(cert.ring, [x1 - u]))
    assert certified_lower_bound(cert)[0] == 1


def test_two_step_chain():
    cert = build_standard(2)
    assert cert.length() == 2
    assert certified_lower_bound(cert)[0] == 2
    # each witness adds exactly one link past the algebra's ideal
    assert len(cert.links) == 1 + 2


def test_empty_witness_list_returns_the_algebras_ideal():
    A = polynomial_ring_algebra("u")
    cert = build_chain(A, [], [])
    assert cert.length() == 0
    assert certified_lower_bound(cert)[0] == 0


def test_avoidance_examples():
    ring = PolynomialRing(QQ, ("u", "X1"))
    u, x1 = ring.variable("u"), ring.variable("X1")
    ok = ChainCertificate(
        ring,
        (IdealPresentation(ring, [x1 - u]),),
        (ChainStepEvidence(None, False, PrimalityCertificate("asserted")),),
        ("X1",),
        (u,),
    )
    assert verify_avoidance(ok)
    bad = ChainCertificate(
        ring,
        (IdealPresentation(ring, [x1 - ring.one()]),),
        (ChainStepEvidence(None, False, PrimalityCertificate("asserted")),),
        ("X1",),
        (u,),
    )
    assert not verify_avoidance(bad)
    zero = ChainCertificate(
        ring,
        (IdealPresentation.zero_ideal(ring),),
        (ChainStepEvidence(None, False, PrimalityCertificate("zero-ideal-in-domain")),),
        ("X1",),
        (u,),
    )
    assert verify_avoidance(zero)


def test_substitution_transfer_examples():
    # adjoining X1 - u over the zero ideal of Q[u]
    cert = build_standard(1)
    transfer = cert.evidence[1].primality
    assert transfer.kind == "substitution-transfer"
    assert verify_substitution_transfer(transfer, cert.links[1])

    # base prime (v) in Q[u, v][X1]: the quotient collapses to Q[u]
    ring = PolynomialRing(QQ, ("u", "v", "X1"))
    u, v, x1 = (ring.variable(i) for i in range(3))
    base_prime = IdealPresentation(ring, [v])
    extended = IdealPresentation(ring, [v, x1 - u])
    transfer = PrimalityCertificate(
        "substitution-transfer", base_prime=base_prime, substitutions=((2, u),)
    )
    assert verify_substitution_transfer(transfer, extended)


def test_substitution_transfer_rejects_self_referencing_value():
    ring = PolynomialRing(QQ, ("u", "X1"))
    u, x1 = ring.variable("u"), ring.variable("X1")
    bad = PrimalityCertificate(
        "substitution-transfer",
        base_prime=IdealPresentation.zero_ideal(ring),
        substitutions=((1, x1 + u),),
    )
    with pytest.raises(CertificateError):
        verify_substitution_transfer(bad, IdealPresentation(ring, [x1 - u]))


def test_substitution_transfer_detects_wrong_image():
    ring = PolynomialRing(QQ, ("u", "X1"))
    u, x1 = ring.variable("u"), ring.variable("X1")
    cert = PrimalityCertificate(
        "substitution-transfer",
        base_prime=IdealPresentation(ring, [u]),  # image u - 1 is not in (u)
        substitutions=((1, ring.one()),),
    )
    assert not verify_substitution_transfer(cert, IdealPresentation(ring, [x1 - u]))


def test_verify_algebraic_independence():
    A = polynomial_ring_algebra("u", "v")
    u, v = A.ring.variable("u"), A.ring.variable("v")
    assert verify_algebraic_independence(A, [u, v])
    assert not verify_algebraic_independence(A, [u, u**2])
    assert verify_algebraic_independence(A, [])
    # in a proper quotient, a relation kills independence
    ring = PolynomialRing(QQ, ("x", "y"))
    circle = IdealPresentation(ring, [ring.variable("x") ** 2 + ring.variable("y") ** 2 - ring.one()])
    assert not verify_algebraic_independence(circle, [ring.variable("x"), ring.variable("y")])


def test_dependent_witnesses_fail_avoidance():
    # with t1 = t2 = u the difference X1 - X2 is a pure-X member of the chain;
    # build_chain builds it, and verification refuses it
    A = polynomial_ring_algebra("u")
    u = A.ring.variable("u")
    cert = build_chain(A, [u, u], ["X1", "X2"])
    assert verify_chain(cert)["avoidance"] is False
    with pytest.raises(CertificateError):
        certified_lower_bound(cert)


def chain_over_two_base_links(equal: bool) -> ChainCertificate:
    """Built by hand, as a certificate file may state it: in Q[u, v][X1],
    the base links (0) and (u), or (u) twice when ``equal``, then X1 - v
    adjoined over the second."""
    ring = PolynomialRing(QQ, ("u", "v", "X1"))
    u, v, x1 = (ring.variable(i) for i in range(3))
    lower = IdealPresentation(ring, [u] if equal else [])
    upper = IdealPresentation(ring, [u])
    transfer = PrimalityCertificate("substitution-transfer", base_prime=upper, substitutions=((2, v),))
    hyperplane = PrimalityCertificate("asserted", note="coordinate hyperplane")
    return ChainCertificate(
        ring,
        (lower, upper, IdealPresentation(ring, [u, x1 - v])),
        (
            ChainStepEvidence(None, False, hyperplane if equal else PrimalityCertificate("zero-ideal-in-domain")),
            ChainStepEvidence(u, False, hyperplane),
            ChainStepEvidence(x1 - v, False, transfer),
        ),
        ("X1",),
        (v,),
    )


def test_equal_base_links_fail_strictness():
    results = verify_chain(chain_over_two_base_links(equal=True))
    assert results == {"strictness": False, "avoidance": True, "substitution_transfer": True, "evaluation_witness": True}
    with pytest.raises(CertificateError, match="strictness"):
        certified_lower_bound(chain_over_two_base_links(equal=True))


def test_chain_is_self_verifying_on_random_monomial_witnesses():
    rng = random.Random(123)
    for _ in range(12):
        k = rng.randint(1, 3)
        A = polynomial_ring_algebra(*(f"u{i+1}" for i in range(k)))
        # distinct single variables in random order stay independent
        idx = list(range(k))
        rng.shuffle(idx)
        witnesses = [A.ring.variable(i) for i in idx]
        fresh = [f"X{i+1}" for i in range(k)]
        cert = build_chain(A, witnesses, fresh)
        results = verify_chain(cert)
        assert all(results.values()), results
        assert cert.length() == k
        assert verify_avoidance_by_evaluation(cert)


def test_verifier_accepts_a_chain_that_starts_with_two_links():
    cert = chain_over_two_base_links(equal=False)
    assert all(verify_chain(cert).values())
    assert cert.length() == 2
    assert certified_lower_bound(cert)[0] == 2


def test_certified_bound_matches_tensor_formula():
    for k in (1, 2, 3):
        cert = build_standard(k)
        bound, checks = certified_lower_bound(cert)
        formula = field_tensor_dimension([k, k])
        assert bound == formula.value == k
        assert checks == verify_chain(cert) and all(checks.values())


def test_certified_bound_below_calculus_upper_bound():
    # cross-module consistency: the chain bound never exceeds what the
    # calculus proves from above for the same tensor shape
    for k in (1, 2):
        cert = build_standard(k)
        expr = parse_ring_expr(f"Tensor(Ext(Q; {k}), Ext(Q; {k}))")
        value = evaluate(expr).value
        assert certified_lower_bound(cert)[0] <= value.value


# -- mutation suite: every corruption must break at least one verification -----

def corrupt_drop_generator(cert: ChainCertificate) -> ChainCertificate:
    top = cert.links[-1]
    new_top = IdealPresentation(cert.ring, top.generators[:-1])
    return ChainCertificate(
        cert.ring,
        cert.links[:-1] + (new_top,),
        cert.evidence,
        cert.witness_variables,
        cert.witnesses,
    )


def corrupt_constant_witness(cert: ChainCertificate) -> ChainCertificate:
    ring = cert.ring
    idx = ring.arity - 1  # the last adjoined variable
    bad_relation = ring.variable(idx) - ring.from_int(1)
    top = cert.links[-1]
    gens = [g for g in top.generators[:-1]] + [bad_relation]
    return ChainCertificate(
        cert.ring,
        cert.links[:-1] + (IdealPresentation(cert.ring, gens),),
        cert.evidence,
        cert.witness_variables,
        cert.witnesses,
    )


def corrupt_duplicate_link(cert: ChainCertificate) -> ChainCertificate:
    return ChainCertificate(
        cert.ring,
        cert.links[:-1] + (cert.links[-2],),
        cert.evidence,
        cert.witness_variables,
        cert.witnesses,
    )


@pytest.mark.parametrize(
    "corrupt",
    [corrupt_drop_generator, corrupt_constant_witness, corrupt_duplicate_link],
    ids=["drop-generator", "constant-witness", "duplicate-link"],
)
def test_mutations_fail_verification(corrupt):
    rng = random.Random(77)
    for _ in range(10):
        k = rng.randint(1, 3)
        cert = build_standard(k)
        broken = corrupt(cert)
        results = verify_chain(broken)
        assert not all(results.values()), f"corruption undetected: {results}"
        with pytest.raises(CertificateError):
            certified_lower_bound(broken)


def test_chain_over_proper_quotient_algebra():
    # A = Q[u,v]/(v^2 - u), a one-dimensional domain: both u and v are
    # transcendental over the base and carry a one-step chain
    ring = PolynomialRing(QQ, ("u", "v"))
    u, v = ring.variable("u"), ring.variable("v")
    A = IdealPresentation(ring, [v**2 - u])
    for witness in (u, v):
        cert = build_chain(A, [witness], ["X1"])
        assert certified_lower_bound(cert)[0] == 1
        # link 0 upstairs is (v^2 - u), not the zero ideal: its primality is assumed
        assert cert.evidence[0].primality == PrimalityCertificate("asserted", note="algebra assumed to be a domain")
        # the algebra's own relation is carried into every link upstairs
        lifted = cert.links[1]
        assert any(g.support() <= {0, 1} and not g.is_zero() for g in lifted.generators)


def test_primality_certificate_checks_its_kind():
    with pytest.raises(CertificateError, match="unknown primality certificate kind"):
        PrimalityCertificate("irreducible")
    cert = PrimalityCertificate("asserted", note="n")
    assert cert == PrimalityCertificate("asserted", None, (), "n") and hash(cert) == hash(PrimalityCertificate("asserted", note="n"))
    # the class constant KINDS is not a field
    assert repr(cert) == "PrimalityCertificate(kind='asserted', base_prime=None, substitutions=(), note='n')"
