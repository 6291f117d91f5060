"""Explicit prime-ideal chains as machine-checkable lower-bound certificates.

Given an affine algebra A = K[X]/I (passed as the ``IdealPresentation`` of
I), assumed to be a domain, and elements t_1..t_n of A that are
algebraically independent over the coefficient field, adjoining fresh
indeterminates X_i and the relations X_i - t_i gives a chain that starts at
the algebra's own ideal and rises one strict step per witness.  Every step
carries three pieces of evidence:

  * strictness  -- a generator of the next link with nonzero normal form
                   modulo the previous one;
  * avoidance   -- the link meets the pure-X subring only in zero, checked
                   by elimination (and, as a second independent route, by
                   evaluating X_i at t_i and testing membership);
  * primality   -- a substitution-transfer certificate: killing X_i - t_i
                   is an isomorphism onto the base quotient, so primality
                   travels down to the base prime's own certificate.

``build_chain`` only builds: it returns the links and this evidence as data.
``verify_chain`` checks any chain, including one read from a certificate
file that starts with several links.  It makes every check, each exactly
once: ``verify_strictness``, ``verify_avoidance`` (elimination),
``verify_substitution_transfer`` and ``verify_avoidance_by_evaluation``.
``certified_lower_bound``, which the ``chain`` verb runs, calls
``verify_chain`` itself and gives a number only when every check passes.

A fully verified chain of k strict steps certifies dimension >= k for the
ring localized away from the pure-X polynomials, which is exactly the lower
bound the tensor rules consume.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CertificateError, FrozenRecord
from .ideals import Budget, IdealPresentation, eliminate
from .polynomials import Polynomial, PolynomialRing, fresh_variable


class PrimalityCertificate(FrozenRecord):
    """Supported primality evidence.

    kind is one of:
      zero-ideal-in-domain   -- the zero ideal of a polynomial ring
      substitution-transfer  -- base prime plus relations X_i - t_i
      asserted               -- caller-supplied, always flagged in reports
    """

    kind: str
    base_prime: IdealPresentation | None = None
    substitutions: tuple[tuple[int, Polynomial], ...] = ()  # (variable index, value)
    note: str = ""

    KINDS = ("zero-ideal-in-domain", "substitution-transfer", "asserted")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise CertificateError(f"unknown primality certificate kind {self.kind!r}")

    @property
    def flagged(self) -> bool:
        return self.kind == "asserted"


def domain_certificate(link: IdealPresentation, note: str) -> PrimalityCertificate:
    """Primality evidence for a link of a polynomial ring: the zero ideal is
    prime because the ring is a domain; any other link is asserted, with
    ``note`` saying by whom."""
    if link.is_zero_ideal():
        return PrimalityCertificate("zero-ideal-in-domain")
    return PrimalityCertificate("asserted", note=note)


class ChainStepEvidence(FrozenRecord):
    strictness_witness: Polynomial | None  # None only for the first link
    avoidance_checked: bool
    primality: PrimalityCertificate


class ChainCertificate(FrozenRecord):
    ring: PolynomialRing
    links: tuple[IdealPresentation, ...]
    evidence: tuple[ChainStepEvidence, ...]
    witness_variables: tuple[str, ...]  # the adjoined X_i
    witnesses: tuple[Polynomial, ...]  # the t_i, as elements of the extended ring

    def length(self) -> int:
        return len(self.links) - 1


def verify_algebraic_independence(ideal: IdealPresentation, elements: Sequence[Polynomial], budget: Budget | None = None) -> bool:
    """True when no nonzero polynomial relation over the coefficient field
    holds among the elements in A = K[X]/I: the kernel of K[W] -> A is
    zero, computed by eliminating the X from I + (W_i - t_i)."""
    if not elements:
        return True
    ring = ideal.ring
    tags: list[str] = []
    for _ in elements:
        tags.append(fresh_variable("W", ring, tags))
    ext = ring.extend(tags)
    gens = [g.map_to(ext) for g in ideal.generators]
    for k, t in enumerate(elements):
        if t.ring != ring:
            raise CertificateError("witness outside the algebra's ring")
        gens.append(ext.variable(ring.arity + k) - t.map_to(ext))
    return eliminate(IdealPresentation(ext, gens), tags, budget).is_zero_ideal()


def build_chain(ideal: IdealPresentation, witnesses: Sequence[Polynomial], fresh_variables: Sequence[str]) -> ChainCertificate:
    """The chain of primes of A[X_1..X_n], A = K[X]/I, that starts at the
    algebra's own ideal and adds one link per witness t_i by adjoining the
    relation X_i - t_i.

    The first link is I lifted upstairs, with ``domain_certificate``'s
    evidence: the algebra is assumed to be a domain.  Each later link gets
    a substitution-transfer certificate referring to the first, and its
    relation X_i - t_i as strictness witness.  Nothing is checked here but
    the witnesses and fresh names: ``verify_chain`` makes every check, once,
    and accepts any chain, including one that starts with several links.
    """
    if len(witnesses) != len(fresh_variables):
        raise ValueError("one fresh variable per witness")
    ring = ideal.ring
    for name in fresh_variables:
        if name in ring.variables:
            raise ValueError(f"fresh variable {name} already in the ring")
    for t in witnesses:
        if t.ring != ring:
            raise ValueError("witnesses must be elements of the algebra's ring")

    ext = ring.extend(tuple(fresh_variables))
    lifted_witnesses = tuple(t.map_to(ext) for t in witnesses)
    base = IdealPresentation(ext, [g.map_to(ext) for g in ideal.generators])
    links = [base]
    evidence = [ChainStepEvidence(None, False, domain_certificate(base, "algebra assumed to be a domain"))]
    relations: list[Polynomial] = []
    substitutions: list[tuple[int, Polynomial]] = []
    for k, t_ext in enumerate(lifted_witnesses):
        idx = ring.arity + k
        # the relation is the one generator the previous link lacks
        relation = ext.variable(idx) - t_ext
        relations.append(relation)
        substitutions.append((idx, t_ext))
        links.append(IdealPresentation(ext, base.generators + tuple(relations)))
        cert = PrimalityCertificate(
            "substitution-transfer",
            base_prime=base,
            substitutions=tuple(substitutions),
        )
        evidence.append(ChainStepEvidence(relation, False, cert))
    return ChainCertificate(ext, tuple(links), tuple(evidence), tuple(fresh_variables), lifted_witnesses)


def verify_strictness(cert: ChainCertificate, budget: Budget | None = None) -> bool:
    for i in range(1, len(cert.links)):
        w = cert.evidence[i].strictness_witness
        if w is None:
            return False
        if not cert.links[i].contains(w, budget=budget):
            return False
        if cert.links[i - 1].contains(w, budget=budget):
            return False
    return True


def verify_avoidance(cert: ChainCertificate, budget: Budget | None = None) -> bool:
    """Every link meets the polynomial subring on the adjoined variables,
    ``cert.witness_variables``, only in zero; computed by elimination."""
    for link in cert.links:
        if link.is_unit_ideal(budget):
            return False
        if not eliminate(link, cert.witness_variables, budget).is_zero_ideal():
            return False
    return True


def verify_avoidance_by_evaluation(cert: ChainCertificate, budget: Budget | None = None) -> bool:
    """Second, independent route to avoidance: substituting X_i -> t_i must
    send every link into the top base prime, and the witnesses must be
    algebraically independent, so a nonzero pure-X member would evaluate to
    a nonzero element of the base prime inside the multiplicative set."""
    ring = cert.ring
    n_base = ring.arity - len(cert.witness_variables)
    substitution = {
        n_base + k: t for k, t in enumerate(cert.witnesses)
    }
    base_top = None
    for link, e in zip(cert.links, cert.evidence):
        if e.primality.kind == "substitution-transfer":
            base_top = e.primality.base_prime
            break
    if base_top is None:
        base_top = cert.links[-1]
    for link in cert.links:
        for g in link.generators:
            image = g.substitute(substitution)
            if not base_top.contains(image, budget=budget):
                return False
    # the base prime and the witnesses must live downstairs, without the X_i
    base_indices = set(range(n_base))
    if not all(p.support() <= base_indices for p in (*base_top.generators, *cert.witnesses)):
        return False
    base_ring = PolynomialRing(ring.field, ring.variables[:n_base])
    base_ideal = IdealPresentation(base_ring, [g.map_to(base_ring) for g in base_top.generators])
    return verify_algebraic_independence(base_ideal, [t.map_to(base_ring) for t in cert.witnesses], budget)


def verify_substitution_transfer(cert: PrimalityCertificate, extended: IdealPresentation, budget: Budget | None = None) -> bool:
    """Soundness of the transfer step: each substituted variable must not
    appear in its value, each relation X_i - t_i must die under the
    evaluation map, and every generator of the extended ideal must land in
    the base prime."""
    if cert.kind != "substitution-transfer":
        raise CertificateError("not a substitution-transfer certificate")
    if cert.base_prime is None:
        raise CertificateError("substitution-transfer needs a base prime")
    ring = extended.ring
    subs = dict(cert.substitutions)
    for idx, value in cert.substitutions:
        if value.ring != ring:
            raise CertificateError("substitution value in the wrong ring")
        if any(i in subs for i in value.support()):
            raise CertificateError("substitution value mentions a substituted variable")
    for g in extended.generators:
        image = g.substitute(subs)
        if not cert.base_prime.contains(image, budget=budget):
            return False
    for idx, value in cert.substitutions:
        relation = ring.variable(idx) - value
        if not relation.substitute(subs).is_zero():
            return False
    return True


def verify_chain(cert: ChainCertificate, budget: Budget | None = None) -> dict[str, bool]:
    """Run every verification step; the lower bound is only available when
    all of them pass.  A link whose evidence is ``zero-ideal-in-domain`` but
    which has generators raises: that kind proves nothing else."""
    results = {
        "strictness": verify_strictness(cert, budget),
        "avoidance": verify_avoidance(cert, budget=budget),
        "substitution_transfer": True,
        "evaluation_witness": True,
    }
    for i, (link, e) in enumerate(zip(cert.links, cert.evidence)):
        if e.primality.kind == "zero-ideal-in-domain" and not link.is_zero_ideal():
            raise CertificateError(f"link {i} is not the zero ideal, but its evidence is zero-ideal-in-domain")
        if e.primality.kind == "substitution-transfer":
            if not verify_substitution_transfer(e.primality, link, budget):
                results["substitution_transfer"] = False
    results["evaluation_witness"] = verify_avoidance_by_evaluation(cert, budget)
    return results


def certified_lower_bound(cert: ChainCertificate, budget: Budget | None = None) -> tuple[int, dict[str, bool]]:
    """Length of a fully verified chain, a dimension lower bound for the
    ring localized at the polynomials in the adjoined variables, and the
    checks it passed (``verify_chain``'s results).  Refuses to emit a
    number if any verification step fails."""
    checks = verify_chain(cert, budget)
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise CertificateError(f"chain verification failed: {', '.join(failed)}")
    return cert.length(), checks
