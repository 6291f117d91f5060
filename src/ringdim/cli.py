"""Command-line interface and report emission.

One verb per invocation; every run emits a single report (JSON by default)
echoing the input, the result, the rule trace with citations, the
cross-checks the computation actually made, and timing.  Every verb is one
row of ``_VERBS`` (handler, help, positional arguments, verb-only flags);
the argparse parser is built from that table once, at import, and reused by
every ``main`` call.  The report's ``input`` echoes the verb's positionals
and the options it read: ``--budget`` for every verb, ``--order`` for
``gb``, the one verb whose answer depends on a monomial order.  Every verb
also takes ``--format`` and ``--out``.  Exit codes: 0 success, 1 user error,
2 budget exhausted, 3 internal inconsistency (two rules disagreed, which
can only mean a bug), 4 internal error (any other exception; the report
still carries the exception type and message, with no partial result).
A command line argparse rejects exits 1 as well: with a known verb it gets
a user-error report, without one only argparse's message on stderr.

Chain certificates serialize with every witness polynomial spelled out, so
an external checker needs nothing beyond a normal-form routine to re-verify
them; `ringdim verify cert.json` does exactly that re-verification.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Callable, NamedTuple

from .calculus import (
    CITATIONS,
    BaseField,
    FieldExt,
    Quotient,
    RULE_DOMAIN_TRDEG,
    TraceEntry,
    evaluate,
    flatten_affine,
)
from .chains import (
    ChainCertificate,
    ChainStepEvidence,
    PrimalityCertificate,
    build_chain,
    certified_lower_bound,
    domain_certificate,
    verify_chain,
)
from .dimension import (
    INF,
    DimensionValue,
    trdeg_affine_domain,
    zero_divisor_status,
    ZeroDivisorStatus,
)
from .errors import (
    BudgetExhaustedError,
    CertificateError,
    InconsistentBoundsError,
    ParseError,
)
from .ideals import (
    Budget,
    DEFAULT_PAIR_BUDGET,
    IdealPresentation,
    completion_name,
    eliminate as eliminate_ideal,
    ideal_quotient,
    saturate as saturate_ideal,
)
from .orderings import GREVLEX, LEX
from .parser import (
    format_field,
    parse_field,
    parse_polynomial,
    parse_ring_expr,
)
from .polynomials import Polynomial, PolynomialRing, format_polynomial

SCHEMA_VERSION = "ringdim-report/2"

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_BUDGET = 2
EXIT_INCONSISTENT = 3
EXIT_INTERNAL_ERROR = 4


# -- report plumbing -----------------------------------------------------------

def dimension_to_json(value: DimensionValue) -> dict:
    if value.kind == "exact":
        return {"kind": "exact", "value": value.lo}
    if value.kind == "empty":
        return {"kind": "empty-ring"}
    if value.kind == "infinite":
        return {"kind": "infinite"}
    hi = "inf" if value.hi == INF else value.hi
    return {"kind": "interval", "lo": value.lo, "hi": hi}


def trace_to_json(trace) -> list[dict]:
    return [
        {"rule": e.rule, "citation": e.citation, "detail": e.detail}
        for e in trace
    ]


def cross_checks_to_json(checks) -> list[dict]:
    """``(name, detail)`` pairs of comparisons that were made and agreed."""
    return [{"name": name, "status": "agree", "detail": detail} for name, detail in checks]


def generators_to_json(polys) -> list[str]:
    """Generator texts of an ideal; the zero ideal, which has none, is
    written as ["0"].  Each monomial of one set of variable names is
    written once per call."""
    memos: dict[tuple[str, ...], dict] = {}
    return [format_polynomial(g, monomials=memos.setdefault(g.ring.variables, {})) for g in polys] or ["0"]


def make_report(command: str, input_echo: dict, started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": input_echo,
        "status": "ok",
        "result": None,
        "trace": [],
        "cross_checks": [],
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
        "error": None,
    }


# -- certificate serialization ---------------------------------------------------

def certificate_to_json(cert: ChainCertificate) -> dict:
    def primality_to_json(p: PrimalityCertificate) -> dict:
        blob = {"kind": p.kind, "note": p.note, "flagged": p.flagged}
        if p.base_prime is not None:
            blob["base_prime"] = generators_to_json(p.base_prime.generators)
        if p.substitutions:
            blob["substitutions"] = [
                [cert.ring.variables[idx], format_polynomial(value)]
                for idx, value in p.substitutions
            ]
        return blob

    return {
        "field": format_field(cert.ring.field),
        "variables": list(cert.ring.variables),
        "witness_variables": list(cert.witness_variables),
        "witnesses": [format_polynomial(t) for t in cert.witnesses],
        "links": [generators_to_json(link.generators) for link in cert.links],
        "evidence": [
            {
                "strictness_witness": None
                if e.strictness_witness is None
                else format_polynomial(e.strictness_witness),
                "avoidance_checked": e.avoidance_checked,
                "primality": primality_to_json(e.primality),
            }
            for e in cert.evidence
        ],
    }


# JSON Schema type name -> (Python type, its name in a refusal)
_JSON_TYPES = {
    "object": (dict, "an object"), "array": (list, "an array"), "string": (str, "a string"),
    "boolean": (bool, "a boolean"), "null": (type(None), "null"),
}


@functools.cache
def _report_schema() -> dict:
    """``report_schema.json``, read on first use: only ``verify`` needs it."""
    with open(os.path.join(os.path.dirname(__file__), "report_schema.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _check_shape(value, schema: dict, where: str) -> None:
    """Raise a ``CertificateError`` naming the first key that is missing or
    whose value does not match ``schema``, read as JSON Schema's ``type`` (a
    name or a list), ``properties`` in file order with ``required``, and
    ``items`` (one schema for every entry, or a list for a tuple that long)."""
    kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    if not isinstance(value, tuple(_JSON_TYPES[k][0] for k in kinds)):
        expected = " or ".join(_JSON_TYPES[k][1] for k in kinds)
        found = next((name for kind, name in _JSON_TYPES.values() if type(value) is kind), "a number")
        raise CertificateError(f"{where} must be {expected}, not {found}")
    if isinstance(value, dict):
        for key, inner in schema.get("properties", {}).items():
            if key in value:
                _check_shape(value[key], inner, f"{where}[{key!r}]")
            elif key in schema.get("required", ()):
                raise CertificateError(f"{where} has no {key!r} key")
    elif isinstance(value, list) and "items" in schema:
        items = schema["items"]
        if isinstance(items, list) and len(value) != len(items):
            raise CertificateError(f"{where} must have {len(items)} entries, not {len(value)}")
        for i, item in enumerate(value):
            _check_shape(item, items[i] if isinstance(items, list) else items, f"{where}[{i}]")


def certificate_from_json(blob) -> ChainCertificate:
    # accept either a bare certificate or a full chain report containing one
    if isinstance(blob, dict) and "field" not in blob and isinstance(blob.get("result"), dict):
        blob = blob["result"].get("certificate", blob)
    _check_shape(blob, _report_schema()["definitions"]["certificate"], "certificate")
    n_links, n_evidence = len(blob["links"]), len(blob["evidence"])
    if not n_links:
        raise CertificateError("certificate has no links")
    if n_evidence != n_links:
        raise CertificateError(f"the number of evidence entries ({n_evidence}) must equal the number of links ({n_links})")
    field = parse_field(blob["field"])
    ring = PolynomialRing(field, tuple(blob["variables"]))

    def poly(text: str):
        return parse_polynomial(text, ring)

    links = tuple(IdealPresentation(ring, [poly(g) for g in gens]) for gens in blob["links"])
    evidence = []
    for e in blob["evidence"]:
        p = e["primality"]
        base_prime = None
        if "base_prime" in p:
            base_prime = IdealPresentation(ring, [poly(g) for g in p["base_prime"]])
        substitutions = tuple(
            (ring.variable_index(name), poly(value)) for name, value in p.get("substitutions", [])
        )
        cert = PrimalityCertificate(p["kind"], base_prime=base_prime, substitutions=substitutions, note=p.get("note", ""))
        witness = e["strictness_witness"]
        evidence.append(
            ChainStepEvidence(
                None if witness is None else poly(witness),
                e.get("avoidance_checked", False),
                cert,
            )
        )
    return ChainCertificate(
        ring,
        links,
        tuple(evidence),
        tuple(blob["witness_variables"]),
        tuple(poly(t) for t in blob["witnesses"]),
    )


# -- verb handlers ------------------------------------------------------------------
#
# A handler takes the parsed arguments and the budget and returns
# (result, trace entries, passed cross-checks as (name, detail) pairs).

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


class _Rejected(CertificateError):
    """An answer that is also a user error: the report keeps the handler's
    outcome next to the message."""

    def __init__(self, message: str, outcome: tuple):
        super().__init__(message)
        self.outcome = outcome


def _quotient_payload(text: str) -> tuple[Quotient, IdealPresentation]:
    expr = parse_ring_expr(text)
    if not isinstance(expr, Quotient):
        raise ValueError("this command expects a Quot(...) payload")
    flat = flatten_affine(expr)
    if flat is None:
        raise ValueError("the quotient does not flatten to an affine presentation")
    return expr, flat


def _payload_and_element(args) -> tuple[IdealPresentation, Polynomial]:
    """The Quot(...) payload and the element, parsed in the payload's ring
    and lifted to its presentation."""
    expr, flat = _quotient_payload(args.expression)
    return flat, parse_polynomial(args.element, expr.relations[0].ring).map_to(flat.ring)


def _cmd_dim(args, budget: Budget):
    expr = parse_ring_expr(args.expression)
    result = evaluate(expr, budget)
    answer = {"dimension": dimension_to_json(result.value)}
    if result.flattened is not None:
        answer["kernel_presentation"] = {
            "variables": list(result.flattened.ring.variables),
            "generators": generators_to_json(result.flattened.generators),
        }
    return answer, result.trace, result.cross_checks


def _cmd_gb(args, budget: Budget):
    _, flat = _quotient_payload(args.expression)
    order = _ORDERS[args.order]
    basis = flat.groebner_basis(order, budget)
    step = TraceEntry("reduced-groebner-basis", completion_name(order), f"{len(basis)} basis elements")
    answer = {
        "order": args.order,
        "basis": generators_to_json(basis),
    }
    return answer, (step,), ()


def _cmd_eliminate(args, budget: Budget):
    _, flat = _quotient_payload(args.expression)
    keep = [name.strip() for name in args.keep.split(",") if name.strip()]
    result = eliminate_ideal(flat, keep, budget)
    step = TraceEntry("block-elimination", "elimination ideals via a block order over the discarded variables")
    answer = {
        "keep": keep,
        "generators": generators_to_json(result.generators),
    }
    return answer, (step,), ()


def _cmd_quotient(args, budget: Budget):
    flat, f = _payload_and_element(args)
    result = ideal_quotient(flat, f, budget)
    step = TraceEntry("ideal-quotient", "tag-variable intersection divided by the element")
    return {"generators": generators_to_json(result.generators)}, (step,), ()


def _cmd_saturate(args, budget: Budget):
    flat, f = _payload_and_element(args)
    result = saturate_ideal(flat, f, budget)
    step = TraceEntry("saturation", "contraction of the Rabinowitsch ideal")
    return {"generators": generators_to_json(result.generators)}, (step,), ()


def _cmd_nzd(args, budget: Budget):
    status = zero_divisor_status(*_payload_and_element(args), budget)
    step = TraceEntry("zero-divisor-test", "f is a non-zero-divisor iff (I : f) = I", status.value)
    answer = {
        "status": status.value,
        "is_zero_divisor": status is not ZeroDivisorStatus.NON_ZERO_DIVISOR,
    }
    return answer, (step,), ()


def _cmd_trdeg(args, budget: Budget):
    expr = parse_ring_expr(args.expression)
    if isinstance(expr, (BaseField, FieldExt)):
        t = expr.trdeg if isinstance(expr, FieldExt) else 0
        answer = {
            "trdeg": "inf" if t == INF else t,
            "certificate": {"kind": "declared", "flagged": False},
        }
        return answer, (TraceEntry("declared-trdeg", "transcendence degree read off the chosen basis"),), ()
    flat = flatten_affine(expr)
    if flat is None:
        raise ValueError("trdeg needs a field extension or an affine domain")
    cert = domain_certificate(flat, "asserted by --assert-domain")
    if cert.flagged and not args.assert_domain:
        raise ValueError("pass --assert-domain to certify the quotient is a domain")
    t = trdeg_affine_domain(flat, budget)
    step = TraceEntry(RULE_DOMAIN_TRDEG, CITATIONS[RULE_DOMAIN_TRDEG], f"domain certificate: {cert.kind}")
    return {"trdeg": t, "certificate": {"kind": cert.kind, "flagged": cert.flagged}}, (step,), ()


def _flagged_assumptions(cert: ChainCertificate) -> list[str]:
    """The primality kinds of the links taken on trust."""
    return [e.primality.kind for e in cert.evidence if e.primality.flagged]


def _cmd_chain(args, budget: Budget):
    expr = parse_ring_expr(args.expression)
    flat = flatten_affine(expr)
    if flat is None:
        raise ValueError("chain needs an affine expression")
    ring = flat.ring
    witnesses = [parse_polynomial(t.strip(), ring) for t in args.witnesses.split(",") if t.strip()]
    fresh = [name.strip() for name in args.fresh.split(",") if name.strip()]
    cert = build_chain(flat, witnesses, fresh)
    bound, checks = certified_lower_bound(cert, budget)
    # verify_chain's one avoidance pass covered every step
    cert = cert._replace(evidence=tuple(e._replace(avoidance_checked=True) for e in cert.evidence))
    answer = {
        "certificate": certificate_to_json(cert),
        "lower_bound": bound,
        "verification": checks,
        "flagged_assumptions": _flagged_assumptions(cert),
    }
    step = TraceEntry(
        "chain-lower-bound",
        "explicit prime chain over the adjoined indeterminates",
        f"{bound} strict verified steps",
    )
    return answer, (step,), tuple((name, "") for name in checks)


def _cmd_verify(args, budget: Budget):
    with open(args.certificate, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    cert = certificate_from_json(blob)
    checks = verify_chain(cert, budget)
    verified = all(checks.values())
    step = TraceEntry(
        "chain-verification",
        "normal-form re-check of strictness, avoidance, and substitution transfer",
        "all steps pass" if verified else "at least one step fails",
    )
    answer = {
        "verified": verified,
        "verification": checks,
        "length": cert.length(),
        "flagged_assumptions": _flagged_assumptions(cert),
    }
    outcome = answer, (step,), ()
    if not verified:
        raise _Rejected("certificate failed verification", outcome)
    return outcome


class _Verb(NamedTuple):
    """One CLI verb: its handler, help line, positional arguments (name to
    help text) and the flags only it takes (flag to argparse options)."""

    run: Callable
    help: str
    positionals: dict
    flags: dict = {}


_EXPRESSION = {"expression": None}
_EXPRESSION_AND_ELEMENT = {"expression": None, "element": None}

_VERBS = {
    "dim": _Verb(_cmd_dim, "dimension of a ring expression", _EXPRESSION),
    "gb": _Verb(
        _cmd_gb,
        "reduced Groebner basis of a Quot(...) payload",
        _EXPRESSION,
        {"--order": {"choices": tuple(_ORDERS), "default": "grevlex"}},
    ),
    "eliminate": _Verb(
        _cmd_eliminate,
        "elimination ideal of a Quot(...) payload",
        _EXPRESSION,
        {"--keep": {"required": True, "help": "comma-separated variables to keep"}},
    ),
    "quotient": _Verb(_cmd_quotient, "ideal quotient (I : f)", _EXPRESSION_AND_ELEMENT),
    "saturate": _Verb(_cmd_saturate, "saturation (I : f^inf)", _EXPRESSION_AND_ELEMENT),
    "nzd": _Verb(_cmd_nzd, "zero-divisor test for an element of a quotient", _EXPRESSION_AND_ELEMENT),
    "trdeg": _Verb(
        _cmd_trdeg,
        "transcendence degree of a field extension or affine domain",
        _EXPRESSION,
        {"--assert-domain": {"action": "store_true"}},
    ),
    "chain": _Verb(
        _cmd_chain,
        "build and verify a prime-chain certificate",
        _EXPRESSION,
        {
            "--witnesses": {"required": True, "help": "comma-separated elements of the algebra"},
            "--fresh": {"required": True, "help": "comma-separated fresh variable names"},
        },
    ),
    "verify": _Verb(
        _cmd_verify,
        "re-verify a serialized chain certificate",
        {"certificate": "path to a certificate JSON file"},
    ),
}


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}", f"status: {report['status']}"]
    result = report.get("result")
    if result:
        for key, value in result.items():
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    for entry in report.get("trace", []):
        lines.append(f"rule {entry['rule']}: {entry['citation']}")
    if report.get("error"):
        lines.append(f"error: {report['error']['message']}")
    lines.append(f"time: {report['timing_ms']} ms")
    return "\n".join(lines)


class _UsageError(Exception):
    """A command line argparse rejects.  Raised instead of argparse's exit
    with code 2, which here means an exhausted budget; ``verb`` is None when
    the verb itself is missing or unknown."""

    def __init__(self, verb: str | None, message: str):
        super().__init__(message)
        self.verb = verb


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        verb = self.prog.split()[-1]
        raise _UsageError(verb if verb in _VERBS else None, message)

    def _parse_optional(self, arg_string):
        # a word with one leading "-" (the element -x or -h*x, say) is an
        # argument, as argparse reads -1, unless it is an option string: -h
        if arg_string.startswith("-") and not arg_string.startswith("--") and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def _pair_cap(text: str) -> int:
    """The ``--budget`` value: an int, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative; a cap on pair reductions is 0 or more")
    return value


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ringdim",
        description="Exact Krull dimensions of affine algebras, localizations, and tensor products of field extensions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for positional, text in verb.positionals.items():
            p.add_argument(positional, help=text)
        for flag, options in verb.flags.items():
            p.add_argument(flag, **options)
        p.add_argument(
            "--budget",
            type=_pair_cap,
            default=DEFAULT_PAIR_BUDGET,
            help="cap on pair reductions: J-pairs under grevlex, S-pairs under lex and block orders",
        )
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report to a file as well")
    return parser


_PARSER = _build_arg_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, extra = _PARSER.parse_known_args(argv)
        if extra:
            raise _UsageError(args.verb, f"unrecognized arguments: {' '.join(extra)}")
    except _UsageError as exc:
        if exc.verb is None:
            _PARSER.print_usage(sys.stderr)
            print(f"{_PARSER.prog}: error: {exc}", file=sys.stderr)
            return EXIT_USER_ERROR
        report = make_report(exc.verb, {"argv": argv}, time.perf_counter())
        report.update(status="user-error", error={"message": str(exc)})
        print(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_USER_ERROR
    started = time.perf_counter()
    verb = _VERBS[args.verb]
    echo = {name: getattr(args, name) for name in verb.positionals}
    echo["options"] = {"budget": args.budget}
    if "--order" in verb.flags:
        echo["options"]["order"] = args.order
    report = make_report(args.verb, echo, started)
    outcome = None
    exit_code = EXIT_OK
    try:
        outcome = verb.run(args, Budget(limit=args.budget))
    except (ValueError, OSError) as exc:
        outcome = exc.outcome if isinstance(exc, _Rejected) else None
        report["status"] = "user-error"
        report["error"] = {"message": str(exc)}
        if isinstance(exc, ParseError):
            report["error"]["line"] = exc.line
            report["error"]["column"] = exc.column
        exit_code = EXIT_USER_ERROR
    except BudgetExhaustedError as exc:
        report["status"] = "budget-exhausted"
        report["error"] = {"message": str(exc), "used": exc.used, "limit": exc.limit}
        exit_code = EXIT_BUDGET
    except InconsistentBoundsError as exc:
        report["status"] = "internal-inconsistency"
        report["error"] = {"message": str(exc)}
        exit_code = EXIT_INCONSISTENT
    except Exception as exc:  # last resort: a bug still yields one valid report
        report["status"] = "internal-error"
        report["error"] = {"message": f"{type(exc).__name__}: {exc}"}
        exit_code = EXIT_INTERNAL_ERROR
    if outcome is not None:
        report["result"], trace, checks = outcome
        report["trace"] = trace_to_json(trace)
        report["cross_checks"] = cross_checks_to_json(checks)
    report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        # written before anything is printed, so a failed write is the report
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            report.update(status="user-error", error={"message": str(exc)})
            rendered = json.dumps(report, indent=2, sort_keys=True)
            exit_code = EXIT_USER_ERROR
    print(rendered if args.format == "json" else _render_text(report))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
