from __future__ import annotations

import copy
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ringdim import GREVLEX, PolynomialRing, QQ, buchberger, chains, cli, orderings, parse_polynomial, parse_ring_expr, polynomials
from ringdim.chains import verify_chain
from ringdim.cli import (
    EXIT_BUDGET,
    EXIT_INCONSISTENT,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_USER_ERROR,
    certificate_from_json,
    certificate_to_json,
)
from ringdim.errors import CertificateError, InconsistentBoundsError
from ringdim.ideals import eliminate
from ringdim.parser import MAX_NESTING, format_field
from ringdim.polynomials import Polynomial, format_polynomial

from test_golden_bases import KATSURA_4
from test_golden_reports import pinned_reports
from test_ideals import QT, grevlex_systems

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "ringdim" / "report_schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_dim_tensor_example(capsys):
    code, report = run_cli(capsys, "dim", "Tensor(Ext(Q;1),Ext(Q;2),Ext(Q;4))")
    assert code == EXIT_OK
    assert report["status"] == "ok"
    assert report["result"]["dimension"] == {"kind": "exact", "value": 3}
    assert any(e["rule"] == "field-tensor-trdeg-sum" for e in report["trace"])
    assert all(e["citation"] for e in report["trace"])


def test_nzd_example(capsys):
    code, report = run_cli(capsys, "nzd", "Quot(Poly(Q;x,y); x*y)", "x")
    assert code == EXIT_OK
    assert report["result"]["is_zero_divisor"] is True
    assert report["result"]["status"] == "zero-divisor"


def test_chain_example(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, report = run_cli(
        capsys, "chain", "--witnesses", "u", "--fresh", "X1", "Poly(Q;u)", "--out", str(out)
    )
    assert code == EXIT_OK
    assert report["result"]["lower_bound"] == 1
    assert all(report["result"]["verification"].values())
    assert out.exists()
    saved = json.loads(out.read_text())
    assert saved == report


def test_verify_round_trip(capsys, tmp_path):
    out = tmp_path / "cert.json"
    run_cli(capsys, "chain", "--witnesses", "u,v", "--fresh", "X1,X2", "Poly(Q;u,v)", "--out", str(out))
    code, report = run_cli(capsys, "verify", str(out))
    assert code == EXIT_OK
    assert report["result"]["verified"] is True
    assert report["result"]["length"] == 2
    assert report["result"]["flagged_assumptions"] == []


def test_verify_refuses_a_zero_ideal_claim_for_a_link_with_generators(capsys, tmp_path):
    out = tmp_path / "cert.json"
    run_cli(capsys, "chain", "--witnesses", "u", "--fresh", "X1", "Quot(Poly(Q;u,v); u*v)", "--out", str(out))
    code, report = run_cli(capsys, "verify", str(out))
    assert (code, report["result"]["flagged_assumptions"]) == (EXIT_OK, ["asserted"])
    # link 0 is (u*v), which is not even prime
    blob = json.loads(out.read_text())
    blob["result"]["certificate"]["evidence"][0]["primality"] = {"kind": "zero-ideal-in-domain"}
    out.write_text(json.dumps(blob))
    code, report = run_cli(capsys, "verify", str(out))
    assert (code, report["status"]) == (EXIT_USER_ERROR, "user-error")
    assert report["error"]["message"] == "link 0 is not the zero ideal, but its evidence is zero-ideal-in-domain"


def test_verify_rejects_tampered_certificate(capsys, tmp_path):
    out = tmp_path / "cert.json"
    run_cli(capsys, "chain", "--witnesses", "u", "--fresh", "X1", "Poly(Q;u)", "--out", str(out))
    blob = json.loads(out.read_text())
    # swap the witness relation for a constant one
    blob["result"]["certificate"]["links"][-1] = ["X1 - 1"]
    out.write_text(json.dumps(blob))
    code, report = run_cli(capsys, "verify", str(out))
    assert code == EXIT_USER_ERROR
    assert report["status"] == "user-error"


def test_verify_refuses_a_principal_irreducible_certificate(capsys, tmp_path):
    # no check exists for this kind, so a certificate naming it is refused
    # rather than passed unchecked
    out = tmp_path / "cert.json"
    run_cli(capsys, "chain", "--witnesses", "u", "--fresh", "X1", "Poly(Q;u)", "--out", str(out))
    blob = json.loads(out.read_text())
    blob["result"]["certificate"]["evidence"][0]["primality"] = {"kind": "principal-irreducible", "generator": "u"}
    out.write_text(json.dumps(blob))
    code, report = run_cli(capsys, "verify", str(out))
    assert code == EXIT_USER_ERROR
    assert report["error"]["message"] == "unknown primality certificate kind 'principal-irreducible'"


def test_verify_reports_a_base_prime_over_the_adjoined_variables(capsys, tmp_path):
    out = tmp_path / "cert.json"
    run_cli(capsys, "chain", "--witnesses", "u", "--fresh", "X1", "Poly(Q;u)", "--out", str(out))
    blob = json.loads(out.read_text())
    blob["result"]["certificate"]["evidence"][1]["primality"]["base_prime"] = ["X1"]
    out.write_text(json.dumps(blob))
    code, report = run_cli(capsys, "verify", str(out))
    assert code == EXIT_USER_ERROR
    assert report["error"]["message"] == "certificate failed verification"
    assert report["result"]["verification"]["evaluation_witness"] is False


def _null_strictness_witness(cert):
    cert["evidence"][1]["strictness_witness"] = None


def _unit_link(cert):
    cert["links"][1] = ["1"]


def _substitution_named_twice(cert):
    # a link whose generators all map into the base prime, so only the
    # relation check can fail: X1 -> u + 1 does not kill X1 - u
    cert["links"][1] = ["0"]
    cert["evidence"][1]["primality"]["substitutions"] = [["X1", "u"], ["X1", "u + 1"]]


def _transfer_without_base_prime(cert):
    del cert["evidence"][1]["primality"]["base_prime"]


@pytest.mark.parametrize(
    "mutate, failed_check, message",
    [
        (_null_strictness_witness, "strictness", "certificate failed verification"),
        (_unit_link, "avoidance", "certificate failed verification"),
        (_substitution_named_twice, "substitution_transfer", "certificate failed verification"),
        (_transfer_without_base_prime, None, "substitution-transfer needs a base prime"),
    ],
    ids=["null-strictness-witness", "unit-link", "substitution-named-twice", "transfer-without-base-prime"],
)
def test_verify_refuses_a_mutated_chain_file(capsys, tmp_path, mutate, failed_check, message):
    out = tmp_path / "cert.json"
    run_cli(capsys, "chain", "--witnesses", "u", "--fresh", "X1", "Poly(Q;u)", "--out", str(out))
    blob = json.loads(out.read_text())
    mutate(blob["result"]["certificate"])
    out.write_text(json.dumps(blob))
    code, report = run_cli(capsys, "verify", str(out))
    assert (code, report["status"], report["error"]["message"]) == (EXIT_USER_ERROR, "user-error", message)
    if failed_check is not None:
        assert report["result"]["verification"][failed_check] is False


def _pop_evidence(cert):
    cert["evidence"].pop()


def _no_links(cert):
    cert["links"], cert["evidence"] = [], []


def _extra_evidence(cert):
    cert["evidence"].append(cert["evidence"][-1])


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_pop_evidence, "the number of evidence entries (1) must equal the number of links (2)"),
        (_no_links, "certificate has no links"),
        (_extra_evidence, "the number of evidence entries (3) must equal the number of links (2)"),
    ],
    ids=["evidence-popped", "no-links", "extra-evidence"],
)
def test_verify_refuses_a_chain_file_whose_evidence_does_not_match_its_links(capsys, tmp_path, mutate, message):
    out = tmp_path / "cert.json"
    run_cli(capsys, "chain", "--witnesses", "u", "--fresh", "X1", "Poly(Q;u)", "--out", str(out))
    blob = json.loads(out.read_text())
    mutate(blob["result"]["certificate"])
    out.write_text(json.dumps(blob))
    code, report = run_cli(capsys, "verify", str(out))
    assert (code, report["status"], report["result"]) == (EXIT_USER_ERROR, "user-error", None)
    assert report["error"]["message"] == message


def test_verify_accepts_a_chain_that_starts_with_two_links(capsys, tmp_path):
    # the chain verb starts at the algebra's ideal; a file may start lower:
    # (0) < (u) in Q[u, v], then X1 - v adjoined over (u)
    cert = {
        "field": "Q",
        "variables": ["u", "v", "X1"],
        "witness_variables": ["X1"],
        "witnesses": ["v"],
        "links": [[], ["u"], ["u", "X1 - v"]],
        "evidence": [
            {"strictness_witness": None, "primality": {"kind": "zero-ideal-in-domain"}},
            {"strictness_witness": "u", "primality": {"kind": "asserted", "note": "coordinate hyperplane"}},
            {
                "strictness_witness": "X1 - v",
                "primality": {"kind": "substitution-transfer", "base_prime": ["u"], "substitutions": [["X1", "v"]]},
            },
        ],
    }
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, report = run_cli(capsys, "verify", str(path))
    assert (code, report["result"]["verified"], report["result"]["length"]) == (EXIT_OK, True, 2)
    assert report["result"]["flagged_assumptions"] == ["asserted"]


def test_chain_refuses_a_chain_that_fails_verification(capsys):
    # with both witnesses u, X1 - X2 is a pure-X member of the chain
    code, report = run_cli(capsys, "chain", "--witnesses", "u,u", "--fresh", "X1,X2", "Poly(Q;u)")
    assert (code, report["status"], report["result"]) == (EXIT_USER_ERROR, "user-error", None)
    assert report["error"]["message"] == "chain verification failed: avoidance, evaluation_witness"


def test_chain_verifies_once(capsys, monkeypatch):
    calls = []

    def counting_verify_chain(cert, budget=None):
        calls.append(cert)
        return verify_chain(cert, budget)

    # patched in both modules, so a call through certified_lower_bound counts too
    monkeypatch.setattr(cli, "verify_chain", counting_verify_chain)
    monkeypatch.setattr(chains, "verify_chain", counting_verify_chain)
    code, report = run_cli(capsys, "chain", "--witnesses", "u,v", "--fresh", "X1,X2", "Poly(Q;u,v)")
    assert (code, report["result"]["lower_bound"]) == (EXIT_OK, 2)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "witnesses, fresh, expression, expected",
    [("u,v", "X1,X2", "Poly(Q;u,v)", 4), ("u,v,w", "X1,X2,X3", "Poly(Q;u,v,w)", 5)],
    ids=["two-witnesses", "three-witnesses"],
)
def test_chain_eliminates_once_per_link_plus_independence(capsys, monkeypatch, witnesses, fresh, expression, expected):
    # one elimination per link for avoidance, one for the witnesses'
    # algebraic independence; building the chain eliminates nothing
    calls = []

    def counting_eliminate(ideal, keep, budget=None):
        calls.append(keep)
        return eliminate(ideal, keep, budget)

    monkeypatch.setattr(chains, "eliminate", counting_eliminate)
    code, _ = run_cli(capsys, "chain", "--witnesses", witnesses, "--fresh", fresh, expression)
    assert code == EXIT_OK
    assert len(calls) == expected


def test_certificate_serialization_round_trip(capsys, tmp_path):
    out = tmp_path / "cert.json"
    run_cli(capsys, "chain", "--witnesses", "u,v", "--fresh", "X1,X2", "Poly(Q;u,v)", "--out", str(out))
    blob = json.loads(out.read_text())["result"]["certificate"]
    cert = certificate_from_json(blob)
    assert certificate_to_json(cert) == blob


def test_gb_command(capsys):
    code, report = run_cli(capsys, "gb", "Quot(Poly(Q;x,y,z); x^2 - y, x^3 - z)", "--order", "lex")
    assert code == EXIT_OK
    assert set(report["result"]["basis"]) == {
        "x^2 - y",
        "x*y - z",
        "-y^2 + x*z",
        "y^3 - z^2",
    }


def test_parser_reuse_keeps_no_options_between_calls(capsys, tmp_path):
    out = tmp_path / "report.json"
    payload = "Quot(Poly(Q;x,y,z); x^2 - y, x^3 - z)"
    code, report = run_cli(capsys, "gb", payload, "--order", "lex", "--out", str(out))
    assert (code, report["result"]["order"]) == (EXIT_OK, "lex")
    out.unlink()
    code, report = run_cli(capsys, "gb", payload)
    assert (code, report["result"]["order"], report["input"]["options"]["order"]) == (EXIT_OK, "grevlex", "grevlex")
    assert not out.exists()


def test_eliminate_command(capsys):
    code, report = run_cli(
        capsys, "eliminate", "Quot(Poly(Q;t,x,y); x - t, y - t^2)", "--keep", "x,y"
    )
    assert code == EXIT_OK
    assert report["result"]["generators"] == ["x^2 - y"]


def test_quotient_and_saturate_commands(capsys):
    code, report = run_cli(capsys, "quotient", "Quot(Poly(Q;x,y); x*y)", "x")
    assert code == EXIT_OK
    assert report["result"]["generators"] == ["y"]
    code, report = run_cli(capsys, "saturate", "Quot(Poly(Q;x,y); x^2*y)", "x")
    assert code == EXIT_OK
    assert report["result"]["generators"] == ["y"]


def test_trdeg_command(capsys):
    code, report = run_cli(capsys, "trdeg", "Quot(Poly(Q;x,y); y^2 - x^3)", "--assert-domain")
    assert code == EXIT_OK
    assert report["result"]["trdeg"] == 1
    assert report["result"]["certificate"]["flagged"] is True
    code, report = run_cli(capsys, "trdeg", "Poly(Q;x,y)")
    assert report["result"]["trdeg"] == 2
    assert report["result"]["certificate"]["flagged"] is False
    code, report = run_cli(capsys, "trdeg", "Ext(Q; inf)")
    assert report["result"]["trdeg"] == "inf"
    code, _ = run_cli(capsys, "trdeg", "Quot(Poly(Q;x,y); x*y)")
    assert code == EXIT_USER_ERROR  # not certified a domain


def test_exit_code_user_error_on_parse_failure(capsys):
    code, report = run_cli(capsys, "dim", "Quot(Poly(Q;x); y)")
    assert code == EXIT_USER_ERROR
    assert report["status"] == "user-error"
    assert "line" in report["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gb", "Poly(Q; x)"], "this command expects a Quot(...) payload"),
        (["gb", "Quot(Poly(Ext(Q; inf); x); x)"], "the quotient does not flatten to an affine presentation"),
        (["trdeg", "Frac(Poly(Q; x))"], "trdeg needs a field extension or an affine domain"),
        (["trdeg", "Quot(Poly(Q;x,y); x*y)"], "pass --assert-domain to certify the quotient is a domain"),
        (["chain", "--witnesses", "x", "--fresh", "X1", "Frac(Poly(Q; x))"], "chain needs an affine expression"),
    ],
    ids=["gb-not-a-quotient", "gb-not-affine", "trdeg-fraction-field", "trdeg-unasserted-domain", "chain-fraction-field"],
)
def test_verb_refuses_a_payload_of_the_wrong_shape(capsys, argv, message):
    # no token is at fault, so the error names no position
    code, report = run_cli(capsys, *argv)
    assert (code, report["status"], report["result"]) == (EXIT_USER_ERROR, "user-error", None)
    assert report["error"] == {"message": message}


def test_exit_code_budget_exhausted(capsys):
    # 0 is the smallest cap, not a usage error
    for limit in (0, 1):
        code, report = run_cli(
            capsys,
            "gb",
            "Quot(Poly(Q;x,y,z); x^2 + y*z - 1, y^2 + x*z, z^2 + x*y + y)",
            "--order",
            "lex",
            "--budget",
            str(limit),
        )
        assert code == EXIT_BUDGET
        assert report["status"] == "budget-exhausted"
        assert report["error"]["limit"] == limit


CYCLIC4_FIBER = (
    "Tensor(Ext(Q; 1), Quot(Poly(Q; a,b,c,d); a+b+c+d, a*b+b*c+c*d+d*a, a*b*c+b*c*d+c*d*a+d*a*b, a*b*c*d-1))"
)


def test_generic_fiber_spends_pairs_on_one_basis(capsys):
    # the fiber's dimension is dim A over the base field, one basis of eight
    # pair reductions; a second basis over Q(T1) would need eight more
    code, report = run_cli(capsys, "dim", "--budget", "8", CYCLIC4_FIBER)
    assert (code, report["status"]) == (EXIT_OK, "ok")
    assert report["result"]["dimension"] == {"kind": "exact", "value": 1}
    assert [t["rule"] for t in report["trace"]] == ["generic-fiber-kernel", "tensor-upper-bound"]


def test_generic_fiber_budget_still_binds(capsys):
    code, report = run_cli(capsys, "dim", "--budget", "7", CYCLIC4_FIBER)
    assert (code, report["status"]) == (EXIT_BUDGET, "budget-exhausted")
    assert report["error"] == {"limit": 7, "message": "budget exhausted: 8 pair reductions (limit 7)", "used": 8}


def test_exit_code_internal_inconsistency(capsys, monkeypatch):
    def broken_evaluate(expr, budget=None):
        raise InconsistentBoundsError("rule disagreement injected for the exit-code fixture")

    monkeypatch.setattr(cli, "evaluate", broken_evaluate)
    code, report = run_cli(capsys, "dim", "Q")
    assert code == EXIT_INCONSISTENT
    assert report["status"] == "internal-inconsistency"


def test_exit_code_internal_error(capsys, monkeypatch):
    # no user input raises KeyError, so a stray one is a bug like any other
    for error, message in (
        (RuntimeError("bug injected for the exit-code fixture"), "RuntimeError: bug injected for the exit-code fixture"),
        (KeyError("field"), "KeyError: 'field'"),
    ):

        def broken_dim(args, budget):
            raise error

        monkeypatch.setitem(cli._VERBS, "dim", cli._VERBS["dim"]._replace(run=broken_dim))
        code, report = run_cli(capsys, "dim", "Q")
        assert code == EXIT_INTERNAL_ERROR
        assert report["status"] == "internal-error"
        assert (report["result"], report["trace"], report["cross_checks"]) == (None, [], [])
        assert report["error"]["message"] == message


def test_text_format(capsys):
    code = cli.main(["dim", "Q", "--format", "text"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "command: dim" in out
    assert "status: ok" in out


def test_schema_file_matches_validator_constants():
    assert SCHEMA["properties"]["schema_version"]["const"] == cli.SCHEMA_VERSION
    assert set(SCHEMA["properties"]["command"]["enum"]) == set(cli._VERBS)
    assert set(SCHEMA["required"]) == set(cli.make_report("dim", {}, time.perf_counter()))


def test_dim_interval_report(capsys):
    code, report = run_cli(capsys, "dim", "Tensor(Ext(Q; 2), Poly(FunField(Q; u); y))")
    assert code == EXIT_OK
    assert report["result"]["dimension"] == {"kind": "interval", "lo": 2, "hi": 3}


def test_dim_infinite_report(capsys):
    code, report = run_cli(capsys, "dim", "Tensor(Ext(Q; inf), Ext(Q; inf))")
    assert code == EXIT_OK
    assert report["result"]["dimension"] == {"kind": "infinite"}


def test_dim_cross_checks_recorded(capsys):
    _, report = run_cli(capsys, "dim", "Loc(Quot(Poly(Q; x,y); x*y); x + y)")
    names = [c["name"] for c in report["cross_checks"]]
    assert "exact-rules-agree" in names
    # the kernel value 1 belongs to the Poly leg, the equality rule gives 2:
    # the two were never compared, so no agreement may be reported
    _, report = run_cli(capsys, "dim", "Tensor(Ext(Q; 1), Poly(FunField(Q; u); y))")
    assert report["result"]["dimension"] == {"kind": "exact", "value": 2}
    assert "exact-rules-agree" not in [c["name"] for c in report["cross_checks"]]
    # the equality met the upper bound found before it, and that is recorded
    assert {"name": "upper-bound-consistent", "detail": "tensor-trdeg-equality within tensor-upper-bound",
            "status": "agree"} in report["cross_checks"]


def test_dim_locsub_and_frac(capsys):
    code, report = run_cli(capsys, "dim", "LocSub(Poly(FunField(Q; u); y); u)")
    assert code == EXIT_OK
    assert report["result"]["dimension"] == {"kind": "exact", "value": 1}
    code, report = run_cli(capsys, "dim", "Frac(Poly(Q; x, y))")
    assert report["result"]["dimension"] == {"kind": "exact", "value": 0}


def _dimension(text: str) -> dict:
    """The ``dimension`` of the ``dim`` report on ``text``."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["dim", text])
    report = json.loads(out.getvalue())
    jsonschema.validate(report, SCHEMA)
    assert code == EXIT_OK, (text, report["error"])
    return report["result"]["dimension"]


def _ring_text(gens, names=None) -> str:
    ring = gens[0].ring
    return f"Poly({format_field(ring.field)}; {','.join(names or ring.variables)})"


def _relations_text(gens, names=None) -> str:
    """The generators, printed with the variables called ``names``."""
    ring = gens[0].ring
    renamed = PolynomialRing(ring.field, names or ring.variables)
    return ", ".join(format_polynomial(Polynomial(renamed, g.terms)) for g in gens)


def _units(field) -> list:
    units = [field.from_int(n) for n in (-1, 2, -5)]
    return units + ([field.generator("t"), field.inv(field.generator("t") + field.one)] if field is QT else [])


@st.composite
def equivalent_presentations(draw, change: str):
    """A system of ``grevlex_systems`` as a quotient, and the quotient
    after one change that keeps the ring up to isomorphism: its variables
    renamed and permuted, its generators permuted, or one generator scaled
    by a unit."""
    gens = draw(grevlex_systems())
    ring, names, moved = gens[0].ring, None, list(gens)
    if change == "rename":
        perm = draw(st.permutations(range(ring.arity)))
        moved = [Polynomial(ring, {tuple(e[k] for k in perm): c for e, c in g.terms.items()}) for g in gens]
        names = draw(st.permutations(["a", "b", "u", "v", "x", "y", "z", "w"]))[: ring.arity]
    elif change == "permute":
        moved = draw(st.permutations(gens))
    else:
        k = draw(st.integers(0, len(gens) - 1))
        moved[k] = gens[k].scale(draw(st.sampled_from(_units(ring.field))))
    return (
        f"Quot({_ring_text(gens)}; {_relations_text(gens)})",
        f"Quot({_ring_text(moved, names)}; {_relations_text(moved, names)})",
    )


@pytest.mark.parametrize("change", ["rename", "permute", "scale"])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_dim_is_invariant_under_a_change_of_presentation(change, data):
    plain, moved = data.draw(equivalent_presentations(change))
    assert _dimension(plain) == _dimension(moved), (plain, moved)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(grevlex_systems())
def test_dim_of_a_quotient_of_a_localization_is_that_of_the_localized_quotient(gens):
    # Quot(Loc(A; f); g) and Loc(Quot(A; g); f) present one ring
    a, f = _ring_text(gens), _relations_text(gens[:1])
    g = _relations_text(gens[1:]) if len(gens) > 1 else "0"
    assert _dimension(f"Quot(Loc({a}; {f}); {g})") == _dimension(f"Loc(Quot({a}; {g}); {f})"), gens


def run_module(*argv) -> subprocess.CompletedProcess:
    """``python -m ringdim`` in a child process that imports the package this
    process imported, whether or not PYTHONPATH names it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "ringdim", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = run_module("dim", "Q")
    assert proc.returncode == EXIT_OK
    report = json.loads(proc.stdout)
    assert report["result"]["dimension"] == {"kind": "exact", "value": 0}


def test_out_file_is_json_even_in_text_mode(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["dim", "Q", "--format", "text", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    jsonschema.validate(json.loads(out.read_text()), SCHEMA)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # records are built without dataclasses: importing it (and inspect,
    # which it pulls in) and building classes with it cost cold start.
    # Module names, not times, keep the check deterministic.  Nor is the
    # report schema read: only verify needs it.
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        "import sys; bare = set(sys.modules); import ringdim.cli; "
        "print(*sorted(set(sys.modules) - bare), ringdim.cli._report_schema.cache_info().misses)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    *added, schema_reads = proc.stdout.split()
    added = set(added)
    assert (schema_reads, "ringdim.cli" in added) == ("0", True)
    assert not added & {"dataclasses", "inspect"}


def test_reports_are_bit_identical_across_processes(tmp_path):
    def run_once(argv):
        proc = run_module(*argv)
        report = json.loads(proc.stdout)
        report.pop("timing_ms")
        return proc.returncode, report

    # chain rebuilds its certificate after verification; verify reads the
    # rebuilt one back in a fresh process
    cert = str(tmp_path / "cert.json")
    for argv in (
        ["dim", "Tensor(Ext(Q;1), Quot(Poly(Q; x,y); x*y))"],
        ["gb", "Quot(Poly(Q;x,y,z); x^2 - y, x^3 - z)", "--order", "lex"],
        ["chain", "--witnesses", "u,v", "--fresh", "X1,X2", "Poly(Q;u,v)", "--out", cert],
        ["verify", cert],
    ):
        first = run_once(argv)
        second = run_once(argv)
        assert first == second


# a key of each verb's result and a value of a JSON type it never has
_RESULT_KEYS = {
    "dim": ("dimension", 3),
    "gb": ("basis", "x^2 - y"),
    "eliminate": ("keep", "x,y"),
    "quotient": ("generators", [1]),
    "saturate": ("generators", "y"),
    "nzd": ("is_zero_divisor", "true"),
    "trdeg": ("trdeg", 1.5),
    "chain": ("lower_bound", "1"),
    "verify": ("verified", 1),
}


@pytest.mark.parametrize("verb", sorted(_RESULT_KEYS))
def test_a_result_with_a_missing_or_mistyped_key_fails_the_schema(verb):
    report = next(r for r in pinned_reports() if (r["command"], r["status"]) == (verb, "ok"))
    jsonschema.validate(report, SCHEMA)
    key, wrong = _RESULT_KEYS[verb]
    for result in ({k: v for k, v in report["result"].items() if k != key}, {**report["result"], key: wrong}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**report, "result": result}, SCHEMA)


def test_validator_rejects_unjustified_exact_dimension():
    base = {
        "schema_version": cli.SCHEMA_VERSION,
        "command": "dim",
        "input": {},
        "status": "ok",
        "result": {"dimension": {"kind": "exact", "value": 1}},
        "trace": [],
        "cross_checks": [],
        "timing_ms": 0.1,
        "error": None,
    }
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(base, SCHEMA)
    base["trace"] = [{"rule": "kernel-groebner", "citation": "leading-term scan"}]
    jsonschema.validate(base, SCHEMA)
    # only exact dimensions need a trace
    base["trace"] = []
    base["result"] = {"dimension": {"kind": "interval", "lo": 0, "hi": "inf"}}
    jsonschema.validate(base, SCHEMA)


def test_prime_modulus_from_two_to_the_64_is_a_user_error(capsys):
    code, report = run_cli(capsys, "dim", f"Fp({2**64 + 13})")
    assert code == EXIT_USER_ERROR
    assert report["status"] == "user-error"
    assert report["error"]["message"] == f"prime modulus {2**64 + 13} is not below 2^64 (line 1, column 4)"


def test_dim_nilpotent_localization_is_the_zero_ring(capsys):
    # x is nilpotent, so inverting it gives the zero ring
    code, report = run_cli(capsys, "dim", "Loc(Quot(Poly(Q;x,y); x^2); x)")
    assert code == EXIT_OK
    assert report["status"] == "ok"
    assert report["result"]["dimension"] == {"kind": "empty-ring"}
    assert [e["rule"] for e in report["trace"]] == ["empty-ring"]


def test_deep_nesting_is_a_parse_error(capsys):
    prefix = "Quot(Poly(Q; x); "
    text = prefix + "(" * 3000 + "x" + ")" * 3000 + ")"
    code, report = run_cli(capsys, "dim", text)
    assert code == EXIT_USER_ERROR
    assert report["status"] == "user-error"
    # Quot( is the first level, so the offending '(' is number MAX_NESTING of the run
    assert (report["error"]["line"], report["error"]["column"]) == (1, len(prefix) + MAX_NESTING)


@pytest.mark.parametrize(
    "text, column",
    [
        (f"Ext(Q; {'9' * 5000})", 8),
        (f"Fp({'9' * 5000})", 4),
        (f"Quot(Poly(Q;x); {'9' * 5000}*x)", 17),
    ],
    ids=["transcendence-degree", "prime", "coefficient"],
)
def test_over_long_integer_literal_is_a_parse_error(capsys, text, column):
    limit = sys.get_int_max_str_digits()
    code, report = run_cli(capsys, "dim", text)
    assert code == EXIT_USER_ERROR
    assert report["status"] == "user-error"
    assert (report["error"]["line"], report["error"]["column"]) == (1, column)
    assert report["error"]["message"].startswith(f"integer literal has 5000 digits; at most {limit} are accepted")


def test_integer_literal_at_the_digit_limit_is_a_coefficient(capsys):
    n = "9" * sys.get_int_max_str_digits()
    code, report = run_cli(capsys, "gb", f"Quot(Poly(Q;x,y); {n}*x - y)")
    assert code == EXIT_OK
    assert report["result"]["basis"] == [f"x - 1/{n}*y"]


@pytest.mark.parametrize(
    "text, basis",
    [
        ("Quot(Poly(Q;x); x - 10^5000)", "x - 1" + "0" * 5000),
        ("Quot(Poly(Q;x); 10^4400*x - 1)", "x - 1/1" + "0" * 4400),
        ("Quot(Poly(FunField(Q;t);x); x - 10^5000*t)", "x - (1" + "0" * 5000 + "*t)"),
    ],
    ids=["integer", "denominator", "function-field"],
)
def test_coefficient_past_the_digit_limit_prints_in_full(capsys, text, basis):
    # the lexer caps literals, but powers build coefficients of any size
    code, report = run_cli(capsys, "gb", text)
    assert code == EXIT_OK
    assert report["result"]["basis"] == [basis]


@pytest.mark.parametrize(
    "text, detail",
    [
        ("Tensor(Ext(Q;1), Quot(Poly(Q;x); 1))", "affine legs present the zero ring"),
        ("Poly(Tensor(Ext(Q;1), Quot(Poly(Q;x); 1)); y)", "polynomials over the zero ring"),
        ("LocSub(Quot(Poly(Q;x); 1); x)", "localizing the zero ring"),
        ("Quot(LocSub(Quot(Poly(Q;x); 1); x); x)", "quotient of the zero ring"),
        ("Loc(LocSub(Quot(Poly(Q;x); 1); x); x)", "localizing the zero ring"),
        ("Frac(Quot(Poly(Q;x); 1))", "the zero ring has no fraction field"),
    ],
    ids=["tensor-fiber", "poly", "locsub", "quot", "loc", "frac"],
)
def test_symbolic_constructions_over_the_zero_ring_are_empty(capsys, text, detail):
    # none of these flattens to one affine presentation, so the emptiness of
    # the inner zero ring has to reach the outer rule
    code, report = run_cli(capsys, "dim", text)
    assert code == EXIT_OK
    assert report["result"]["dimension"] == {"kind": "empty-ring"}
    assert [(e["rule"], e["detail"]) for e in report["trace"]] == [("empty-ring", detail)]


@pytest.mark.parametrize(
    "text, value, variables",
    [
        ("Quot(Loc(Poly(Q;x,y); x); y)", 1, ["x", "y", "Y"]),
        ("Loc(Loc(Poly(Q;x,y); x); y)", 2, ["x", "y", "Y", "Y1"]),
        # the localization variable gives way to the user's Y
        ("Poly(Loc(Poly(Q;x); x); Y)", 2, ["x", "Y", "Y1"]),
        ("Quot(Poly(Loc(Poly(Q;x); x); y); x*y - 1)", 1, ["x", "y", "Y"]),
    ],
    ids=["quot-of-loc", "loc-of-loc", "poly-of-loc", "quot-of-poly-of-loc"],
)
def test_localizations_inside_other_constructors(capsys, text, value, variables):
    # elements are parsed in the variables before the Rabinowitsch ones
    code, report = run_cli(capsys, "dim", text)
    assert code == EXIT_OK
    assert report["result"]["dimension"] == {"kind": "exact", "value": value}
    assert report["result"]["kernel_presentation"]["variables"] == variables


def test_element_of_a_localized_quotient(capsys):
    # x is a unit, so y = x^-1 * x*y is zero
    code, report = run_cli(capsys, "nzd", "Quot(Loc(Poly(Q;x,y); x); x*y)", "y")
    assert (code, report["result"]["status"]) == (EXIT_OK, "zero-element")


def test_ring_changes_avoid_coefficient_field_names(capsys):
    # the tag, Rabinowitsch and independence-check variables must not reuse
    # a name of the coefficient field or of the ring
    code, report = run_cli(capsys, "dim", "Loc(Poly(FunField(Q; Y); x); x)")
    assert code == EXIT_OK
    assert report["result"]["dimension"] == {"kind": "exact", "value": 1}
    assert report["result"]["kernel_presentation"]["variables"] == ["x", "Y1"]
    code, report = run_cli(capsys, "quotient", "Quot(Poly(FunField(Q; tagvar); x,y); x*y)", "x")
    assert (code, report["result"]["generators"]) == (EXIT_OK, ["y"])
    code, report = run_cli(capsys, "nzd", "Quot(Poly(FunField(Q; tagvar); x,y); x*y)", "x")
    assert (code, report["result"]["status"]) == (EXIT_OK, "zero-divisor")
    code, report = run_cli(capsys, "saturate", "Quot(Poly(FunField(Q; satvar); x,y); x^2*y)", "x")
    assert (code, report["result"]["generators"]) == (EXIT_OK, ["y"])
    code, report = run_cli(capsys, "chain", "--witnesses", "indepvar0", "--fresh", "X1", "Poly(Q;indepvar0)")
    assert code == EXIT_OK
    assert report["result"]["lower_bound"] == 1
    assert report["result"]["verification"] == dict.fromkeys(
        ("strictness", "avoidance", "substitution_transfer", "evaluation_witness"), True
    )


def _count_monomial_entries(monkeypatch) -> Counter:
    built = Counter()
    entry = polynomials._monomial_entry

    def counting(names, exps):
        built[names, exps] += 1
        return entry(names, exps)

    monkeypatch.setattr(polynomials, "_monomial_entry", counting)
    return built


def test_a_basis_prints_each_distinct_monomial_once(monkeypatch):
    basis = buchberger(parse_ring_expr(KATSURA_4).relations, GREVLEX)
    expected = [format_polynomial(g) for g in basis]
    built = _count_monomial_entries(monkeypatch)
    assert cli.generators_to_json(basis) == expected
    names = basis[0].ring.variables
    assert built == Counter({(names, exps): 1 for g in basis for exps in g.terms})
    assert sum(len(g.terms) for g in basis) > len(built)  # the basis shares monomials


def test_generators_of_rings_with_different_names_print_with_their_own_names():
    xy, uv = PolynomialRing(QQ, ("x", "y")), PolynomialRing(QQ, ("u", "v"))
    polys = [parse_polynomial("x^2*y - 1", xy), parse_polynomial("u^2*v - 1", uv), parse_polynomial("x*y", xy)]
    assert cli.generators_to_json(polys) == ["x^2*y - 1", "u^2*v - 1", "x*y"]


def test_consecutive_runs_leave_no_formatting_or_unpack_state(monkeypatch, capsys):
    built = _count_monomial_entries(monkeypatch)
    unpacked = Counter()
    unpack = orderings.PackedMonomials.unpack

    def counting(self, m):
        unpacked[m] += 1
        return unpack(self, m)

    monkeypatch.setattr(orderings.PackedMonomials, "unpack", counting)
    runs = []
    for _ in range(2):
        built.clear()
        unpacked.clear()
        code, report = run_cli(capsys, "gb", KATSURA_4)
        assert code == EXIT_OK
        runs.append((report["result"]["basis"], dict(built), dict(unpacked)))
    assert runs[0] == runs[1]
    assert runs[0][1] and runs[0][2]
    # within one run each distinct monomial of the basis is unpacked once
    assert set(runs[0][2].values()) == {1}


def test_zero_relation_is_not_a_generator(capsys):
    code, report = run_cli(capsys, "dim", "Quot(Poly(Q;x,y); x, 0)")
    assert code == EXIT_OK
    assert report["result"]["kernel_presentation"]["generators"] == ["x"]
    _, report = run_cli(capsys, "dim", "Poly(Q;x,y)")
    assert report["result"]["kernel_presentation"]["generators"] == ["0"]


@pytest.mark.parametrize(
    "content, message",
    [
        ("[1, 2]", "certificate must be an object, not an array"),
        ('{"variables": []}', "certificate has no 'field' key"),
        ('{"field": "Q", "variables": "u"}', "certificate['variables'] must be an array, not a string"),
        (
            '{"field": "Q", "variables": [], "witness_variables": [], "witnesses": [], "links": [], '
            '"evidence": [{"strictness_witness": null, "primality": {"kind": "asserted", "substitutions": [["u"]]}}]}',
            "certificate['evidence'][0]['primality']['substitutions'][0] must have 2 entries, not 1",
        ),
    ],
    ids=["list", "no-field", "mistyped-variables", "short-substitution"],
)
def test_verify_rejects_malformed_certificate(capsys, tmp_path, content, message):
    path = tmp_path / "cert.json"
    path.write_text(content)
    code, report = run_cli(capsys, "verify", str(path))
    assert code == EXIT_USER_ERROR
    assert report["status"] == "user-error"
    assert report["error"]["message"] == message


@functools.cache
def _chain_certificate() -> dict:
    """The certificate ``chain --out`` writes for two witnesses: a
    zero-ideal link, then two substitution transfers."""
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        path = Path(tmp) / "cert.json"
        assert cli.main(["chain", "--witnesses", "u,v", "--fresh", "X1,X2", "Poly(Q;u,v)", "--out", str(path)]) == EXIT_OK
        return json.loads(path.read_text())["result"]["certificate"]


def _paths(value, path=()):
    """The path of every value inside a JSON document, the root first."""
    yield path
    entries = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in entries:
        yield from _paths(inner, path + (key,))


def _at(blob, path):
    for key in path:
        blob = blob[key]
    return blob


@st.composite
def mutated_certificates(draw):
    """A real certificate with one to three edits: a key dropped, a value
    swapped for one of another JSON type, or a substitution pair lengthened
    or shortened."""
    blob = {"root": copy.deepcopy(_chain_certificate())}  # so that the root can be swapped too
    for _ in range(draw(st.integers(1, 3))):
        paths = [("root",) + p for p in _paths(blob["root"])]
        edit = draw(st.sampled_from(["drop", "swap", "resize"]))
        if edit == "drop":
            keys = [p for p in paths[1:] if isinstance(_at(blob, p[:-1]), dict)]
            if not keys:
                continue
            path = draw(st.sampled_from(keys))
            del _at(blob, path[:-1])[path[-1]]
        elif edit == "swap":
            path = draw(st.sampled_from(paths))
            old = _at(blob, path)
            _at(blob, path[:-1])[path[-1]] = draw(
                st.sampled_from([v for v in (None, True, 7, 1.5, "u", [], {}) if type(v) is not type(old)])
            )
        else:
            pairs = [_at(blob, p) for p in paths if p[-2:-1] == ("substitutions",) and isinstance(_at(blob, p), list)]
            if pairs:
                pair = draw(st.sampled_from(pairs))
                if pair and draw(st.booleans()):
                    pair.pop()
                else:
                    pair.append("w")
    return blob["root"]


# the certificate's definition, as jsonschema reads it
CERTIFICATE_SCHEMA = jsonschema.Draft7Validator({**SCHEMA, "$ref": "#/definitions/certificate"})


@settings(derandomize=True, max_examples=300)
@given(mutated_certificates())
def test_certificate_reader_refuses_exactly_what_the_schema_rejects(blob):
    try:
        cli._check_shape(blob, SCHEMA["definitions"]["certificate"], "certificate")
        read = True
    except CertificateError:
        read = False
    assert read == CERTIFICATE_SCHEMA.is_valid(blob)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dim"], "the following arguments are required: expression"),
        (["dim", "Q", "--bogus"], "unrecognized arguments: --bogus"),
        (["dim", "Q", "-q"], "unrecognized arguments: -q"),
        (["gb", "Quot(Poly(Q;x); x)", "--budget", "notanint"], "argument --budget: invalid int value: 'notanint'"),
        (
            ["dim", "Quot(Poly(Q;x); x)", "--budget", "-1"],
            "argument --budget: -1 is negative; a cap on pair reductions is 0 or more",
        ),
        (["dim", "Q", "--order", "lex"], "unrecognized arguments: --order lex"),
    ],
    ids=["missing-expression", "unknown-flag", "extra-minus-word", "bad-budget", "negative-budget", "order-on-dim"],
)
def test_usage_error_for_a_known_verb_is_a_user_error_report(capsys, argv, message):
    code, report = run_cli(capsys, *argv)
    assert code == EXIT_USER_ERROR
    assert (report["command"], report["status"]) == (argv[0], "user-error")
    assert report["error"]["message"] == message
    assert report["input"] == {"argv": argv}


@pytest.mark.parametrize("argv", [[], ["frobnicate", "Q"]], ids=["missing-verb", "unknown-verb"])
def test_usage_error_without_a_verb_writes_no_report(capsys, argv):
    assert cli.main(argv) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ringdim: error:" in captured.err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_still_exits_zero(capsys, flag):
    with pytest.raises(SystemExit) as info:
        cli.main(["dim", flag])
    assert info.value.code == 0
    assert "usage: ringdim dim" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, spelled_out",
    [
        (["nzd", "Quot(Poly(Q;x,y); x*y)", "-x"], ["nzd", "Quot(Poly(Q;x,y); x*y)", "--", "-x"]),
        (
            ["chain", "Poly(Q;u)", "--witnesses", "-u", "--fresh", "X"],
            ["chain", "Poly(Q;u)", "--witnesses=-u", "--fresh", "X"],
        ),
    ],
    ids=["nzd-element", "chain-witness"],
)
def test_a_word_that_starts_with_a_minus_is_an_argument(capsys, argv, spelled_out):
    # without "--" or "=" before it, -x is the element and -u the witness
    code, report = run_cli(capsys, *argv)
    assert (code, report["status"]) == (EXIT_OK, "ok")
    assert report["result"] == run_cli(capsys, *spelled_out)[1]["result"]


def test_an_element_that_starts_with_minus_h_is_an_argument(capsys):
    # argparse would read -h*x as -h, the help flag, with the argument *x
    code, report = run_cli(capsys, "nzd", "Quot(Poly(Q;h,x); h*x)", "-h*x")
    assert (code, report["status"], report["result"]["status"]) == (EXIT_OK, "ok", "zero-element")


def test_h_after_an_expression_still_asks_for_help(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["nzd", "Quot(Poly(Q;x,y); x*y)", "-h"])
    assert info.value.code == 0
    assert "usage: ringdim nzd" in capsys.readouterr().out


def test_perfbench_tracer_restores_every_binding_it_replaces(capsys):
    # the benchmark's tracer wraps ringdim functions and methods by name, so
    # a rename that breaks `perfbench/run.py --trace 1` fails here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        replaced = list(tracer._undo)
        assert cli.main(["dim", "Q"]) == EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert any(span[0] == "cli.main" for span in tracer.spans)
    for owner, attr, original in replaced:
        assert vars(owner)[attr] is original, (owner, attr)
