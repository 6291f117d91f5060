"""Fuzz of the CLI contract.

Whatever the input, a run prints exactly one JSON report that validates
against ``report_schema.json`` and exits with the code its status implies;
no input may end in ``internal-error`` or ``internal-inconsistency``.  One
fuzz edits the ring expressions of the README CLI examples, so it follows
the documented commands; the other builds command lines for every verb from
the expression grammar.
"""

from __future__ import annotations

import io
import json
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ringdim import cli, parser
from test_golden_reports import strict_loads
from test_parser import FIELDS, _polynomial_text, _ring_text

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src" / "ringdim" / "report_schema.json").read_text(encoding="utf-8"))
EXIT_CODES = {"ok": cli.EXIT_OK, "user-error": cli.EXIT_USER_ERROR, "budget-exhausted": cli.EXIT_BUDGET}
ALPHABET = "()*;,+-^/ xyztu0123Q"


def readme_examples() -> list[list[str]]:
    """The argv of each ``ringdim`` line in the README CLI section, without
    ``verify`` (its payload is a file) and without ``--out`` (the report
    goes to stdout either way)."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for line in section.splitlines():
        if not line.startswith("ringdim "):
            continue
        argv = shlex.split(line, comments=True)
        if argv[1] != "verify":
            if "--out" in argv:
                at = argv.index("--out")
                del argv[at : at + 2]
            examples.append(argv[1:])
    return examples


EXAMPLES = readme_examples()

edits = st.lists(
    st.tuples(st.sampled_from(["delete", "insert", "replace"]), st.integers(0, 10**4), st.sampled_from(ALPHABET)),
    min_size=1,
    max_size=3,
)


def mutate(text: str, changes) -> str:
    for op, at, ch in changes:
        if op == "insert":
            at %= len(text) + 1
            text = text[:at] + ch + text[at:]
        elif text:
            at %= len(text)
            text = text[:at] + ("" if op == "delete" else ch) + text[at + 1 :]
    return text


def test_the_readme_examples_are_found():
    assert [argv[0] for argv in EXAMPLES] == [
        "dim", "dim", "nzd", "gb", "eliminate", "quotient", "saturate", "trdeg", "chain",
    ]


def assert_keeps_the_report_contract(argv: list[str]) -> None:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report = strict_loads(out.getvalue())  # one JSON document, nothing else
    jsonschema.validate(report, SCHEMA)
    assert report["status"] in EXIT_CODES, (argv, report.get("error"))
    assert code == EXIT_CODES[report["status"]], argv


@pytest.mark.parametrize("example", EXAMPLES, ids=[" ".join(argv[:2]) for argv in EXAMPLES])
@settings(derandomize=True, max_examples=20)
@given(changes=edits)
def test_mutated_payloads_keep_the_report_contract(example, changes):
    at = next(k for k, arg in enumerate(example) if "(" in arg)  # the ring expression
    assert_keeps_the_report_contract(example[:at] + [mutate(example[at], changes)] + example[at + 1 :] + ["--budget", "200"])


def _element_text(draw, names, variables) -> str:
    """A polynomial of the grammar, now and then divided by a constant that
    may be zero."""
    text = _polynomial_text(draw, names, variables)
    if draw(st.booleans()):
        text = f"({text})/{draw(st.integers(0, 2))}"
    return text


def _polynomial_ring(draw, field):
    """``Poly`` over a base of the grammar to constructor depth 0 or 1, and
    the coefficient names and ring variables its elements parse with.  The
    base may have no ring (a ``Tensor``, say): its ring variables are then
    the new ones, and the parser refuses every element."""
    base, scope = _ring_text(draw, field, draw(st.integers(0, 1)))
    names, taken = scope or (list(field.function_variables), [])
    new = draw(st.lists(st.sampled_from([v for v in "xyz" if v not in taken]), min_size=1, max_size=2, unique=True))
    return f"Poly({base}; {','.join(new)})", names, taken + new


def _payload(draw, field):
    """A quotient of a polynomial ring, two to four constructors deep, or
    now and then another constructor that reads elements, and the names its
    elements parse with."""
    base, names, variables = _polynomial_ring(draw, field)
    relations = [_element_text(draw, names, variables) for _ in range(draw(st.integers(1, 2)))]
    quotient, *others = parser._ELEMENT_NODES  # mostly the head the verbs want
    head = draw(st.sampled_from([quotient] * 4 + others))
    return f"{head}({base}; {', '.join(relations)})", names, variables


@st.composite
def command_lines(draw) -> list[list[str]]:
    """The argvs of one run of a verb on inputs from the grammar, with a
    small ``--budget``: ``verify`` reads the report a ``chain`` run wrote."""
    verb = draw(st.sampled_from(sorted(cli._VERBS)))
    field = draw(st.sampled_from(FIELDS))
    budget = ["--budget", str(draw(st.integers(0, 20)))]
    if verb in ("dim", "trdeg") and draw(st.booleans()):
        expression = _ring_text(draw, field, draw(st.integers(2, 3)))[0]
    else:
        expression, names, variables = _payload(draw, field)
    if verb == "dim":
        return [[verb, expression, *budget]]
    if verb == "trdeg":
        return [[verb, expression, *budget] + draw(st.sampled_from([[], ["--assert-domain"]]))]
    if verb == "gb":
        return [[verb, expression, "--order", draw(st.sampled_from(sorted(cli._ORDERS))), *budget]]
    if verb == "eliminate":
        keep = draw(st.lists(st.sampled_from(variables + ["w"]), max_size=len(variables), unique=True))
        return [[verb, expression, "--keep", ",".join(keep), *budget]]
    if verb not in ("chain", "verify"):
        return [[verb, expression, _element_text(draw, names, variables), *budget]]
    if draw(st.booleans()):
        expression, names, variables = _polynomial_ring(draw, field)
    witnesses = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3))
    n = len(witnesses) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    fresh = ",".join(f"X{k + 1}" for k in range(n))
    chain = ["chain", expression, "--witnesses", ",".join(witnesses), "--fresh", fresh, *budget]
    return [chain] if verb == "chain" else [chain + ["--out", "{report}"], [verb, "{report}", *budget]]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(command_lines())
def test_every_verb_keeps_the_report_contract_on_grammar_inputs(argvs):
    with tempfile.TemporaryDirectory() as tmp:
        report = str(Path(tmp) / "report.json")
        for argv in argvs:
            assert_keeps_the_report_contract([report if arg == "{report}" else arg for arg in argv])


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("example", EXAMPLES, ids=[" ".join(argv[:2]) for argv in EXAMPLES])
def test_an_unwritable_out_path_is_the_report(example, fmt, tmp_path):
    target = tmp_path / "missing" / "report.json"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(example + ["--format", fmt, "--out", str(target)])
    assert (code, err.getvalue()) == (cli.EXIT_USER_ERROR, "")
    assert not target.parent.exists()
    if fmt == "text":
        lines = out.getvalue().splitlines()
        assert "status: user-error" in lines
        assert f"error: [Errno 2] No such file or directory: {str(target)!r}" in lines
        return
    report = strict_loads(out.getvalue())
    jsonschema.validate(report, SCHEMA)
    assert report["status"] == "user-error"
    assert report["error"] == {"message": f"[Errno 2] No such file or directory: {str(target)!r}"}
