"""Mutation fuzz of the CLI contract.

Whatever the input, a run prints exactly one JSON report that validates
against ``report_schema.json`` and exits with the code its status implies;
no edit of a valid payload may end in ``internal-error`` or
``internal-inconsistency``.  The payloads are the ring expressions of the
README CLI examples, so the fuzz follows the documented commands.
"""

from __future__ import annotations

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from ringdim import cli
from test_golden_reports import strict_loads

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


@pytest.mark.parametrize("example", EXAMPLES, ids=[" ".join(argv[:2]) for argv in EXAMPLES])
@settings(derandomize=True, max_examples=20)
@given(changes=edits)
def test_mutated_payloads_keep_the_report_contract(example, changes):
    at = next(k for k, arg in enumerate(example) if "(" in arg)  # the ring expression
    argv = example[:at] + [mutate(example[at], changes)] + example[at + 1 :] + ["--budget", "200"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report = strict_loads(out.getvalue())  # one JSON document, nothing else
    jsonschema.validate(report, SCHEMA)
    assert report["status"] in EXIT_CODES, (argv, report.get("error"))
    assert code == EXIT_CODES[report["status"]], argv


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
