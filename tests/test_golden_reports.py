"""Pinned CLI reports, byte for byte apart from ``timing_ms``.

The cases are the README CLI examples, a few argvs of other verbs, and
every ring-expression string literal in ``tests/`` run as ``dim``.  Each
report is compared in canonical form (``timing_ms`` removed, keys sorted)
against ``golden_reports.json``, so a refactor that changes any answer,
trace, citation or error message fails here.

Regenerate the data file with ``python tests/test_golden_reports.py`` from
the repository root (with ``src`` on ``PYTHONPATH``); it prints the argv of
every changed, added and removed row before it writes.  Review the diff.
With ``--check`` it prints the same rows, writes nothing, and exits 1 if
there are any.  The script needs only the standard library.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
from contextlib import redirect_stdout
from pathlib import Path

from ringdim import cli

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = TESTS_DIR / "golden_reports.json"

ARGVS = [
    # README CLI examples (chain writes cert.json, which verify reads back)
    ["dim", "Tensor(Ext(Q;1),Ext(Q;2),Ext(Q;4))"],
    ["dim", "Loc(Quot(Poly(Q; x,y); x*y); x+y)"],
    ["nzd", "Quot(Poly(Q;x,y); x*y)", "x"],
    ["gb", "Quot(Poly(Q;x,y,z); x^2 - y, x^3 - z)", "--order", "lex"],
    ["eliminate", "Quot(Poly(Q;t,x,y); x - t, y - t^2)", "--keep", "x,y"],
    ["quotient", "Quot(Poly(Q;x,y); x*y)", "x"],
    ["saturate", "Quot(Poly(Q;x,y); x^2*y)", "x"],
    ["trdeg", "Quot(Poly(Q;x,y); y^2 - x^3)", "--assert-domain"],
    ["chain", "--witnesses", "u", "--fresh", "X1", "Poly(Q;u)", "--out", "cert.json"],
    ["verify", "cert.json"],
    # the same basis under grevlex, whose trace names the signature loop
    ["gb", "Quot(Poly(Q;x,y,z); x^2 - y, x^3 - z)"],
    # ring changes next to names a construction might pick for itself
    ["dim", "Loc(Poly(FunField(Q; Y); x); x)"],
    ["quotient", "Quot(Poly(FunField(Q; tagvar); x,y); x*y)", "x"],
    ["nzd", "Quot(Poly(FunField(Q; tagvar); x,y); x*y)", "x"],
    ["saturate", "Quot(Poly(FunField(Q; satvar); x,y); x^2*y)", "x"],
    ["chain", "--witnesses", "indepvar0", "--fresh", "X1", "Poly(Q;indepvar0)"],
    ["dim", "Quot(Poly(Q;x,y); x, 0)"],
    ["dim", "Poly(Loc(Quot(Poly(Q;x); x); x); z)"],
    ["dim", "Tensor(Loc(Quot(Poly(Q;x); x); x), Poly(Q;y))"],
    # a report file that cannot be written turns the report into a user error
    ["dim", "Q", "--out", "missing/report.json"],
    # the printer's coefficient branches: (num)/(den), a negative lead over
    # Q(t) and F_p(t), and p - 1 over F_p, which is not -1
    ["gb", "Quot(Poly(FunField(Q; t); x,y); (t + 1)*x - y, t*y + 1)"],
    ["gb", "Quot(Poly(FunField(Q; t); x,y); x + y, (2 - t)/(t + 3)*x*y - 1)", "--order", "lex"],
    ["gb", "Quot(Poly(FunField(Fp(7); t); x,y); (1 - t)*x - y, x*y + (t - 1)/(t + 2))"],
    ["gb", "Quot(Poly(Fp(7); x,y); x - y, x*y + 1)"],
    # two-parameter coefficients, whose gcds have several variables: each
    # basis prints a denominator in both t and s
    ["gb", "Quot(Poly(FunField(Q; t,s); x,y); (t + s)*x - (t - s)*y, (s + 1)*x*y - t)"],
    ["gb", "Quot(Poly(FunField(Fp(7); t,s); x,y); (t + s)*x - (t - s)*y, (s + 1)*x*y - t)"],
]

_RING_EXPR = re.compile(r"(Q|Fp\(|FunField\(|Ext\(|Poly\(|Quot\(|Loc\(|LocSub\(|Tensor\(|Frac\()")


def ring_expression_literals() -> list[str]:
    """Every string literal in the test modules that reads as a ring
    expression, in sorted order.  The constant pieces of an f-string are
    fragments, not expressions, so they are skipped."""
    found = set()
    for path in TESTS_DIR.glob("test_*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fragments = {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr) for part in node.values}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in fragments
                and _RING_EXPR.match(node.value)
            ):
                found.add(node.value)
    return sorted(found)


def golden_argvs() -> list[list[str]]:
    argvs = list(ARGVS)
    argvs += [["dim", text] for text in ring_expression_literals() if ["dim", text] not in argvs]
    return argvs


def strict_loads(text: str):
    """``json.loads`` that rejects ``Infinity`` and ``NaN``, the tokens
    ``json.dumps`` prints for a float infinity or NaN leaked into a report."""

    def reject(token: str):
        raise ValueError(f"non-JSON constant {token} in a report")

    return json.loads(text, parse_constant=reject)


def canonical_report(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    report = strict_loads(out.getvalue())
    del report["timing_ms"]
    return code, json.dumps(report, sort_keys=True)


def run_all(workdir: Path) -> list[dict]:
    """Run every case in ``workdir`` (chain and verify share cert.json)."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rows = []
        for argv in golden_argvs():
            code, text = canonical_report(argv)
            rows.append({"argv": argv, "exit_code": code, "report": text})
        return rows
    finally:
        os.chdir(cwd)


def test_golden_reports(tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = run_all(tmp_path)
    assert [row["argv"] for row in actual] == [row["argv"] for row in expected]
    for got, want in zip(actual, expected):
        assert (got["exit_code"], got["report"]) == (want["exit_code"], want["report"]), got["argv"]


def pinned_reports() -> list[dict]:
    """Every pinned report, with ``timing_ms`` put back."""
    return [{**json.loads(row["report"]), "timing_ms": 0.0} for row in json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))]


def test_pinned_reports_match_the_schema():
    import jsonschema  # the script half of this module needs only the standard library

    path = Path(cli.__file__).parent / "report_schema.json"
    schema = jsonschema.Draft7Validator(json.loads(path.read_text(encoding="utf-8")))
    for report in pinned_reports():
        schema.validate(report)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import tempfile

    args = argparse.ArgumentParser(description="Regenerate or check golden_reports.json.")
    args.add_argument("--check", action="store_true", help="compare with the data file instead of writing it")
    check = args.parse_args(argv).check
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_all(Path(tmp))
    old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else []
    old_rows = {json.dumps(row["argv"]): row for row in old}
    new_rows = {json.dumps(row["argv"]): row for row in rows}
    differences = 0
    for label, keys in (
        ("changed", [k for k in new_rows if k in old_rows and new_rows[k] != old_rows[k]]),
        ("added", [k for k in new_rows if k not in old_rows]),
        ("removed", [k for k in old_rows if k not in new_rows]),
    ):
        differences += len(keys)
        print(f"{len(keys)} {label}")
        for key in keys:
            print(f"  {key}")
    if check:
        print(f"checked {len(rows)} reports against {GOLDEN_PATH}")
        return 1 if differences else 0
    lines = ",\n".join(json.dumps(row) for row in rows)
    GOLDEN_PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(rows)} reports to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
