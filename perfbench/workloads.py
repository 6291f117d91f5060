"""Case lists, expectations and output checks for the ringdim benchmark.

Every case is one `ringdim <verb>` invocation (an argv list for
`ringdim.cli.main`) plus what a correct run must produce.  The checks share
no code with the program: Groebner outputs are judged by counting standard
monomials of the reported leading terms with an oracle written here and
comparing the count with the known root count of the system, and by a
digest of the reported basis text (the reduced basis is unique, so any
correct engine prints the same text).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Every F_p case runs over the prime the seed picks from this list.  The
# systems below have the same standard-monomial counts and pair-reduction
# counts over each of them.
PRIMES = (32003, 32009, 32027, 32029, 32051, 32057, 32059, 32063)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def prime_for(seed: int) -> int:
    return PRIMES[seed % len(PRIMES)]


# -- polynomial systems -----------------------------------------------------------

def katsura(n: int, field: str, one: str = "1") -> str:
    """Katsura-n as a Quot(...) payload; `one` replaces the constant of the
    linear equation.  Zero-dimensional with 2^n roots."""
    xs = [f"x{i}" for i in range(n + 1)]
    eqs = [" + ".join([xs[0]] + [f"2*{v}" for v in xs[1:]]) + f" - {one}"]
    for m in range(n):
        terms: dict[tuple[int, int], int] = {}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if a <= n and b <= n:
                key = (min(a, b), max(a, b))
                terms[key] = terms.get(key, 0) + 1
        parts = []
        for (a, b), c in sorted(terms.items()):
            mono = f"{xs[a]}^2" if a == b else f"{xs[a]}*{xs[b]}"
            parts.append(mono if c == 1 else f"{c}*{mono}")
        eqs.append(" + ".join(parts) + f" - {xs[m]}")
    return f"Quot(Poly({field}; {','.join(xs)}); {', '.join(eqs)})"


def cyclic(n: int, field: str) -> str:
    """Cyclic-n as a Quot(...) payload (70 roots for n=5, 156 for n=6)."""
    xs = [f"x{i}" for i in range(n)]
    eqs = [
        " + ".join("*".join(xs[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    eqs.append("*".join(xs) + " - 1")
    return f"Quot(Poly({field}; {','.join(xs)}); {', '.join(eqs)})"


# -- the oracle -------------------------------------------------------------------

def _split_top_level(text: str, separators: str, need_space: bool) -> list[str]:
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in separators and i > 0 and (not need_space or text[i - 1] == " "):
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    return [p.strip() for p in pieces]


def term_monomials(text: str, variables: list[str]) -> list[tuple[int, ...]]:
    """Exponent vectors of the terms of a printed polynomial.  Coefficients
    (integers, fractions, parenthesized rational functions) are skipped."""
    index = {name: i for i, name in enumerate(variables)}
    monomials = []
    for term in _split_top_level(text, "+-", need_space=True):
        exps = [0] * len(variables)
        for factor in _split_top_level(term.lstrip("-"), "*", need_space=False):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power or 1)
        monomials.append(tuple(exps))
    return monomials


def leading_monomial(monomials: list[tuple[int, ...]], order: str) -> tuple[int, ...]:
    if order == "lex":
        return max(monomials)
    return max(monomials, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))


def standard_monomial_count(leads: list[tuple[int, ...]], cap: int = 100_000) -> int | None:
    """Size of the order ideal of monomials no lead divides (the vector-space
    dimension of K[X]/I); None when it exceeds `cap`, i.e. not zero-dimensional."""
    arity = len(leads[0])

    def standard(m):
        return not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)

    start = (0,) * arity
    if not standard(start):
        return 0
    seen, frontier = {start}, [start]
    while frontier:
        m = frontier.pop()
        for i in range(arity):
            up = m[:i] + (m[i] + 1,) + m[i + 1:]
            if up not in seen and standard(up):
                if len(seen) >= cap:
                    return None
                seen.add(up)
                frontier.append(up)
    return len(seen)


def basis_digest(polys: list[str]) -> str:
    return hashlib.sha256("\n".join(polys).encode()).hexdigest()[:24]


# -- cases --------------------------------------------------------------------------

@dataclass
class Case:
    """One invocation and what a correct run of it reports.

    `expect` holds keys that must match the report's `result` exactly;
    `roots` (with `variables` and `order`) asks for the standard-monomial
    oracle on the basis; `golden` names the digest entry in golden.json.
    """

    name: str
    argv: list[str]
    exit_code: int = 0
    status: str = "ok"
    expect: dict = field(default_factory=dict)
    roots: int | None = None
    variables: list[str] = field(default_factory=list)
    order: str = "grevlex"
    golden: str | None = None
    after: str | None = None  # a case that must run first (writes a file this one reads)


def _xs(n: int) -> list[str]:
    return [f"x{i}" for i in range(n)]


def _gb_case(name, verb, payload, variables, roots, order="grevlex", extra=(), golden=None):
    argv = [verb, payload, *extra]
    if order != "grevlex":
        argv += ["--order", order]
    return Case(name, argv, roots=roots, variables=variables, order=order, golden=golden)


def gb_fp_cases(seed: int, workdir: Path | None = None) -> list[Case]:
    p = prime_for(seed)
    fp = f"Fp({p})"
    return [
        _gb_case("katsura-5", "gb", katsura(5, fp), _xs(6), 32, golden=f"katsura-5@{p}"),
        _gb_case("katsura-6", "gb", katsura(6, fp), _xs(7), 64, golden=f"katsura-6@{p}"),
        _gb_case("cyclic-5", "gb", cyclic(5, fp), _xs(5), 70, golden=f"cyclic-5@{p}"),
        _gb_case("cyclic-6", "gb", cyclic(6, fp), _xs(6), 156, golden=f"cyclic-6@{p}"),
        _gb_case("cyclic-5-lex", "gb", cyclic(5, fp), _xs(5), 70, order="lex", golden=f"cyclic-5-lex@{p}"),
        # the 70 roots project onto 55 points of the (x3, x4) plane; the x3,x4
        # part of the lex basis of cyclic-5 gives the same 55
        _gb_case("cyclic-5-elim", "eliminate", cyclic(5, fp), ["x3", "x4"], 55,
                 extra=("--keep", "x3,x4"), golden=f"cyclic-5-elim@{p}"),
    ]


def gb_fp_warmup(seed: int, workdir: Path | None = None) -> list[Case]:
    """The gb-fp verbs, orders and field on small systems (a full pass takes
    about 15 s, too long to repeat at every set-up)."""
    fp = f"Fp({prime_for(seed)})"
    return [
        _gb_case("katsura-3", "gb", katsura(3, fp), _xs(4), None),
        _gb_case("cyclic-4-lex", "gb", cyclic(4, fp), _xs(4), None, order="lex"),
        _gb_case("cyclic-4-elim", "eliminate", cyclic(4, fp), ["x2", "x3"], None, extra=("--keep", "x2,x3")),
    ]


def gb_coeff_cases(seed: int, workdir: Path | None = None) -> list[Case]:
    return [
        _gb_case("katsura-5-Q", "gb", katsura(5, "Q"), _xs(6), 32, golden="katsura-5@Q"),
        _gb_case("katsura-4-Qt", "gb", katsura(4, "FunField(Q; t)", one="t"), _xs(5), 16,
                 golden="katsura-4@Q(t)"),
    ]


def gb_coeff_warmup(seed: int, workdir: Path | None = None) -> list[Case]:
    """The gb-coeff fields on katsura-2."""
    return [
        _gb_case("katsura-2-Q", "gb", katsura(2, "Q"), _xs(3), None),
        _gb_case("katsura-2-Qt", "gb", katsura(2, "FunField(Q; t)", one="t"), _xs(3), None),
    ]


def _dim(kind, value=None):
    d = {"kind": kind}
    if value is not None:
        d["value"] = value
    return {"dimension": d}


def cli_corpus_cases(seed: int, workdir: Path) -> list[Case]:
    fp = f"Fp({prime_for(seed)})"
    certs = [str(workdir / f"cert{k}.json") for k in (1, 2, 3)]
    chain_ok = {"strictness": True, "avoidance": True, "substitution_transfer": True, "evaluation_witness": True}
    cases = [
        Case("readme-tensor", ["dim", "Tensor(Ext(Q;1),Ext(Q;2),Ext(Q;4))"], expect=_dim("exact", 3)),
        Case("readme-loc-nzd", ["dim", "Loc(Quot(Poly(Q; x,y); x*y); x+y)"], expect=_dim("exact", 1)),
        Case("readme-nzd", ["nzd", "Quot(Poly(Q;x,y); x*y)", "x"],
             expect={"status": "zero-divisor", "is_zero_divisor": True}),
        Case("readme-gb-lex", ["gb", "Quot(Poly(Q;x,y,z); x^2 - y, x^3 - z)", "--order", "lex"],
             expect={"order": "lex", "basis": ["y^3 - z^2", "-y^2 + x*z", "x*y - z", "x^2 - y"]}),
        Case("readme-eliminate", ["eliminate", "Quot(Poly(Q;t,x,y); x - t, y - t^2)", "--keep", "x,y"],
             expect={"keep": ["x", "y"], "generators": ["x^2 - y"]}),
        Case("readme-quotient", ["quotient", "Quot(Poly(Q;x,y); x*y)", "x"], expect={"generators": ["y"]}),
        Case("readme-saturate", ["saturate", "Quot(Poly(Q;x,y); x^2*y)", "x"], expect={"generators": ["y"]}),
        Case("readme-trdeg", ["trdeg", "Quot(Poly(Q;x,y); y^2 - x^3)", "--assert-domain"],
             expect={"trdeg": 1, "certificate": {"kind": "asserted", "flagged": True}}),
        Case("trdeg-field", ["trdeg", "Ext(Q; 3)"], expect={"trdeg": 3}),
        Case("tensor-infinite", ["dim", "Tensor(Ext(Q; inf), Ext(Q; inf))"], expect=_dim("infinite")),
        Case("tensor-interval", ["dim", "Tensor(Ext(Q; 2), Poly(FunField(Q; u); y))"],
             expect={"dimension": {"kind": "interval", "lo": 2, "hi": 3}}),
        Case("generic-fiber", ["dim", "Tensor(Ext(Q; 1), Quot(Poly(Q; x,y); x*y))"], expect=_dim("exact", 1)),
        Case("loc-poly", ["dim", "Loc(Poly(Q; x,y,z); x*y - z^2)"], expect=_dim("exact", 3)),
        Case("loc-subring", ["dim", "LocSub(Poly(FunField(Q; u); y); u)"], expect=_dim("exact", 1)),
        Case("frac", ["dim", "Frac(Poly(Q; x, y))"], expect=_dim("exact", 0)),
        Case("function-field", ["dim", "Quot(Poly(FunField(Q; t); x,y); t*x^2 - y, x*y - t)"],
             expect=_dim("exact", 0)),
        Case("nzd-fp", ["nzd", f"Quot(Poly({fp}; x,y,z); x*y - z^2)", "x"],
             expect={"status": "non-zero-divisor", "is_zero_divisor": False}),
        Case("parse-error", ["dim", "Quot(Poly(Q; x); x^2"], exit_code=1, status="user-error"),
        Case("budget", ["gb", katsura(4, fp), "--budget", "5"], exit_code=2, status="budget-exhausted"),
        # x is nilpotent, so inverting it gives the zero ring
        Case("loc-nilpotent", ["dim", "Loc(Quot(Poly(Q;x,y); x^2); x)"], expect=_dim("empty-ring")),
    ]
    for k, names in enumerate((["u"], ["u", "v"], ["u", "v", "w"])):
        n = len(names)
        fresh = ",".join(f"X{i + 1}" for i in range(n))
        cases.append(Case(
            f"chain-{n}",
            ["chain", "--witnesses", ",".join(names), "--fresh", fresh, f"Poly(Q;{','.join(names)})",
             "--out", certs[k]],
            expect={"lower_bound": n, "verification": chain_ok, "flagged_assumptions": []},
        ))
        cases.append(Case(f"verify-{n}", ["verify", certs[k]],
                          expect={"verified": True, "verification": chain_ok, "length": n}, after=f"chain-{n}"))
    return cases


def ordered(cases: list[Case], seed: int) -> list[Case]:
    """The seed's case order; a case that reads another's output stays
    right after it."""
    heads = [c for c in cases if c.after is None]
    random.Random(seed).shuffle(heads)
    out = []
    for head in heads:
        out.append(head)
        out.extend(c for c in cases if c.after == head.name)
    return out


# -- checks -------------------------------------------------------------------------

def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(case: Case, exit_code: int, report: dict | None, golden: dict[str, str]) -> list[str]:
    """Problems with one invocation's outcome; empty when it is correct."""
    problems = []
    if exit_code != case.exit_code:
        problems.append(f"exit code {exit_code}, expected {case.exit_code}")
    if report is None:
        return problems + ["no JSON report"]
    if report.get("status") != case.status:
        problems.append(f"status {report.get('status')!r}, expected {case.status!r}")
    result = report.get("result") or {}
    for key, want in case.expect.items():
        if result.get(key) != want:
            problems.append(f"result.{key} = {result.get(key)!r}, expected {want!r}")
    if case.roots is not None or case.golden is not None:
        polys = result.get("basis", result.get("generators"))
        if not isinstance(polys, list) or not polys:
            return problems + ["no basis in the result"]
        if case.roots is not None:
            leads = [leading_monomial(term_monomials(p, case.variables), case.order) for p in polys]
            count = standard_monomial_count(leads)
            if count != case.roots:
                problems.append(f"{count} standard monomials, expected {case.roots}")
        if case.golden is not None:
            want = golden.get(case.golden)
            if want is None:
                problems.append(f"no golden digest for {case.golden}")
            elif basis_digest(polys) != want:
                problems.append(f"basis digest differs from golden {case.golden}")
    return problems


def is_wrong_answer(exit_code: int, problems: list[str]) -> bool:
    """A run that reports success with a wrong result, or succeeds where an
    error is expected.  A refused run (an error exit where success is
    expected) is a failed operation, not a wrong answer."""
    return bool(problems) and exit_code == 0
