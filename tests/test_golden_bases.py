"""Pinned reduced Groebner bases, as the CLI prints them.

A reduced basis is unique for a given ideal and monomial order, so any
correct engine prints exactly these strings: a change in term order,
coefficient or basis element is a regression in the engine or in
``format_polynomial``.  The systems are katsura-3, katsura-4 and cyclic-4
over F_32003, under grevlex and lex, plus the elimination of x0, x1 from
cyclic-4.  Three grevlex bases over rational function fields pin the
canonical ``RatFunc`` form (reduced, monic denominator) through a whole
Buchberger run: katsura-3 over Q(t) with the constant t, a two-generator
system over Q(t) whose basis has a true denominator, and a system over
F_7(t, u) with sums in its denominators.  The number of pairs reduced on
the way is pinned too: J-pairs under grevlex, where the signature loop
runs, and S-pairs under lex and the block order that ranks x0, x1 first.
It fixes which pairs the criteria let through, which no basis text shows,
and with it the order in which each loop pops them; the J-pair counts of
the benchmark's grevlex systems (katsura-5/6, cyclic-5/6) are pinned too,
and so are the flags the signature loop's bulk screen raises on them.
Last, the benchmark's own oracle (standard-monomial count and basis
digest, ``perfbench/workloads.py``) judges the gb-fp and gb-coeff cases.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

from ringdim import GREVLEX, LEX, BlockElimination, Budget, buchberger, cli, parse_ring_expr
from ringdim.orderings import PackedMonomials

KATSURA_3 = (
    "Quot(Poly(Fp(32003); x0,x1,x2,x3); x0 + 2*x1 + 2*x2 + 2*x3 - 1, "
    "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0, 2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1, "
    "2*x0*x2 + x1^2 + 2*x1*x3 - x2)"
)
KATSURA_4 = (
    "Quot(Poly(Fp(32003); x0,x1,x2,x3,x4); x0 + 2*x1 + 2*x2 + 2*x3 + 2*x4 - 1, "
    "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 - x0, "
    "2*x0*x1 + 2*x1*x2 + 2*x2*x3 + 2*x3*x4 - x1, "
    "2*x0*x2 + x1^2 + 2*x1*x3 + 2*x2*x4 - x2, "
    "2*x0*x3 + 2*x1*x2 + 2*x1*x4 - x3)"
)
CYCLIC_4 = (
    "Quot(Poly(Fp(32003); x0,x1,x2,x3); x0 + x1 + x2 + x3, "
    "x0*x1 + x1*x2 + x2*x3 + x3*x0, "
    "x0*x1*x2 + x1*x2*x3 + x2*x3*x0 + x3*x0*x1, x0*x1*x2*x3 - 1)"
)


def _quot(field: str, variables: str, relations: str) -> str:
    return f"Quot(Poly({field}; {variables}); {relations})"


# The systems over function fields are assembled from parts, so the
# ring-expression literals of this file stay those that golden_reports.json
# already pins as ``dim`` reports.
KATSURA_3_QT = _quot(
    "FunField(Q; t)",
    "x0,x1,x2,x3",
    "x0 + 2*x1 + 2*x2 + 2*x3 - t, x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0, "
    "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1, 2*x0*x2 + x1^2 + 2*x1*x3 - x2",
)
OVER_T_QT = _quot("FunField(Q; t)", "x,y", "x/t - y, t*x*y - 1")
TU_F7 = _quot("FunField(Fp(7); t,u)", "x,y,z", "(t+u)*x^2 - y*z, (t - u)*x*y - z + 1, y^2 + t*x*z - u")

SYSTEMS = {
    "katsura-3": KATSURA_3,
    "katsura-4": KATSURA_4,
    "cyclic-4": CYCLIC_4,
    "katsura-3-Qt": KATSURA_3_QT,
    "over-t-Qt": OVER_T_QT,
    "tu-F7": TU_F7,
}

EXPECTED = {
    'katsura-3/grevlex': [
        'x0 + 2*x1 + 2*x2 + 2*x3 + 32002',
        'x2^2 + 2*x1*x3 + 18292*x2*x3 + 27435*x3^2 + 27431*x1 + 13715*x2 + 22858*x3',
        'x1*x2 + 32001*x1*x3 + 22856*x2*x3 + 18284*x3^2 + 2286*x1 + 9144*x2 + 4573*x3',
        'x1^2 + 2*x1*x3 + 4573*x2*x3 + 22861*x3^2 + 22859*x1 + 27431*x2 + 13715*x3',
        'x2*x3^2 + 3557*x3^3 + 30225*x1*x3 + 28842*x2*x3 + 5926*x3^2 + 21928*x1 + 25879*x2 + 11853*x3',
        'x1*x3^2 + 21335*x3^3 + 28447*x1*x3 + 21928*x2*x3 + 3556*x3^2 + 31114*x1 + 20150*x2',
        'x3^4 + 12535*x3^3 + 7471*x1*x3 + 6188*x2*x3 + 10117*x3^2 + 10521*x1 + 11393*x2 + 11829*x3',
    ],
    'katsura-3/lex': [
        'x3^8 + 5818*x3^7 + 9698*x3^6 + 26753*x3^5 + 26300*x3^4 + 19728*x3^3 + 8220*x3^2 + 31455*x3',
        '15273*x3^7 + 1431*x3^6 + 13814*x3^5 + 15130*x3^4 + 29866*x3^3 + 15441*x3^2 + x2 + 23570*x3',
        '7531*x3^7 + 16886*x3^6 + 3641*x3^5 + 26518*x3^4 + 16465*x3^3 + 19875*x3^2 + x1 + 2116*x3',
        '18398*x3^7 + 27372*x3^6 + 29096*x3^5 + 12713*x3^4 + 3347*x3^3 + 25377*x3^2 + x0 + 12636*x3 + 32002',
    ],
    'katsura-4/grevlex': [
        'x0 + 2*x1 + 2*x2 + 2*x3 + 2*x4 + 32002',
        'x2*x3 + 3557*x3^2 + x1*x4 + 7114*x2*x4 + 21339*x3*x4 + 21338*x4^2 + 30225*x1 + 24891*x2 + 16001*x3 + 3555*x4',
        'x2^2 + 2*x1*x3 + 24890*x3^2 + 31999*x1*x4 + 17773*x2*x4 + 21326*x3*x4 + 21327*x4^2 + 3556*x1 + 14224*x2 + x3 + 24894*x4',
        'x1*x2 + 32001*x1*x3 + 7112*x3^2 + 3*x1*x4 + 14228*x2*x4 + 10673*x3*x4 + 10673*x4^2 + 28447*x1 + 17779*x2 + 16001*x3 + 7110*x4',
        'x1^2 + 2*x1*x3 + 14224*x3^2 + 28446*x2*x4 + 21334*x3*x4 + 21334*x4^2 + 24891*x1 + 3556*x2 + 14224*x4',
        'x3^2*x4 + 2*x2*x4^2 + 29098*x3*x4^2 + 11641*x4^3 + 20608*x3^2 + 8728*x1*x4 + 12122*x2*x4 + 10182*x3*x4 + 7272*x4^2 + 18426*x1 + 16244*x2 + 25457*x3 + 14062*x4',
        'x1*x3*x4 + 5818*x1*x4^2 + 10182*x2*x4^2 + 19783*x3*x4^2 + 18619*x4^3 + 7637*x1*x3 + 25659*x3^2 + 15856*x1*x4 + 3459*x2*x4 + 20996*x3*x4 + 24342*x4^2 + 30120*x1 + 7233*x2 + 28932*x4',
        'x3^3 + 32001*x1*x4^2 + 5810*x2*x4^2 + 1735*x3*x4^2 + 8136*x4^3 + 8728*x1*x3 + 26561*x3^2 + 2619*x1*x4 + 14139*x2*x4 + 14193*x3*x4 + 12159*x4^2 + 10673*x1 + 11368*x2 + 26669*x3 + 27046*x4',
        'x1*x3^2 + 26185*x1*x4^2 + 29095*x2*x4^2 + 13385*x3*x4^2 + 5239*x4^3 + 15274*x1*x3 + 8755*x3^2 + 4073*x1*x4 + 3254*x2*x4 + 1907*x3*x4 + 8598*x4^2 + 17273*x1 + 7462*x2 + 16244*x3 + 24999*x4',
        'x3*x4^3 + 22157*x4^4 + 20925*x1*x4^2 + 31561*x2*x4^2 + 13746*x3*x4^2 + 26221*x4^3 + 25170*x1*x3 + 4173*x3^2 + 25363*x1*x4 + 14578*x2*x4 + 28984*x3*x4 + 5717*x4^2 + 14392*x1 + 806*x2 + 1601*x3 + 13325*x4',
        'x2*x4^3 + 7385*x4^4 + 5856*x1*x4^2 + 31094*x2*x4^2 + 826*x3*x4^2 + 13965*x4^3 + 15888*x1*x3 + 6928*x3^2 + 7335*x1*x4 + 20052*x2*x4 + 2959*x3*x4 + 20310*x4^2 + 6961*x1 + 6992*x2 + 22744*x3 + 28149*x4',
        'x1*x4^3 + 28721*x4^4 + 17742*x1*x4^2 + 24371*x2*x4^2 + 31132*x3*x4^2 + 9576*x4^3 + 2161*x1*x3 + 8672*x3^2 + 1810*x1*x4 + 10636*x2*x4 + 15745*x3*x4 + 20397*x4^2 + 9336*x1 + 15739*x2 + 18812*x3 + 10038*x4',
        'x4^5 + 609*x4^4 + 10742*x1*x4^2 + 8092*x2*x4^2 + 1894*x3*x4^2 + 21447*x4^3 + 31759*x1*x3 + 5920*x3^2 + 30606*x1*x4 + 7087*x2*x4 + 4645*x3*x4 + 17103*x4^2 + 8244*x1 + 8527*x2 + 27847*x3 + 2166*x4',
    ],
    'katsura-4/lex': [
        'x4^16 + 27430*x4^15 + 25635*x4^14 + 24732*x4^13 + 7717*x4^12 + 21282*x4^11 + 17959*x4^10 + 18061*x4^9 + 3622*x4^8 + 1970*x4^7 + 25313*x4^6 + 9323*x4^5 + 13406*x4^4 + 23374*x4^3 + 4278*x4^2 + 12949*x4',
        '19923*x4^15 + 7944*x4^14 + 20118*x4^13 + 23726*x4^12 + 9984*x4^11 + 690*x4^10 + 18755*x4^9 + 27022*x4^8 + 26362*x4^7 + 1724*x4^6 + 7709*x4^5 + 8886*x4^4 + 23673*x4^3 + 1093*x4^2 + x3 + 3543*x4',
        '16580*x4^15 + 13127*x4^14 + 3702*x4^13 + 2829*x4^12 + 17395*x4^11 + 3809*x4^10 + 22684*x4^9 + 27126*x4^8 + 26355*x4^7 + 10453*x4^6 + 19233*x4^5 + 2322*x4^4 + 18323*x4^3 + 20454*x4^2 + x2 + 20121*x4',
        '15170*x4^15 + 23860*x4^14 + 4701*x4^13 + 20457*x4^12 + 15175*x4^11 + 11308*x4^10 + 30338*x4^9 + 4264*x4^8 + 19960*x4^7 + 16880*x4^6 + 10353*x4^5 + 15102*x4^4 + 13722*x4^3 + 16107*x4^2 + x1 + 31359*x4',
        '24666*x4^15 + 6147*x4^14 + 6964*x4^13 + 1985*x4^12 + 10901*x4^11 + 389*x4^10 + 16461*x4^9 + 11188*x4^8 + 14661*x4^7 + 5892*x4^6 + 21419*x4^5 + 11386*x4^4 + 16576*x4^3 + 20701*x4^2 + x0 + 17968*x4 + 32002',
    ],
    'cyclic-4/grevlex': [
        'x0 + x1 + x2 + x3',
        'x1^2 + 2*x1*x3 + x3^2',
        'x1*x2^2 + x2^2*x3 + 32002*x1*x3^2 + 32002*x3^3',
        'x1*x2*x3^2 + x2^2*x3^2 + 32002*x1*x3^3 + x2*x3^3 + 32002*x3^4 + 32002',
        'x1*x3^4 + x3^5 + 32002*x1 + 32002*x3',
        'x2^3*x3^2 + x2^2*x3^3 + 32002*x2 + 32002*x3',
        'x2^2*x3^4 + x1*x2 + 32002*x1*x3 + x2*x3 + 32001*x3^2',
    ],
    'cyclic-4/lex': [
        'x2^2*x3^6 + 32002*x2^2*x3^2 + 32002*x3^4 + 1',
        'x2^3*x3^2 + x2^2*x3^3 + 32002*x2 + 32002*x3',
        'x1*x3^4 + x3^5 + 32002*x1 + 32002*x3',
        'x2^2*x3^4 + x1*x2 + 32002*x1*x3 + x2*x3 + 32001*x3^2',
        'x1^2 + 2*x1*x3 + x3^2',
        'x0 + x1 + x2 + x3',
    ],
    'cyclic-4/eliminate': [
        'x2^3*x3^2 + x2^2*x3^3 + 32002*x2 + 32002*x3',
        'x2^2*x3^6 + 32002*x2^2*x3^2 + 32002*x3^4 + 1',
    ],
    'katsura-3-Qt/grevlex': [
        'x0 + 2*x1 + 2*x2 + 2*x3 - (t)',
        'x2^2 + 2*x1*x3 + 32/7*x2*x3 + 27/7*x3^2 - (2/7*t - 1/7)*x1 - (8/7*t - 4/7)*x2 - (18/7*t - 9/7)*x3 + (9/14*t^2 - 9/14*t)',
        'x1*x2 - 2*x1*x3 - 23/7*x2*x3 - 24/7*x3^2 + (1/7*t - 1/14)*x1 + (4/7*t - 2/7)*x2 + (16/7*t - 8/7)*x3 - (4/7*t^2 - 4/7*t)',
        'x1^2 + 2*x1*x3 + 8/7*x2*x3 + 12/7*x3^2 - (4/7*t - 2/7)*x1 - (2/7*t - 1/7)*x2 - (8/7*t - 4/7)*x3 + (2/7*t^2 - 2/7*t)',
        'x2*x3^2 + 10/9*x3^3 - (1/9*t - 1/18)*x1*x3 - (34/81*t - 17/81)*x2*x3 - (26/27*t - 13/27)*x3^2 - (1/81*t^2 - 1/81*t - 1/54)*x1 - (4/81*t^2 - 4/81*t - 5/162)*x2 + (1/3*t^2 - 1/3*t + 1/27)*x3 - (1/27*t^3 - 1/18*t^2 + 1/54*t)',
        'x1*x3^2 - 1/3*x3^3 - (2/9*t - 1/9)*x1*x3 + (1/27*t - 1/54)*x2*x3 + (2/9*t - 1/9)*x3^2 + (5/54*t^2 - 5/54*t - 1/36)*x1 + (4/27*t^2 - 4/27*t - 1/27)*x2 - (1/18*t^2 - 1/18*t)*x3',
        'x3^4 - (724/891*t - 362/891)*x3^3 - (221/891*t^2 - 221/891*t - 37/891)*x1*x3 - (4418/8019*t^2 - 4418/8019*t - 1841/16038)*x2*x3 - (377/5346*t^2 - 377/5346*t - 206/2673)*x3^2 + (175/8019*t^3 - 175/5346*t^2 + 68/8019*t + 13/10692)*x1 + (943/8019*t^3 - 943/5346*t^2 + 277/8019*t + 389/32076)*x2 + (59/297*t^3 - 59/198*t^2 + 343/5346*t + 47/2673)*x3 - (149/2673*t^4 - 298/2673*t^3 + 251/5346*t^2 + 47/5346*t)',
    ],
    'over-t-Qt/grevlex': [
        'x - (t)*y',
        'y^2 - (1)/(t^2)',
    ],
    'tu-F7/grevlex': [
        'y^2 + (t)*x*z + (6*u)',
        'x*y + (6)/(t + 6*u)*z + (1)/(t + 6*u)',
        'x^2 + (6)/(t + u)*y*z',
        'z^3 + (6*t*u + u^2)/(t)*y*z + (6*t^2 + t*u + t + u)/(t^2 + 6*t*u)*z^2 + (5*t + 5*u)/(t^2 + 6*t*u)*z + (t + u)/(t^2 + 6*t*u)',
        'y*z^2 + (t + u)/(t^2 + 6*t*u)*y*z + (6*t*u + 6*u^2)/(t)*x + (6*t + 6*u)/(t^2 + 6*t*u)*y',
        'x*z^2 + (t + u)/(t^2 + 6*t*u)*x*z + (6*t + 6*u)/(t^2 + 6*t*u)*x + (6*u)/(t)*z',
    ],
}


def _argv(case: str) -> list[str]:
    system, _, how = case.partition("/")
    if how == "eliminate":
        return ["eliminate", SYSTEMS[system], "--keep", "x2,x3"]
    return ["gb", SYSTEMS[system], "--order", how]


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_reduced_basis_text_is_pinned(case, capsys):
    code = cli.main(_argv(case))
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_OK, report
    result = report["result"]
    assert result.get("basis", result.get("generators")) == EXPECTED[case]


PAIR_REDUCTIONS = {
    "katsura-3/grevlex": 3,
    "katsura-3/lex": 22,
    "katsura-4/grevlex": 10,
    "katsura-4/lex": 131,
    "katsura-4/block01": 42,
    "cyclic-4/grevlex": 4,
    "cyclic-4/lex": 14,
    "cyclic-4/block01": 14,
    "katsura-3-Qt/grevlex": 3,
    "over-t-Qt/grevlex": 0,
    "tu-F7/grevlex": 3,
}


@pytest.mark.parametrize("case", sorted(PAIR_REDUCTIONS))
def test_pair_reductions_are_pinned(case):
    system, _, how = case.partition("/")
    budget = Budget()
    order = {"grevlex": GREVLEX, "lex": LEX, "block01": BlockElimination(frozenset({0, 1}))}[how]
    buchberger(parse_ring_expr(SYSTEMS[system]).relations, order, budget)
    assert budget.used == PAIR_REDUCTIONS[case]


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _pass_the_benchmark_oracle(cases, workloads, capsys):
    golden = workloads.load_golden()
    for case in cases:
        code = cli.main(case.argv)
        report = json.loads(capsys.readouterr().out)
        assert workloads.check(case, code, report, golden) == [], case.name


def test_gb_coeff_cases_pass_the_benchmark_oracle(capsys):
    # the benchmark judges katsura-5 over Q and katsura-4 over Q(t) by their
    # standard-monomial counts and basis digests; the same check runs here
    workloads = _load_workloads()
    _pass_the_benchmark_oracle(workloads.gb_coeff_cases(0), workloads, capsys)


def test_gb_fp_cases_pass_the_benchmark_oracle(capsys):
    # katsura-5/6 and cyclic-5/6 over F_32003, under grevlex, lex and the
    # cyclic-5 elimination: the systems on which the signature loop's pair
    # screen decides tens of thousands of pairs
    workloads = _load_workloads()
    _pass_the_benchmark_oracle(workloads.gb_fp_cases(0), workloads, capsys)


# J-pairs reduced on the grevlex gb-fp systems of the benchmark over
# F_32009 (the oracle test above runs over F_32003, and katsura-6 over
# F_32057, with the same counts)
BENCHMARK_PAIR_REDUCTIONS = {"katsura-5": 20, "katsura-6": 44, "cyclic-5": 44, "cyclic-6": 210}


@pytest.mark.parametrize("name", sorted(BENCHMARK_PAIR_REDUCTIONS))
def test_benchmark_pair_reductions_are_pinned(name):
    workloads = _load_workloads()
    assert workloads.prime_for(1) == 32009
    case = next(case for case in workloads.gb_fp_cases(1) if case.name == name)
    budget = Budget()
    buchberger(parse_ring_expr(case.argv[1]).relations, GREVLEX, budget)
    assert budget.used == BENCHMARK_PAIR_REDUCTIONS[name]


# J-pairs reduced on the gb-coeff systems of the benchmark: division over Q
# without fractions must reduce the J-pairs that division with them did
GB_COEFF_PAIR_REDUCTIONS = {"katsura-5-Q": 20, "katsura-4-Qt": 10}


@pytest.mark.parametrize("name", sorted(GB_COEFF_PAIR_REDUCTIONS))
def test_gb_coeff_pair_reductions_are_pinned(name):
    workloads = _load_workloads()
    case = next(case for case in workloads.gb_coeff_cases(0) if case.name == name)
    budget = Budget()
    buchberger(parse_ring_expr(case.argv[1]).relations, GREVLEX, budget)
    assert budget.used == GB_COEFF_PAIR_REDUCTIONS[name]


# Flags the signature loop's bulk screen raises (``PackedMonomials.slot_hits``)
# on the grevlex gb-fp systems over F_32009: bit 0 of a slot where the new
# element's mask meets lcm(l_a, e) - e, bit 1 where the earlier element's own
# mask meets lcm(l_a, e) - l_a.  The screen drops only J-pairs that the tests
# pair by pair would drop as well, so no basis and no J-pair count shows a
# screen that stopped screening; these counts do.
SCREEN_FLAGS = {"katsura-5": (190, 53), "katsura-6": (762, 282), "cyclic-5": (673, 191), "cyclic-6": (14509, 6713)}


@pytest.mark.parametrize("name", sorted(SCREEN_FLAGS))
def test_bulk_screen_flags_are_pinned(name):
    workloads = _load_workloads()
    case = next(case for case in workloads.gb_fp_cases(1) if case.name == name)
    slot_hits, flags = PackedMonomials.slot_hits, [0, 0]

    def counting(self, *args):
        hits = slot_hits(self, *args)
        flags[0] += sum(hit & 1 for hit in hits)
        flags[1] += sum(hit >> 1 for hit in hits)
        return hits

    with patch.object(PackedMonomials, "slot_hits", counting):
        buchberger(parse_ring_expr(case.argv[1]).relations, GREVLEX, Budget())
    assert tuple(flags) == SCREEN_FLAGS[name]
