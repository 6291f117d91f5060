"""ringdim benchmark: end-to-end and per-layer metrics on a fixed corpus.

    python3 perfbench/run.py --workload gb-fp --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One process drives `ringdim.cli.main(argv)` in-process, one
invocation at a time (a closed loop with one client, no threads).  The
traced run also launches subprocesses through `sys.executable` to time
interpreter start, the import of ringdim.cli and cold start.

Workloads (the seed picks the prime of every F_p case and the case order):
  gb-fp       gb/eliminate on katsura-5/6 and cyclic-5/6 over F_p: the
              monomial and pair machinery does the work.
  gb-coeff    the same engine where coefficient arithmetic dominates:
              katsura-5 over Q and katsura-4 over Q(t).
  cli-corpus  26 small invocations covering every verb and the error
              paths: parsing, the calculus rules and report emission.

`--trace 0` prints the end-to-end metrics, measured untraced; their times
are wall times scaled to a reference speed of the machine (see `measure`).
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics of tracer.LAYER_METRICS, in plain wall time; its spans are written
to perfbench/out/.

Every output is checked (see workloads.check).  An operation is one case
of the workload (plus the cold-start launch with --trace 1): `attempted`
counts the cases run and `failed` the cases with any invocation whose exit
code or output is wrong, so both are the same on every run whatever the
number of repetitions the window allows.  `correct` turns false only when
an invocation reports success with a wrong result.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
MIN_SAMPLES = 3
REF_PRODUCTS = 2
REF_REPEATS = 5
BLOCK_SECONDS = 0.5
REF_SECONDS = 0.0036  # the reference's time on a quiet 2.1 GHz Xeon VM core
LAUNCHES = 15
COLD_START_ARGV = ["dim", "Loc(Quot(Poly(Q; x,y); x*y); x+y)"]
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verbs_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

# name -> (timed cases, warm-up cases); both take (seed, work directory)
WORKLOADS = {
    "gb-fp": (workloads.gb_fp_cases, workloads.gb_fp_warmup),
    "gb-coeff": (workloads.gb_coeff_cases, workloads.gb_coeff_warmup),
    "cli-corpus": (workloads.cli_corpus_cases, workloads.cli_corpus_cases),
}


def load_program():
    """Import ringdim.cli afresh from the checkout's sources."""
    for name in [n for n in sys.modules if n == "ringdim" or n.startswith("ringdim.")]:
        del sys.modules[name]
    cli = importlib.import_module("ringdim.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ringdim imported from {cli.__file__}, not from {SRC}")
    return cli


class Outcomes:
    """Checked results of every invocation, counted per case."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.cases: set[str] = set()
        self.wrong = 0
        self.failures: Counter = Counter()
        self.first_problem: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.cases)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, case, exit_code, output: str):
        self.cases.add(case.name)
        try:
            report = json.loads(output)
        except ValueError:
            report = None
        problems = workloads.check(case, exit_code, report, self.golden)
        if problems:
            self.failures[case.name] += 1
            self.first_problem.setdefault(case.name, "; ".join(problems))
            if workloads.is_wrong_answer(exit_code, problems):
                self.wrong += 1


def invoke(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """One in-process `ringdim` run: exit code, stdout and wall time."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation; the run goes on
        code = None
        traceback.print_exc(file=sys.stderr)
    return code, out.getvalue(), perf_counter() - start


def run_pass(cli, cases, outcomes: Outcomes, tracer=None, pass_no=0) -> list[float]:
    """One pass over the cases; returns each invocation's wall time."""
    gc.collect()
    latencies = []
    for case in cases:
        if tracer is not None:
            tracer.invocation = f"{pass_no}:{case.name}"
        code, output, elapsed = invoke(cli, case.argv)
        latencies.append(elapsed)
        outcomes.record(case, code, output)
    return latencies


def nearest_rank(values: list[float], q: float) -> float:
    """The ceil(q*n)-th smallest value."""
    return sorted(values)[max(math.ceil(q * len(values)), 1) - 1]


def reference() -> float:
    """Median wall time of REF_REPEATS runs of a fixed pure-Python product of
    two sparse polynomials (exponent tuples as dict keys, coefficients mod a
    prime, a leading term picked by a key function): the program's kind of
    work, timed to give the machine's current speed.  It shares no code with
    ringdim, so a change to the program cannot move it."""
    times = []
    for _ in range(REF_REPEATS):
        start = perf_counter()
        for _ in range(REF_PRODUCTS):
            product: dict = {}
            for u, c in _REF_A.items():
                for v, d in _REF_B.items():
                    m = tuple(x + y for x, y in zip(u, v))
                    product[m] = (product.get(m, 0) + c * d) % 32003
            max(product, key=lambda m: (sum(m), tuple(-x for x in reversed(m))))
        times.append(perf_counter() - start)
    return statistics.median(times)


_REF_A = {(i % 3, i % 5, i % 7, i % 2, i % 4, i % 6): 7 * i + 1 for i in range(40)}
_REF_B = {(i % 2, i % 3, i % 4, i % 5, i % 6, i % 7): 11 * i + 3 for i in range(25)}


def scaled(work, before: float | None = None) -> tuple[object, float, float]:
    """Run `work()` between two reference measurements (`before`, when
    given, is the one that ended the previous block); returns its result,
    the factor that scales wall times measured inside it to a machine whose
    reference takes REF_SECONDS, and the closing reference measurement."""
    if before is None:
        before = reference()
    result = work()
    after = reference()
    return result, 2.0 * REF_SECONDS / (before + after), after


def measure(args, cases, cli, outcomes: Outcomes) -> dict[str, float]:
    """Untraced runs of every case, pass after pass, each case until it has
    MIN_SAMPLES runs and its share (seconds / number of cases) of the
    window, so short cases get many samples and long ones at least three.

    Other tenants of the machine slow it by up to 1.8x for minutes at a
    time, which no amount of sampling inside one run averages out.  The
    runs therefore go in blocks of at least BLOCK_SECONDS (a single run when
    it is longer) between reference measurements, and a block's wall times
    are scaled to the reference speed (see `scaled`); a case costs the
    median of its scaled times.  pass_s sums the costs over the cases,
    verbs_per_s is the number of cases over pass_s, and the latency
    percentiles are taken over the cases."""
    share = args.seconds / len(cases)
    wall = [0.0] * len(cases)
    runs = [0] * len(cases)
    pending = list(range(len(cases)))
    queue: list[int] = []

    def block() -> list[tuple[int, float]]:
        nonlocal pending
        done = []
        start = perf_counter()
        while pending and (not done or perf_counter() - start < BLOCK_SECONDS):
            if not queue:
                gc.collect()
                queue.extend(pending)
            i = queue.pop(0)
            code, output, elapsed = invoke(cli, cases[i].argv)
            outcomes.record(cases[i], code, output)
            done.append((i, elapsed))
            runs[i] += 1
            wall[i] += elapsed
            if not queue:
                pending = [j for j in pending if runs[j] < MIN_SAMPLES or wall[j] < share]
        return done

    samples: list[list[float]] = [[] for _ in cases]
    ref = None
    while pending:
        done, scale, ref = scaled(block, ref)
        for i, elapsed in done:
            samples[i].append(elapsed * scale)
    cost = [statistics.median(times) for times in samples]
    print("perfbench: runs, mean wall time and scaled cost per case: " + ", ".join(
        f"{c.name} {n}x {w / n * 1000:.1f}/{m * 1000:.1f} ms"
        for c, n, w, m in zip(cases, runs, wall, cost)), file=sys.stderr)
    return {
        "pass_s": sum(cost),
        "verbs_per_s": len(cost) / sum(cost),
        "latency_ms_p50": nearest_rank(cost, 0.5) * 1000.0,
        "latency_ms_p90": nearest_rank(cost, 0.9) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def launch_ms(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    return (perf_counter() - start) * 1000.0, proc


_IMPORT_PROBE = "import time; t = time.perf_counter(); import ringdim.cli; print((time.perf_counter() - t) * 1000.0)"


def start_layers(outcomes: Outcomes) -> dict[str, float]:
    """Medians over fresh processes of interpreter start (`-c pass`), the
    import of ringdim.cli, and cold start (`-m ringdim dim ...`), launched in
    turn after one untimed launch that fills the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cold_argv = [sys.executable, "-m", "ringdim", *COLD_START_ARGV]
    cold_case = workloads.Case("cold-start", COLD_START_ARGV, expect={"dimension": {"kind": "exact", "value": 1}})
    launch_ms(cold_argv, env)
    interpreter, imports, cold = [], [], []
    for _ in range(LAUNCHES):
        interpreter.append(launch_ms([sys.executable, "-c", "pass"], env)[0])
        _, proc = launch_ms([sys.executable, "-c", _IMPORT_PROBE], env)
        if proc.returncode != 0:
            raise RuntimeError(f"importing ringdim.cli failed:\n{proc.stderr}")
        imports.append(float(proc.stdout))
        ms, proc = launch_ms(cold_argv, env)
        cold.append(ms)
        outcomes.record(cold_case, proc.returncode, proc.stdout)
    return {
        "cli.interpreter_start_ms": statistics.median(interpreter),
        "cli.import_ms": statistics.median(imports),
        "cli.cold_start_ms": statistics.median(cold),
    }


def measure_layers(args, cases, cli, outcomes: Outcomes) -> dict[str, float]:
    """Alternate untraced and traced passes until the window closes; the
    per-layer numbers are medians over the traced passes."""
    tracer = tracing.Tracer()
    untraced, traced, per_pass = [], [], []
    deadline = perf_counter() + args.seconds
    while True:
        untraced.append(sum(run_pass(cli, cases, outcomes)))
        mark = tracer.mark()
        tracer.install()
        try:
            traced.append(sum(run_pass(cli, cases, outcomes, tracer, len(traced))))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics_since(mark))
        if perf_counter() >= deadline:
            break
    metrics = tracing.median_metrics(per_pass)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics.update(start_layers(outcomes))
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "invocation"], "spans": tracer.spans}, fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringdim" / "cli.py").is_file():
        print(f"perfbench: no ringdim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # time imports from cached bytecode, as an installed package runs,
    # whatever the environment says
    sys.dont_write_bytecode = False
    OUT_DIR.mkdir(exist_ok=True)
    make_cases, make_warmup = WORKLOADS[args.workload]
    outcomes = Outcomes(workloads.load_golden())

    def set_up():
        start = perf_counter()
        cli = load_program()
        cases = workloads.ordered(make_cases(args.seed, OUT_DIR), args.seed)
        for case in workloads.ordered(make_warmup(args.seed, OUT_DIR), args.seed):
            invoke(cli, case.argv)
        return cli, cases, perf_counter() - start

    setup = []
    ref = None
    for _ in range(SETUP_REPEATS):
        (cli, cases, elapsed), scale, ref = scaled(set_up, ref)
        setup.append(elapsed * scale)

    if args.trace:
        metrics = measure_layers(args, cases, cli, outcomes)
        units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    else:
        metrics = {"setup_s": statistics.median(setup), **measure(args, cases, cli, outcomes)}
        units = dict(END_TO_END)

    for name, count in sorted(outcomes.failures.items()):
        print(f"perfbench: {name} failed {count} time(s): {outcomes.first_problem[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
