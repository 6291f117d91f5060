"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_determinism.py

The traced counters must repeat exactly, whatever the hash seed, or they
cannot be compared across commits; BENCHMARK.json must declare exactly the
metrics and workloads the harness prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402

# One traced pass over katsura-5 over F_32003 and one over the CLI corpus;
# prints every per-layer metric that is not a time.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, tracer, workloads
sys.path.insert(0, str(run.SRC))
run.OUT_DIR.mkdir(exist_ok=True)
cli = run.load_program()
counted = {name for name, unit, _, _ in tracer.LAYER_METRICS if unit in ("count", "ratio")}
passes = {
    "katsura-5": workloads.gb_fp_cases(0)[:1],
    "cli-corpus": workloads.ordered(workloads.cli_corpus_cases(0, run.OUT_DIR), 0),
}
out = {}
for name, cases in passes.items():
    t = tracer.Tracer()
    mark = t.mark()
    t.install()
    try:
        run.run_pass(cli, cases, run.Outcomes({}), t)
    finally:
        t.uninstall()
    out[name] = {k: v for k, v in t.metrics_since(mark).items() if k in counted}
print(json.dumps(out, sort_keys=True))
"""


def traced_counts(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(BENCH_DIR)],
        env=env, cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_counts_repeat_across_hash_seeds():
    first, second = traced_counts(1), traced_counts(2)
    assert first == second
    k5 = first["katsura-5"]
    normal_forms = k5["ideals.normal_form_calls"]
    assert (
        k5["ideals.pair_reductions"],
        normal_forms,
        round(k5["ideals.nf_zero_ratio"] * normal_forms),
        k5["polynomials.leading_calls"],
        k5["orderings.compare_calls"],
    ) == (64, 104, 48, 6157, 208082)


def test_benchmark_json_declares_what_the_harness_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracer.LAYER_METRICS
    ]
