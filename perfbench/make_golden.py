"""Write golden.json: the digest of every golden case's basis text, over
every prime of workloads.PRIMES.

    python3 perfbench/make_golden.py

A digest is written only for an output that passes the standard-monomial
oracle.  The reduced Groebner basis is unique, so the file needs no
regeneration unless the report's text form changes on purpose.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.load_program()
    cases = {}
    for seed in range(len(workloads.PRIMES)):
        for case in workloads.gb_fp_cases(seed) + workloads.gb_coeff_cases(seed):
            cases[case.golden] = case
    golden = {}
    for key, case in sorted(cases.items()):
        code, output, _ = run.invoke(cli, case.argv)
        report = json.loads(output)
        problems = workloads.check(dataclasses.replace(case, golden=None), code, report, {})
        if problems:
            print(f"{key}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        result = report["result"]
        golden[key] = workloads.basis_digest(result.get("basis", result.get("generators")))
        print(key, golden[key], file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
