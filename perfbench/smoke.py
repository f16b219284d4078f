"""Fast smoke test of the benchmark itself, with tiny simulation caps.

Usage (from the repository root): python3 perfbench/smoke.py

Checks that a plain and a traced run of every workload emit exactly the
metrics BENCHMARK.json names, each with its unit, with no failed
operation; and that an injected failing check (one reference value moved
by 1e-6 relative) is counted as failed.  Exits nonzero on any problem.
"""

from __future__ import annotations

import copy
import sys

import run

SEED = 7


def _check_run(workload: str, trace: bool, bench: dict) -> list[str]:
    line = run.measure(workload, SEED, seconds=1, trace=trace, tiny=True)["line"]
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[section]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    problems = []
    if got != want:
        missing = sorted(set(want) - set(got))
        wrong = sorted(k for k in want if k in got and got[k] != want[k])
        extra = sorted(set(got) - set(want))
        problems.append(f"missing {missing}, wrong unit {wrong}, unexpected {extra}")
    if any(not isinstance(m["value"], (int, float)) for m in line["metrics"].values()):
        problems.append("a metric value is not a number")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        problems.append(f"expected a clean run, got {line['failed']} of "
                        f"{line['attempted']} failed")
    return [f"{workload} trace={int(trace)}: {p}" for p in problems]


def _check_injected_failure() -> list[str]:
    reference = copy.deepcopy(run.load_reference())
    reference["fig2_k4"]["10"] *= 1.0 + 1e-6
    out = run.measure("closed_form", SEED, seconds=1, trace=False, tiny=True,
                      reference=reference)
    line, record = out["line"], out["record"]
    if line["correct"] or line["failed"] < 1 or not record["failed_share"] > 0:
        return [f"injected failure not counted: {line['failed']} failed, "
                f"failed_share {record['failed_share']}"]
    return []


def main() -> int:
    bench = run.load_benchmark()
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            problems += _check_run(workload, trace, bench)
    problems += _check_injected_failure()
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
