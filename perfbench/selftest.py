"""Self-test of the benchmark at a tiny size; run from the checkout root:

    python3 perfbench/selftest.py

For every workload it runs the untraced and the traced mode for a fraction
of a second on tiny inputs and checks that

* the result object has exactly the keys correct, attempted, failed and
  metrics, no op failed and both traced passes gave the same output digest;
* the metrics are exactly those BENCHMARK.json names, each with its unit;
* the traced self times add up to the traced wall time (ops plus checks).

Last, it copies only BENCHMARK.json and perfbench/ into an empty directory and
checks that the benchmark refuses to run there (exit code 2, no result).
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.2


def expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def check_workload(name, problems):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, record = run.run(name, 7, SECONDS, trace, tiny=True, out_dir=None)
        where = f"{name} trace={trace}"
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: correct={result['correct']} failed={result['failed']} {record['failures'][:3]}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected(kind):
            problems.append(f"{where}: metric names/units differ from BENCHMARK.json {kind}: "
                            f"missing {sorted(set(expected(kind)) - set(got))}, extra {sorted(set(got) - set(expected(kind)))}, "
                            f"units {[k for k in got if k in expected(kind) and got[k] != expected(kind)[k]]}")
        if trace:
            wall, self_sum = record["traced_wall_s"], record["traced_self_sum_s"]
            if not 0.95 * wall <= self_sum <= wall:
                problems.append(f"{where}: traced self times sum to {self_sum:.6f} s, wall {wall:.6f} s")
        print(f"ok {where}: {result['attempted']} ops", file=sys.stderr)


def check_bare_directory(problems):
    """Only BENCHMARK.json and perfbench/: no rcover source, so exit 2."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    if p.returncode != 2 or p.stdout.strip():
        problems.append(f"bare directory: exit {p.returncode}, stdout {p.stdout.strip()[:200]!r}")
    shutil.rmtree(bare)


def main():
    problems: list[str] = []
    for name in WORKLOADS:
        check_workload(name, problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
