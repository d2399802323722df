"""Smoke test of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py [--seed N] [--sizes tiny] [--seconds S]

Runs every workload with tracing off and on, and checks that each run exits
with 0 and ends with one result line of the agreed shape: correct, at least
one op attempted, and exactly the metrics and units that BENCHMARK.json
lists.  Then checks that the harness refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, workload: str, args, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--sizes", args.sizes,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed {result['failed']!r}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {sorted(set(got) ^ set(expected))} or units differ")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append("a metric value is not a number")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="smoke test of perfbench/run.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", default="tiny")
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_result(run_bench(ROOT, workload, args, trace), expected[trace])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += bool(problems)

    bare = ROOT / ".perfbench_smoke"
    try:
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], args, 0)
        refused = proc.returncode != 0 and not proc.stdout.strip().endswith("}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: {'refused' if refused else 'FAIL: ran or printed a result'}")
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
