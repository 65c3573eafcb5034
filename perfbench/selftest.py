"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both trace modes, runs
``run.py --tiny`` and checks that the last line is the result object, that
it reports a correct run with no failed operations, and that its metric
names and units are exactly those BENCHMARK.json lists for that mode.  Then
checks that the harness refuses, with a non-zero exit and no result, to run
in a directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> list:
    out = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
              "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}: {out.stderr.strip()[-500:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        errors.append(f"{where}: missing {missing}, unlisted {extra}, wrong unit {wrong}")
    return errors


def check_refuses_without_program() -> list:
    bare = ROOT / ".perfbench-out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = run(bare, "--workload", "week-compare", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"correct"' in out.stdout:
        return ["a checkout without the program still produced a result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_workload(spec, workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    errors += check_refuses_without_program()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
