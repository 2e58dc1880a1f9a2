#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny graphs (about 30 s).

    python3 perfbench/selftest.py

Runs every workload end to end at ``--scale smoke``, untraced and
traced, and checks that each run is correct with no failed operation
(``fail_ratio`` = failed / attempted = 0) and emits exactly the
``end_to_end`` (untraced) or ``per_layer`` (traced) metrics named in
``BENCHMARK.json``, with their units.  Then checks that the benchmark
refuses to run, without printing a result, in a copy of the harness
that has no ``src`` next to it.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["workloads"]}
    if not declared <= set(WORKLOADS):
        print(f"BENCHMARK.json workloads {sorted(declared - set(WORKLOADS))} "
              f"are not defined in workloads.py")
        return 1
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                print(f"{where}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"fail_ratio {result['failed']}/"
                                f"{result['attempted']}:\n{done.stderr}")
            if units != expected[trace]:
                problems.append(f"metrics {units} differ from "
                                f"BENCHMARK.json {expected[trace]}")
            if problems:
                print(f"{where}: " + "; ".join(problems))
                return 1
            print(f"ok {where}: {result['attempted']} operations, "
                  f"{len(units)} metrics")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(bare, next(iter(WORKLOADS)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        print(f"without src: exit {done.returncode}, stdout "
              f"{done.stdout.strip()!r}")
        return 1
    print(f"ok without src: exit {done.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
