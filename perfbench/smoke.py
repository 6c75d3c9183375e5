#!/usr/bin/env python3
"""Fast-world smoke of every perfbench workload; finishes in seconds.

Usage, from the repository root:

    python3 perfbench/smoke.py

For each workload and for seeds 1 and 2 it runs perfbench/run.py on the
fast world (core::apply_fast_mode), untraced and traced, and expects a
result with correct=true and no failed operations. It then runs each
workload once with --inject-wrong, which corrupts one answer before the
output check, and expects correct=false with at least one failed operation.
Exits 0 when every expectation holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def run(workload, seed, trace, inject=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", trace, "--fast"]
    if inject:
        cmd.append("--inject-wrong")
    done = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE,
                          text=True, timeout=300)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    failures = []
    for workload in WORKLOADS:
        for seed in (1, 2):
            for trace in ("0", "1"):
                result = run(workload, seed, trace)
                ok = (result is not None and result["correct"]
                      and result["failed"] == 0)
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{'ok' if ok else 'FAILED'}", flush=True)
                if not ok:
                    failures.append(f"{workload} seed {seed} trace {trace}")
        result = run(workload, 1, "0", inject=True)
        rejected = (result is not None and not result["correct"]
                    and result["failed"] > 0)
        print(f"{workload} injected wrong answer: "
              f"{'rejected' if rejected else 'NOT REJECTED'}", flush=True)
        if not rejected:
            failures.append(f"{workload} injected wrong answer accepted")
    if failures:
        print("smoke failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
