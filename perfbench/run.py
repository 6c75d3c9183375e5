#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the `perfbench` binary (the
repository's libraries plus perfbench/src) under $CARGO_TARGET_DIR, or
`.bench_build` when it is unset; later calls only check that the build is
current. The binary runs with RP_THREADS=4 and a work directory under the
build tree, and its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics, is checked against BENCHMARK.json and printed
as this script's last line. Traced runs keep their Chrome trace as
<build dir>/traces/<workload>-seed<n>.json.

`--fast` (a shrunken world) and `--inject-wrong` (one corrupted answer) are
for perfbench/smoke.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark binary must answer within 180 s of starting; the build before
# it has its own allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises, or None without it."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            raise ValueError(
                f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--inject-wrong", action="store_true")
    args = parser.parse_args()

    out = build_dir() / "perfbench"
    try:
        binary = build(out)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work = build_dir() / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Only the benchmark's own settings: a caller's RP_TRACE, RP_SERVE_* or
    # cache location must not leak into the measurement.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RP_")}
    env["RP_THREADS"] = "4"
    env["RP_SNAPSHOT_CACHE"] = str(work / "default-cache")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work)]
    if args.fast:
        cmd.append("--fast")
    if args.inject_wrong:
        cmd.append("--inject-wrong")

    started = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        shutil.rmtree(work, ignore_errors=True)
        return 1
    log(f"{args.workload} seed {args.seed}: exit {child.returncode} after "
        f"{time.monotonic() - started:.1f} s")

    try:
        if child.returncode != 0:
            return 1
        lines = stdout.strip().splitlines()
        if not lines:
            log("the benchmark binary printed no result")
            return 1
        try:
            check_result(lines[-1], args.trace == "1")
        except (ValueError, KeyError, json.JSONDecodeError) as e:
            log(f"bad result line: {e}")
            return 1
        if args.trace == "1":
            traces = build_dir() / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copyfile(work / "trace.json",
                            traces / f"{args.workload}-seed{args.seed}.json")
        print(lines[-1], flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
