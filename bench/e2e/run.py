#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources, then run one workload.

Usage (from the repository root):
  python3 bench/e2e/run.py --workload nightly|backfill|rt_follow \
      --seed N --seconds S --trace 0|1

The build goes to .bench_build/e2e (configured once, then incremental).
The run's inputs live in a temporary directory under .bench_build, removed
when the run ends. With --trace 1 the Chrome trace is written to
.bench_build/traces/<workload>-seed<N>.json. The program's standard output
is passed through: one `name value unit` line per metric, `digest <crc>`,
and a final JSON line. The exit code is the program's, or 1 when the build
fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "e2e")
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "e2e")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    work = tempfile.mkdtemp(prefix="run-", dir=OUT)
    cmd = [os.path.join(BUILD, "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--dir", os.path.join(work, "inputs")]
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench_e2e: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
