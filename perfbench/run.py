#!/usr/bin/env python3
"""Builds the benchmark binary from the checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The last line of standard output is
the result: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to $CARGO_TARGET_DIR (default .bench_build); storage
directories and traces go under .bench_work. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mapped", "ingest_mixed", "restart")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    threads = len(os.sched_getaffinity(0))
    work = os.path.join(ROOT, ".bench_work")
    run_dir = os.path.join(work, "run-%d" % os.getpid())
    trace_file = os.path.join(work, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed))
    command = [
        os.path.join(target, "release", "vsj-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--threads", str(threads),
        "--work-dir", run_dir,
        "--trace-file", trace_file,
        "--rustc", rustc.stdout.strip() or "unknown",
    ]
    try:
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit("perfbench: run failed with exit code %d" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
