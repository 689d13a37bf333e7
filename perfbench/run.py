#!/usr/bin/env python3
"""Build and run the lotus repository benchmark.

    python3 perfbench/run.py --workload <figures|scale|store_warm> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (which
builds the lotus library from ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, then runs one workload.
Standard output is a provenance line (host, ISA, widths, compiler, build
type, git sha), a line of workload figures, and last the result object,
whose metric names are checked against BENCHMARK.json before it is printed. Build logs go to
standard error. Exits non-zero, printing no result, when the build fails,
the workload fails or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, env):
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("configure failed", 3)
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr, env=env).returncode:
        fail("build failed", 3)
    return os.path.join(build_dir, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["figures", "scale", "store_warm"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]", 1)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_root, "perfbench"))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_dir, env)
    out_dir = os.path.join(build_dir, "out")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir, "--git-sha", git_sha()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 4)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {run.returncode}", 4)

    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != expected_names(args.trace):
        fail(f"metrics {names} do not match BENCHMARK.json", 5)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
