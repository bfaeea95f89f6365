#!/usr/bin/env python3
"""Build the riscyoo benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is spec-serial, mc16-epoch or litmus-farm; "all" runs the three in
turn with the same arguments and exits with the worst exit code.

Run it from anywhere inside a riscyoo source tree; it builds
perfbench/main.exe with dune (release profile) and runs it from the root
of the tree. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exit codes: 0 ok, 1 a
failed correctness check, 2 no source tree or a failed build, 3 the run
exceeded its time limit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ["spec-serial", "mc16-epoch", "litmus-farm"]


def run(argv):
    try:
        return subprocess.run([EXE] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


def main(argv):
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        print(f"perfbench: no riscyoo source tree at {ROOT}", file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ROOT, "--profile", "release", "./perfbench/main.exe"]
    try:
        built = subprocess.run(build, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    pairs = list(zip(argv, argv[1:]))
    if ("--workload", "all") in pairs:
        i = pairs.index(("--workload", "all")) + 1
        return max(run(argv[:i] + [w] + argv[i + 1 :]) for w in WORKLOADS)
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
