#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune into $CARGO_TARGET_DIR (default
.bench_build), then runs it with the same arguments.  The benchmark's
last stdout line is its JSON result; its exit status is passed through.
"""
import os
import subprocess
import sys


def main() -> int:
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir, "--cache=disabled",
         "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
