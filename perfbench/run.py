#!/usr/bin/env python3
"""Build and run the wall-clock benchmark of the real engine.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload wiki-ingest --seed 1 --seconds 5 --trace 0

Each call configures and builds perfbench/ (which compiles the engine
libraries from src/) into the build directory, $CARGO_TARGET_DIR when set,
else .bench_build; after the first call the build is incremental.  Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.  The exit code is the benchmark's: 0 on success,
non-zero on a correctness mismatch, a failed build or bad arguments.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("wiki-ingest", "lj-ingest", "wiki-epochs", "churn-epochs")
# Default input seed; seed 1000003 is held out for checking later claims.
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    """Configure and build the benchmark; return the binary path."""
    subprocess.run(
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
