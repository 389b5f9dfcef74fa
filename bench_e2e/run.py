#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository's sources.

    python3 bench_e2e/run.py --workload browse --seed 1 --seconds 15 --trace 0
    python3 bench_e2e/run.py --selftest

The build goes to $CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e
under the repository root) as RelWithDebInfo; build output goes to stderr, so
the last line of stdout stays the benchmark's JSON result. Without the
repository's src/ next to this directory the run fails before printing one.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "bench_e2e"


def build(target: str) -> Path:
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("bench_e2e: no repository sources at %s" % (ROOT / "src"))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", target, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / target


def main() -> int:
    args = sys.argv[1:]
    try:
        if args == ["--selftest"]:
            return subprocess.run([str(build("bench_e2e_harness_test"))],
                                  timeout=RUN_TIMEOUT_S).returncode
        binary = build("bench_e2e")
    except subprocess.CalledProcessError as e:
        print("bench_e2e: build failed: %s" % e, file=sys.stderr)
        return 1
    try:
        return subprocess.run([str(binary)] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
