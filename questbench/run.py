#!/usr/bin/env python3
"""Builds and runs the QUEST end-to-end benchmark.

Run from the root of a source checkout:

    python3 questbench/run.py --workload serve-boc --seed 1 --seconds 10 --trace 0

The first call configures and builds `quest_bench` (Release) under
`$CARGO_TARGET_DIR/questbench` (default `.bench_build/questbench`); later
calls only re-run the incremental build. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit code is
the benchmark's, or 2 when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run ends long before this; the timeout only reaps a hung run.
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "questbench")


def build(out_dir):
    """Configures (once) and builds quest_bench; returns the binary path."""
    configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "--target", "quest_bench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "quest_bench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return result.stdout.strip() or "none"


def source_digest():
    """sha256 over the program and benchmark sources, path and bytes."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(BENCH_DIR)):
        for base, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"questbench: build failed: {error}", file=sys.stderr)
        return 2
    data_root = os.path.join(out_dir, "data")
    os.makedirs(data_root, exist_ok=True)
    command = [binary, *sys.argv[1:], "--data-root", data_root,
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("questbench: run exceeded its time budget", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
