#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The binary is built (Release, with the
library compiled straight from src/) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; a rebuild only happens
when sources changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. The exit code is the benchmark's.
A run that overruns its --seconds by far (twice the time plus a margin for
the last round and the checks) is killed, and its backing files removed.
"""
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_scratch")
TIMEOUT_MARGIN_S = 100


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "tables", "hash_table.h")):
        sys.exit("perfbench: no library sources under src/; nothing to build")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run_timeout(args):
    """2 x --seconds + a margin; None when --seconds is missing or invalid
    (the binary then rejects the arguments itself)."""
    try:
        seconds = float(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        return None
    return 2 * seconds + TIMEOUT_MARGIN_S if seconds > 0 else None


def main():
    binary = build()
    timeout = run_timeout(sys.argv[1:])
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        sys.exit(proc.wait(timeout=timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        # The binary names its scratch directory <workload>-<pid>.
        for path in glob.glob(os.path.join(SCRATCH, "*-%d" % proc.pid)):
            shutil.rmtree(path, ignore_errors=True)
        if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)
        sys.exit("perfbench: run exceeded %.0f s" % timeout)


if __name__ == "__main__":
    main()
