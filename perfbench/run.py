#!/usr/bin/env python3
"""Build and run the IMP end-to-end benchmark.

    python3 perfbench/run.py --workload agg_read --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark is built from source with CMake
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; build output goes to stderr. Every other argument is
passed to the benchmark binary (see main.cc). Results and span files are
written to perfbench/out unless --out names another directory. The last line
of stdout is the benchmark's JSON result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build; returns the binary path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    binary = os.path.join(out, "imp_perfbench")
    return binary if os.path.exists(binary) else None


def main(argv):
    binary = build()
    if binary is None:
        return 2
    args = list(argv)
    if "--out" not in args:
        out_dir = os.path.join(HERE, "out")
        args += ["--out", out_dir]
    else:
        out_dir = args[args.index("--out") + 1]
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
