#!/usr/bin/env python3
"""Build bench_e2e from source, then run the end-to-end benchmark.

  python3 bench/e2e/run.py --workload cnv-z045 --seed 1 --seconds 20 --trace 0
  python3 bench/e2e/run.py --all [--seconds 20] [--quick] [--trace 1]

The build lands in .bench_build/e2e under the repository root and its
output goes to stderr, so the last line of stdout is the result line of
bench_e2e. --all runs every workload in its own process and prints each
metric by name with its unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["cnv-z045", "cnv-z020", "train", "serve-rf"]


def build(root=ROOT):
    """Configure (once) and build bench_e2e of the checkout at `root` into
    its .bench_build/e2e; returns the binary's path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("run.py: no macroflow sources under " + root)
    build_dir = os.path.join(root, ".bench_build", "e2e")
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(root, "bench", "e2e"),
                            "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("run.py: build failed: %s" % error)
    return os.path.join(build_dir, "bench_e2e")


def run_all(binary, args):
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run([binary, "--workload", workload] + args,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%-9s FAILED (exit %d)" % (workload, proc.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        print("%-9s correct=%s attempted=%d failed=%d" % (
            workload, result["correct"], result["attempted"],
            result["failed"]))
        for name, metric in result["metrics"].items():
            print("  %-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    return 0 if ok else 1


def main(argv):
    binary = build()
    os.chdir(ROOT)
    if "--all" in argv:
        return run_all(binary, [a for a in argv if a != "--all"])
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
