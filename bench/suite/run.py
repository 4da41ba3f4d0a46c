#!/usr/bin/env python3
"""Build gmlake_bench from source and run one benchmark invocation.

Usage, from the repository root:

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds the suite (Release) into .bench_build/ at the
repository root, then replaces itself with `gmlake_bench run` and the
given arguments. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Scratch files stay inside
.bench_build/. Exits non-zero without a result when the build fails.
"""

import os
import shutil
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "gmlake_bench")


def build():
    configure = ["cmake", "-S", SUITE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", BUILD, "--target", "gmlake_bench",
              "-j", str(os.cpu_count() or 1)]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, configure)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))


def main():
    build()
    scratch = os.path.join(BUILD, "tmp")
    os.makedirs(scratch, exist_ok=True)
    sys.stdout.flush()
    os.execv(BINARY, [BINARY, "run", "--tmp-dir", scratch] + sys.argv[1:])


if __name__ == "__main__":
    main()
