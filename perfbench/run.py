#!/usr/bin/env python3
"""Build the kecss benchmark harness from source, then run it.

Run from the root of a kecss checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: engine-2ecss, cutpairs-k3, dense-cert, serve-churn (or "all").
The harness is built with dune into .bench_build/ and writes its
generated inputs, determinism fingerprints and traces under .perfbench/;
both stay inside the checkout. The last line of standard output is the
run's JSON result; everything the build prints goes to standard error.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/kecss_bench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "kecss_bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: not at the root of a kecss checkout "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    if shutil.which("dune") is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", TARGET],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
