#!/usr/bin/env python3
"""Build the NSC benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

Workloads: serve_mix, jacobi_large, multigrid_1d.  The arguments pass
through to perfbench/main.exe (see perfbench/README.md); the last line of
standard output is the result object.  Build output goes to standard
error, so standard output carries only the benchmark's report.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "serve"))):
        print(
            "perfbench: run from the root of a checkout of the NSC sources "
            "(dune-project and lib/ are missing here)",
            file=sys.stderr,
        )
        return 2
    # Dune's shared cache and the compilers' temporary files would land
    # outside the checkout; keep the whole build inside it.
    tmp = os.path.join(os.getcwd(), "_build", "perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
