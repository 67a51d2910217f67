#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold-verify --seed 1 --seconds 25 --trace 0

The build goes through dune into ./_build with dune's shared cache off,
so nothing is read or written outside the checkout. The workload runs in
one process on one domain (MORPHQPV_DOMAINS=1): on a 2-core host two
domains made wide-characterize slower and its run-to-run spread wider.
The last line of stdout is the result object.
"""

import argparse
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ("cold-verify", "warm-serve", "wide-characterize")
RUN_TIMEOUT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("perfbench: neither dune nor opam is on PATH")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    # the benchmark sets observability and caching itself
    for var in ("MORPHQPV_OBS", "MORPHQPV_LOG", "MORPHQPV_CACHE", "MORPHQPV_CACHE_DIR"):
        env.pop(var, None)
    env["MORPHQPV_DOMAINS"] = "1"

    build = subprocess.run(
        dune_command() + ["build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.exit("perfbench: build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
