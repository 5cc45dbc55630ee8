#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload compile|remap|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The benchmark executable
(perfbench/main.exe) is built with dune in the release profile, with the
dune cache disabled so nothing is written outside the checkout; build
output goes to stderr.  Its standard output is passed through:
an info line, then the result line, last.  Traced runs also write their
spans to perfbench/_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout):
    """Run cmd with its stdout sent to our stderr; the exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 3)
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["compile", "remap", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a full checkout of the repository"
                 % need)

    if run(["dune", "build", "--root", ".", "--profile", "release",
            "--cache=disabled", "-j", "2", "./perfbench/main.exe"],
           BUILD_TIMEOUT_S) != 0:
        fail("build failed", 3)

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", os.path.join(HERE, "_out")]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload timed out", 3)
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
