#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 10 --trace 0

The arguments are passed to the benchmark binary unchanged. The binary,
the Go build cache and the traced run's span dumps go to .bench_build/
at the root of the repository, so the build reads and writes nothing
outside it. The benchmark module replaces the program's module with the
parent directory, so a copy of perfbench/ without the program around it
fails to build and exits non-zero.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Compile the benchmark into .bench_build/perfbench; return its path."""
    os.makedirs(BUILD, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, timeout=850)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return binary


def main():
    binary = build()
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
