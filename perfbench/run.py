#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a monpos source tree:

    python3 perfbench/run.py --workload ppm-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The executable is built by dune into .bench_build/ (so it never waits
on a dune process using _build/) and then run with the same arguments.
Environment variables that change what the library does are removed
first and reported on stderr. The exit code is the executable's, or
the build's when the build fails.
"""

import glob
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
PINNED_ENV = (
    "MONPOS_JOBS",
    "MONPOS_CHAOS",
    "MONPOS_CHAOS_KILL",
    "MONPOS_TRACE_SAMPLE",
    "MONPOS_BENCH_FULL",
)


def find_dune(env):
    """dune on PATH, else the one of an opam switch under the home directory."""
    dune = shutil.which("dune", path=env.get("PATH"))
    if dune:
        return dune
    for candidate in sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune"))):
        # the compiler sits next to dune; dune finds it through PATH
        env["PATH"] = os.path.dirname(candidate) + os.pathsep + env.get("PATH", "")
        return candidate
    return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a monpos source tree", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for name in PINNED_ENV:
        if name in env:
            print(f"run.py: unsetting {name}={env.pop(name)}", file=sys.stderr)
    # keep dune's cache and state inside the tree
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache"))
    dune = find_dune(env)
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--display", "quiet", TARGET],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
