#!/usr/bin/env python3
"""Build and run the perfbench workload named on the command line.

Run from the repository root:

    python3 perfbench/run.py --workload fcat-abstract --seed 1 --seconds 10 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache, module
cache, home directory and temporary files kept inside it as well, so a run
reads and writes only inside the checkout. Each invocation runs one workload
in its own fresh process; its standard output is passed through, and the
last line is the JSON result. The exit code is the workload's.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "home/.config"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off",
               GOFLAGS="", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench,
                               env=env, timeout=BUILD_TIMEOUT_S,
                               stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-workdir", env["TMPDIR"]] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
