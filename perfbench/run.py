#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload embed-fine --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the checkout's source into
the build directory ($CARGO_TARGET_DIR if set, else .bench_build), with the
Go caches, temporary files and home directory kept there too, so a run
reads and writes only inside the checkout. The program's output is passed
through; its last line is the JSON result. Exits non-zero, without a
result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("embed-fine", "graph-rw", "kv-ycsb-a", "tier-open")


def parse(argv):
    opts = {"workload": None, "seed": "1", "seconds": "10", "trace": "0"}
    i = 0
    while i < len(argv):
        key = argv[i].lstrip("-")
        if key not in opts or i + 1 >= len(argv):
            sys.exit(f"run.py: unexpected argument {argv[i]!r}")
        opts[key] = argv[i + 1]
        i += 2
    if opts["workload"] not in WORKLOADS:
        sys.exit(f"run.py: --workload must be one of {', '.join(WORKLOADS)}")
    if opts["trace"] not in ("0", "1"):
        sys.exit("run.py: --trace must be 0 or 1")
    return opts


def go_env(build):
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOMODCACHE": "gopath/mod",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "HOME": "home",
        "XDG_CONFIG_HOME": "home/.config",
        "XDG_CACHE_HOME": "home/.cache",
    }
    for var, sub in dirs.items():
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOFLAGS="", GOENV="off", GOWORK="off", GOPROXY="off", GOTOOLCHAIN="local", GOTELEMETRY="off")
    return env


def main():
    opts = parse(sys.argv[1:])
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    done = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        sys.exit(2)
    cmd = [binary, "-workload", opts["workload"], "-seed", opts["seed"], "-seconds", opts["seconds"],
           "-trace", opts["trace"], "-out", os.path.join(build, "traces")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
