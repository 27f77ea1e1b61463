#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Run from the root of the repository, for example:

    python3 e2ebench/run.py --workload infer --seed 1 --seconds 15 --trace 0

Every argument is passed to the benchmark binary unchanged (see
e2ebench/README.md). The Go build cache, temporary files and the binary
all go under .bench_build/ at the root, so a run reads and writes only
inside the checkout. The build needs the transit module one directory
up; without it the build fails and this script exits non-zero without
printing a result.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(os.path.dirname(bench_dir), ".bench_build")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build_dir, "go-cache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOMODCACHE=os.path.join(build_dir, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp_dir,
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build_dir, "e2ebench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if build.returncode != 0:
        sys.exit(build.returncode)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
