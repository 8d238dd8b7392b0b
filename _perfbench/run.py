#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root; every argument is passed on, e.g.

    python3 _perfbench/run.py --workload design-xcode --seed 1 --seconds 30 --trace 0

The binary, the Go build cache and the span files all go under
.bench_build/ in the working directory, so a run writes nothing
outside the checkout.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
build = os.path.join(os.getcwd(), ".bench_build")
env = dict(
    os.environ,
    GOCACHE=os.path.join(build, "gocache"),
    GOPATH=os.path.join(build, "gopath"),
    GOTMPDIR=os.path.join(build, "tmp"),
    XDG_CONFIG_HOME=os.path.join(build, "config"),
    GOENV="off",
    GOFLAGS="",
    GOTOOLCHAIN="local",
    GOPROXY="off",
    GOWORK="off",
    GO111MODULE="on",
)
for d in ("gocache", "gopath", "tmp", "config"):
    os.makedirs(os.path.join(build, d), exist_ok=True)
binary = os.path.join(build, "perfbench")
built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                       stdout=sys.stderr)
if built.returncode != 0:
    sys.exit(built.returncode)
os.execv(binary, [binary] + sys.argv[1:])
