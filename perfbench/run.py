#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
current directory), with every Go cache and temporary directory inside
it, and then run with the given arguments.  Its standard output is
passed through unchanged: the last line is the JSON result.  With
--trace 1 the first traced sub-run's spans are written to the build
directory.  The exit status is the program's, or non-zero when the
build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    for d in ("tmp", "config", "perfbench"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--spans", out]
    child = subprocess.Popen([binary] + args, env=env)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
