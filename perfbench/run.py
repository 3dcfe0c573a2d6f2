#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload wcc-file-ckpt --seed 1 --seconds 15 --trace 0

The Go build cache, the binary, the on-disk store and trace files all live
under .bench_build/ in the current directory. Arguments are passed through to
the binary; its last line of standard output is the JSON result. Exits
non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    work = os.path.abspath(".bench_build")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(work, "gocache"),
        GOPATH=os.path.join(work, "gopath"),
        GOMODCACHE=os.path.join(work, "gopath", "pkg", "mod"),
        # Keep the toolchain's own state (telemetry, go env file) inside
        # the checkout and never reach for the network.
        XDG_CONFIG_HOME=os.path.join(work, "config"),
        GOENV="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(work, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=env, timeout=BUILD_TIMEOUT_S,
            stdout=sys.stderr, stderr=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-workdir", work] + sys.argv[1:]
    try:
        return subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
