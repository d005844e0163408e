#!/usr/bin/env python3
"""Build the e2ebench package and run one benchmark workload.

    python3 e2ebench/run.py --workload paper|crowd|fleet --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark (release,
offline) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs it with the given arguments. The last line of standard output
is the benchmark's JSON result; build output goes to standard error. A
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "e2ebench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
