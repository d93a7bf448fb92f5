#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload suite|epc|fuzz|chaos --seed N \
        --seconds S --trace 0|1

Run from the repository root. The release build goes to $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run also writes its spans,
one JSON object per line, to `<target dir>/perfbench-spans-<workload>.jsonl`.
The exit code is the benchmark's: 0 only when every correctness check
passed, and non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(argv, name):
    """The value following `name` in argv, or None."""
    for i, a in enumerate(argv[:-1]):
        if a == name:
            return argv[i + 1]
    return None


def main():
    argv = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(target, "release", "perfbench")] + argv
    if flag(argv, "--trace") == "1":
        workload = flag(argv, "--workload") or "unknown"
        cmd += ["--spans-out", os.path.join(target, f"perfbench-spans-{workload}.jsonl")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
