#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <stream|rack_pony|dag_tcp> \
        --seed <n> --seconds <s> --trace <0|1> [--scale <f>]

The arguments pass through to the `snap-perfbench` binary, whose last
line of standard output is the JSON result. Cargo builds offline into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root) and
writes its progress to standard error. The exit code is the binary's,
or 1 if the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(root, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(bench_dir, "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--spans-dir" not in args:
        args += ["--spans-dir", os.path.join(root, ".bench_out")]
    binary = os.path.join(target, "release", "snap-perfbench")
    code = subprocess.run([binary] + args, cwd=root, env=env).returncode
    # A binary killed by a signal reports a negative code.
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
