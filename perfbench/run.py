#!/usr/bin/env python3
"""Builds and runs the confdep end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline|serve|recovery \
        --seed N --seconds S --trace 0|1

The benchmark package (perfbench/Cargo.toml) is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build), then its binary runs
with the same arguments. The binary's last line of standard output is
the result object; the line before it is the host and provenance
record. A failed build exits nonzero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    # the analysis cache must start empty in every run, never preloaded
    # from (or spilled to) disk
    env.pop("CONFDEP_CACHE_SPILL", None)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--repo", ROOT, "--out-dir", os.path.join(HERE, "out")],
        cwd=ROOT,
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
