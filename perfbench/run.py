#!/usr/bin/env python3
"""Builds the dgo benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: powerlaw-lowhint, planted-coreness (see BENCHMARK.json). The
build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset. The last line of standard output is the run's JSON result; with
--trace 1 the spans go to perfbench/out/trace-<workload>-seed<n>.jsonl.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def flag(argv, name):
    """The value after `name` in argv, or None."""
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def main(argv):
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("perfbench: the repository's crates/ must sit beside perfbench/", file=sys.stderr)
        return 2
    workload, seed = flag(argv, "--workload"), flag(argv, "--seed")
    if workload is None or seed is None:
        print(__doc__, file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    build_env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=build_env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    binary = target / "release" / "dgo-perfbench"

    extra = []
    if flag(argv, "--trace") == "1":
        out = HERE / "out" / f"trace-{workload}-seed{seed}.jsonl"
        extra = ["--trace-out", str(out)]
    # Edge-list parsing reads its thread count from DGO_JOBS; the benchmark
    # runs single-threaded (dgo_perfbench::workload::JOBS).
    run_env = dict(os.environ, DGO_JOBS="1")
    return subprocess.run([str(binary), *argv, *extra], env=run_env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
