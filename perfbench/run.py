#!/usr/bin/env python3
"""Build and run the DfMS benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wire_ingest --seed 1 --seconds 10 --trace 0

The benchmark package (perfbench/Cargo.toml) is built from source with
cargo, offline, into $CARGO_TARGET_DIR (default: .bench_build at the
repository root). `--trace 0` runs the untraced binary and prints the
end-to-end metrics; `--trace 1` runs the traced binary (counting
allocator, benchmark-side spans) and prints the per-layer metrics. The
last line of standard output is the JSON result. Journals, run records
and traces go under .perfbench/ at the repository root.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_ingest", "fabric_history", "crash_recover", "integrity_sweep")
# One run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170


def commit_label():
    """The commit being measured, when the checkout is a git work tree."""
    if os.environ.get("PERFBENCH_COMMIT"):
        return os.environ["PERFBENCH_COMMIT"]
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "crates", "datagridflows", "Cargo.toml")):
        print("perfbench: the repository's crates are missing next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return build.returncode

    exe = os.path.join(target, "release", "perfbench-traced" if args.trace else "perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--work-dir", os.path.join(ROOT, ".perfbench"),
        "--commit", commit_label(),
    ]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
