#!/usr/bin/env python3
"""Runs one workload of the PMEvo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/harness, a Cargo package of its own) and the
`pmevo-serve` daemon from source into $CARGO_TARGET_DIR (default
`.bench_build` at the checkout root), then runs the harness from the
checkout root. The harness's last line of standard output is the JSON
result. Runtime files (daemon socket, artifacts, spans, the determinism
ledger) go to `.bench_work` at the checkout root.

Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path("perfbench") / "harness" / "Cargo.toml"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(MANIFEST),
        "-p", "perfbench-harness", "-p", "pmevo-serve",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"perfbench: build failed (cargo exit {done.returncode})", file=sys.stderr)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target_dir):
        return 1
    release = target_dir / "release"
    cmd = [
        str(release / "perfbench-harness"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--daemon", str(release / "pmevo-serve"),
        # Relative, so the daemon's Unix socket path stays short.
        "--work", ".bench_work",
    ]
    # The harness runs in a process group of its own, so a timeout stops
    # it together with the daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if code != 0:
        print(f"perfbench: harness exited with code {code}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
