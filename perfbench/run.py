#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (a cargo workspace of its own) and the
repository's `pcm-serve` binary in release mode, then runs the benchmark
with the same arguments from the repository root. Build output goes to
stderr; the last line on stdout is the benchmark's JSON result. Artifacts
land in $CARGO_TARGET_DIR (default: `target`).
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(env):
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for cmd in (
        cargo + ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cargo + ["--manifest-path", "Cargo.toml", "-p", "pcm-serve", "--bin", "pcm-serve"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(1)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or "target"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "pcm-perfbench"),
        *sys.argv[1:],
        "--serve-bin",
        os.path.join(release, "pcm-serve"),
        "--run-dir",
        os.path.join(target, "perfbench-run"),
    ]
    # Its own process group, so a timeout also stops the daemon it starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
