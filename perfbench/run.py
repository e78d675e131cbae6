#!/usr/bin/env python3
"""Build `nevd` and the benchmark client from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Both binaries are release builds into
$CARGO_TARGET_DIR (default `.bench_build`). Build output goes to stderr; the
client prints a provenance line and, last, the result as one JSON object.
The exit code is the client's, or 1 when a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(args, env):
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        env=env,
        stdout=sys.stderr,
    )
    return done.returncode == 0


def commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    if not (
        build(["-p", "nev-serve", "--bin", "nevd"], env)
        and build(["--manifest-path", manifest], env)
    ):
        print("run.py: build failed", file=sys.stderr)
        return 1
    client = [
        os.path.join(target, "release", "nev-perfbench"),
        "--nevd",
        os.path.join(target, "release", "nevd"),
        "--clock-ticks",
        str(os.sysconf("SC_CLK_TCK")),
        "--commit",
        commit(),
        *sys.argv[1:],
    ]
    return subprocess.run(client).returncode


if __name__ == "__main__":
    sys.exit(main())
