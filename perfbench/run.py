#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default: .bench_build); the first run builds, later runs only check
that the build is fresh. The last line of standard output is the JSON
result; build output goes to standard error. A failed build exits
non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

# A run ends well within this; a hung one is stopped with every process
# it started.
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    # A session of its own, so a timeout can stop the spawned shard
    # workers too.
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
