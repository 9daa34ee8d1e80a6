#!/usr/bin/env python3
"""Build fsdata and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus_ingest|serve_read|stream_write \
        --seed N --seconds S --trace 0|1

The last line of standard output is the run's JSON result. Build output
goes to standard error. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("corpus_ingest", "serve_read", "stream_write")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_group(cmd, timeout, env=None, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    # the program's sources must be here: the benchmark measures them
    for need in ("dune-project", "bin/dune", "lib"):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the root of an fsdata checkout",
                  file=sys.stderr)
            return 2

    env = dict(os.environ, PERFBENCH_BUILD="1")
    code = run_group(["dune", "build", "--root", ".", "bin/fsdata.exe",
                      "perfbench/perfbench.exe"], BUILD_TIMEOUT_S, env=env,
                     stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return 1

    sys.stdout.flush()
    return run_group(["_build/default/perfbench/perfbench.exe",
                      "--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", str(a.trace)],
                     RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
