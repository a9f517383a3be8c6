#!/usr/bin/env python3
"""Run one hexbench workload from the root of a source checkout.

    python3 hexbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds hexbench/main.exe and the hextime CLI with dune, then runs the
workload in its own process.  Everything the run writes stays inside the
checkout: build outputs in _build/, a work directory under
hexbench/.work/ (removed at exit: the serve index, socket and logs, the
fork pool's flight-recorder files), and the span traces of --trace 1 runs
in hexbench/.out/.  The last line of standard output is the run's JSON
result; it is printed only when the workload ran to completion.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["sweep-paper", "argmin-solve", "serve-mixed"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("dune-project", os.path.join("bin", "hextime.ml")):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"hexbench: {needed} not found; run from a hextime checkout",
                  file=sys.stderr)
            return 2

    env = dict(os.environ)
    # no shared dune cache: the build stays inside the checkout
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./hexbench/main.exe",
         "./bin/hextime.exe"],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("hexbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join("hexbench", ".work", str(os.getpid()))
    os.makedirs(work)
    # the program's caches, ledger and temporary files go to the work
    # directory, never to the user's home or /tmp
    env.update({
        "TMPDIR": os.path.abspath(work),
        "HEXTIME_CACHE_DIR": os.path.join(work, "cache"),
        "HEXTIME_LEDGER": os.path.join(work, "ledger.jsonl"),
        "HEXTIME_JOBS": "2",
        "HEXTIME_PROGRESS": "0",
        "XDG_CACHE_HOME": os.path.join(work, "xdg"),
    })
    cmd = [os.path.join("_build", "default", "hexbench", "main.exe"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--hextime", os.path.join("_build", "default", "bin", "hextime.exe"),
           "--work", work, "--out", os.path.join("hexbench", ".out")]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("hexbench: run timed out", file=sys.stderr)
        return 3
    finally:
        # the workload stops its server; this catches anything left over
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join("hexbench", ".work"))
        except OSError:
            pass
    if proc.returncode != 0:
        sys.stdout.writelines(
            l for l in out.splitlines(True) if not l.startswith("{"))
        print(f"hexbench: workload exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
