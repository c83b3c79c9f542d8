#!/usr/bin/env python3
"""Build the benchmark from the checkout and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile|execute|verify|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench.exe and psimc.exe with dune, runs perfbench.exe (its
own process group, stopped on timeout) and relays its output.  The last
line of standard output is the result object; its metrics are checked
against BENCHMARK.json before it is printed.  Exits non-zero without a
result when the build fails, the run fails or times out.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["compile", "execute", "verify", "serve"]
RUN_TIMEOUT_S = 170
EXE = "_build/default/perfbench/perfbench.exe"
PSIMC = "_build/default/bin/psimc.exe"


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/psimc.exe"],
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        fail("dune not found", 2)
    if r.returncode != 0:
        fail("build failed", 2)


def run(args):
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--psimc", PSIMC,
        "--dir", ".perfbench",
    ]
    # One CPU for the benchmark and the serve daemon it spawns: the host
    # calibration samples then run where the work runs, and no request
    # waits on a cross-CPU wake-up.
    cpu = max(os.sched_getaffinity(0))
    p = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("run timed out", 3)
    finally:
        # the serve daemon shares the group; make sure nothing outlives us
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return p.returncode, out


def check(result, spec, trace):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())), 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not os.path.exists("dune-project"):
        fail("run from the root of a checkout", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    code, out = run(args)
    lines = out.splitlines()
    if code != 0 or not lines:
        # no result on standard output: what the run printed goes to stderr
        sys.stderr.write(out)
        fail("run failed (exit %d)" % code, code or 1)
    result = json.loads(lines[-1])
    check(result, spec, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
