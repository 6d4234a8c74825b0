#!/usr/bin/env python3
"""Build and run one workload of the ices benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Run it from the repository root. It builds the `icesd` daemon and the
`perfbench` runner in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), pins the processes to CPUs, and runs the workload. The
last line of standard output is the result object; the exit code is
non-zero when the build fails or an output check fails.

Placement: the runner is pinned to the last allowed CPU. For
`svc_loopback` the daemon is pinned to the first allowed CPU, so
daemon and load generator share a CPU only on a one-CPU host. The
simulations run with one pool worker (`ICES_THREADS=1`).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("vivaldi_chaos", "nps_attack", "svc_loopback")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(env):
    """Build both programs; cargo's output goes to stderr."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "ices-svc", "--bin", "icesd"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def placement(workload):
    """Return (runner prefix, daemon cpu or None, description, nproc)."""
    cpus = sorted(os.sched_getaffinity(0))
    nproc = len(cpus)
    if shutil.which("taskset") is None:
        return [], None, f"unpinned (taskset missing), nproc {nproc}", nproc
    runner = cpus[-1]
    prefix = ["taskset", "-c", str(runner)]
    if workload == "svc_loopback":
        daemon = cpus[0]
        return prefix, daemon, f"generator cpu {runner}, icesd cpu {daemon}, nproc {nproc}", nproc
    return prefix, None, f"simulation cpu {runner}, 1 pool worker, nproc {nproc}", nproc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        fail("run from the repository root: the ices workspace is not here")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["ICES_THREADS"] = "1"
    env.pop("ICES_FAST", None)  # always measure the exact tier
    build(env)

    target = env["CARGO_TARGET_DIR"]
    prefix, daemon_cpu, where, nproc = placement(args.workload)
    cmd = prefix + [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--icesd", os.path.join(target, "release", "icesd"),
        "--nproc", str(nproc),
        "--placement", where,
        "--out", os.path.join("perfbench", "out"),
    ]
    if daemon_cpu is not None:
        cmd += ["--daemon-cpu", str(daemon_cpu)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
