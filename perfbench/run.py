#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is the Rust package in this
directory; it is built in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`) on every call, which is a no-op once built. Its last line
of standard output is the result as one JSON object. Every run's record,
with provenance, is appended to `<target>/perfbench-runs.jsonl`.

The cluster process is pinned to one CPU, and a spinner at the lowest
scheduling class (SCHED_IDLE) keeps that CPU from halting. On a virtual
machine, waking a halted vCPU waits for the host's scheduler, whose delay
depends on the host's other tenants; without the spinner that steal time
reached 15-40% of the CPU and moved latency several-fold between runs.
The spinner only runs when no thread of the benchmark is runnable.

`--workload all` runs every workload in turn, for a reader who wants all
metrics of all workloads from one command.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["kv_closed", "kv_batch"]
# The whole run, boots and windows included, must end within this.
RUN_TIMEOUT_S = 170


def idle_on(cpu):
    """Pins the calling process to `cpu` at the lowest priority."""
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)


def source_revision():
    """The git revision, or a digest of the sources outside git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file() and "target" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    return built.returncode == 0


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_one(release, target, args, workload, rev, cpu):
    tmp = target / f"perfbench-tmp-{os.getpid()}"
    command = [
        str(release / "sbft-perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", str(tmp),
        "--rev", rev,
        "--record", str(target / "perfbench-runs.jsonl"),
    ]
    spinner = subprocess.Popen(
        [str(release / "perfbench-spin"), str(RUN_TIMEOUT_S + 10)],
        preexec_fn=lambda: idle_on(cpu),
    )
    proc = None
    try:
        proc = subprocess.Popen(
            command, cwd=ROOT, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            stop(proc)
        stop(spinner)
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run still stops its children (see `run_one`).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = target / "release"
    rev = source_revision()
    # The last CPU, away from the housekeeping that lands on CPU 0.
    cpu = max(os.sched_getaffinity(0))
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        code = run_one(release, target, args, workload, rev, cpu)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
