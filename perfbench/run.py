#!/usr/bin/env python3
"""Builds and runs the striped-I/O benchmark for one workload.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the program's libraries from src/) into
$CARGO_TARGET_DIR, default .bench_build; later runs only rebuild what changed.
A run prints the benchmark's report, a provenance record, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"} where the
metrics are BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
(--trace 1). Exits 2, without that line, when the build fails or a metric is
missing; exits 1 after it when a read returned wrong bytes or a self-test
failed. "--workload all" runs every workload, both traced and untraced unless
--trace is given.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "swift_perfbench"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "swift_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not a git checkout (never report an enclosing repo's)
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def cpu_times():
    """The host's aggregate CPU times from /proc/stat (jiffies), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(field) for field in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_fraction(before, after):
    """Share of the host's CPU time the hypervisor gave to other guests
    between two cpu_times() readings: a run measured under steal is slower."""
    if not before or not after or len(before) < 8:
        return None
    deltas = [b - a for a, b in zip(before, after)]
    return deltas[7] / sum(deltas) if sum(deltas) > 0 else None


def source_digest():
    """sha256 over the program and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for pattern in ("src/**/*", "perfbench/*"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True)):
            if os.path.isfile(path):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_one(binary, build_dir, wanted, workload, seed, seconds, trace):
    """Runs one workload; prints its report, record and result line.
    Returns the exit code."""
    # Agent data of this run; leftovers of an interrupted run go too.
    for stale in glob.glob(os.path.join(build_dir, "run-*")):
        shutil.rmtree(stale, ignore_errors=True)
    scratch = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(scratch)
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scratch", scratch]
    cpu_before = cpu_times()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        else:
            print(line)
    if record is None:
        fail(f"the benchmark exited with {proc.returncode} and no record")
    if proc.returncode == 2:
        fail("a metric could not be measured: " + "; ".join(record["notes"]))

    record["provenance"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "host_steal_frac": steal_fraction(cpu_before, cpu_times()),
    }
    print("record: " + json.dumps(record, sort_keys=True))

    missing = [name for name in wanted if name not in record["metrics"]]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    metrics = {name: {"value": record["metrics"][name]["value"],
                      "unit": record["metrics"][name]["unit"]} for name in wanted}
    print(json.dumps({"correct": record["correct"] and proc.returncode == 0,
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if proc.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for every one")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(required unless --workload all, which runs both)")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload == "all":
        runs = [(w["name"], t) for w in spec["workloads"]
                for t in ((0, 1) if args.trace is None else (args.trace,))]
    elif args.trace is None:
        parser.error("--trace is required for a single workload")
    else:
        runs = [(args.workload, args.trace)]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as error:
        fail(f"build failed: {error}")

    status = 0
    for workload, trace in runs:
        wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        status = max(status, run_one(binary, build_dir, wanted, workload, args.seed,
                                     args.seconds, trace))
    sys.exit(status)


if __name__ == "__main__":
    main()
