#!/usr/bin/env python3
"""Serving benchmark for the Blowfish query engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (a standalone CMake
project over ../src) into $CARGO_TARGET_DIR or .bench_build, then runs
one workload in a fresh process with its own scratch directory on the
local disk, removed afterwards. Prints the machine it ran on, the
benchmark's detail line, and last one JSON object:

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
table. The exit status is non-zero when the build fails, an output
check fails, or the work counts differ from the first run of the same
workload, seed and length built from the same sources. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("admit-small", "journal-small", "release-heavy", "cold-churn")
RUN_TIMEOUT_S = 170

# Per-request rates two runs of the same workload, seed and length must
# repeat within this share; exact counts must repeat exactly.
APPROX_TOLERANCE = 0.05


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "query_engine.h")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "kernel": platform.release()}


def source_hash():
    """Hash of the engine and benchmark sources the binary is built from.

    Work counts are only comparable between runs of the same code: a
    change that cuts allocations or fsyncs must not read as a mismatch
    against a run of its parent that shares the build directory.
    """
    digest = hashlib.sha256()
    files = [os.path.join(HERE, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, n) for n in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def same_work(build_dir, key, work):
    """Compares this run's work counts with the first run under `key`.

    The first run's counts are stored and never overwritten, so a run
    that differs is reported against the same reference every time.
    """
    counts_dir = os.path.join(build_dir, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    path = os.path.join(counts_dir, key + ".json")
    if not os.path.exists(path):
        tmp = "%s.%d" % (path, os.getpid())
        with open(tmp, "w") as f:
            json.dump(work, f)
        os.replace(tmp, path)
        return []
    with open(path) as f:
        reference = json.load(f)
    mismatches = []
    for name, value in work["exact"].items():
        if name in reference["exact"] and reference["exact"][name] != value:
            mismatches.append(name)
    for name, value in work["approx"].items():
        old = reference["approx"].get(name)
        if old and abs(value - old) > APPROX_TOLERANCE * abs(old):
            mismatches.append(name)
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    build(build_dir)
    run_dir = os.path.join(build_dir, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        done = subprocess.run(
            [os.path.join(build_dir, "perfbench_serving"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", run_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        fail("benchmark exited %d without a result" % done.returncode)
    detail = json.loads(lines[-2])
    result = json.loads(lines[-1])
    key = "%s-seed%d-%gs-trace%d-%s" % (args.workload, args.seed, args.seconds,
                                        args.trace, source_hash())
    mismatches = same_work(build_dir, key, detail["same_work"])
    if mismatches:
        detail["failed_checks"]["same_work"] = (
            "counts differ from the previous run: " + ", ".join(mismatches))
        result["correct"] = False
    print(json.dumps({"machine": machine()}))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
