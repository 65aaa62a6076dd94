#!/usr/bin/env python3
"""Build and run the served-query benchmark from the root of a checkout.

    python3 e2e_bench/run.py --workload read-flat --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --self-test

`--workload all` runs every workload BENCHMARK.json lists, one after another,
and fails if any of them fails.

The first call configures and builds e2e_bench/CMakeLists.txt (the
repository's libraries from src/, the ga_shard process and the benchmark)
into $CARGO_TARGET_DIR/e2e_bench, default .bench_build/e2e_bench; later calls
rebuild incrementally. Build output goes to stderr. The benchmark's stdout
is passed through; its last line is the JSON result. Logs and shard state
live in a temporary directory under the build directory and are removed
when the run ends.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build(bdir, targets):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("e2e_bench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def source_id():
    """Commit of the checkout, or a digest of src/ when it is not a git tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for d, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src-sha1:" + h.hexdigest()[:16]


def run_child(cmd):
    """Runs cmd in its own process group; kills the group on timeout."""
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("e2e_bench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    if args.self_test:
        if not build(bdir, ["e2e_bench_tests"]):
            return 1
        return run_child([os.path.join(bdir, "e2e_bench_tests")])

    if not build(bdir, ["e2e_bench", "ga_shard"]):
        return 1
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            workloads = [w["name"] for w in json.load(fh)["workloads"]]
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    commit = source_id()
    status = 0
    for w in workloads:
        sys.stdout.flush()
        status |= run_child([
            os.path.join(bdir, "e2e_bench"),
            "--workload", w,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--shard-bin", os.path.join(bdir, "ga_shard"),
            "--tmp-root", tmp,
            "--commit", commit,
        ])
    return status


if __name__ == "__main__":
    sys.exit(main())
