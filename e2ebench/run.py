#!/usr/bin/env python3
"""End-to-end benchmark of vsstat: one command, four workloads.

    python3 e2ebench/run.py --workload serve_mix|snm_yield|grid_ir64|extract_batch \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark binary (Release) under .bench_build/e2ebench;
later runs rebuild only what changed.  Each invocation runs one workload in
its own process, so peak_rss_mib is that workload's alone.  The binary's
notes (check verdicts, counts, thread numbers, sample counts behind each
percentile) are printed first; the last stdout line is the JSON verdict
{"correct", "attempted", "failed", "metrics"}.  --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes the spans to
.bench_build/e2ebench-run/.  See e2ebench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(".bench_build", "e2ebench-run")  # relative to ROOT
WORKLOADS = ("serve_mix", "snm_yield", "grid_ir64", "extract_batch")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the binary (incrementally); output goes to a
    log."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (step[:2], e))
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD_DIR, "e2ebench")


def snm_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)["snm_yield"]
    return [repr(float(ref["mean"])), repr(float(ref["sigma"])),
            repr(float(ref["count"]))]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check rejects a "
                             "corrupted result")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed wants >= 0 and --seconds > 0")

    binary = build()
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    cmd = [binary, "--workload", "selftest" if args.self_test else args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", WORK_DIR,
           "--snm-ref"] + snm_reference()
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    out = done.stdout.decode("utf-8", "replace")
    if args.self_test:
        sys.stdout.write(out)
        sys.exit(done.returncode)
    lines = out.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(out)
        fail("workload exited with code %d" % done.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("workload printed no JSON verdict")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
