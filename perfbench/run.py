#!/usr/bin/env python3
"""Builds the OrpheusDB benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sci_edit_loop --seed 1 --seconds 20 --trace 0

The first call configures and compiles perfbench/ (which pulls in the
engine from src/) into .bench_build/; later calls rebuild incrementally.
The benchmark's own self-test runs before every measurement. Working
files go to .bench_work/<workload>/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end_to_end list of BENCHMARK.json, with --trace 1 its per_layer list;
a listed metric the run did not produce is reported as 0 with a note.
The exit code is non-zero when the build, the self-test or the output
oracle fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: engine sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    compile_cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
                   "orpheus_perfbench", "perfbench_selftest"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return False
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    return selftest.returncode == 0


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def listed_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("error: benchmark build failed")
        return 2

    work_dir = os.path.join(ROOT, ".bench_work", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "orpheus_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("error: workload run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        log("error: workload printed no result (exit code %d)" % proc.returncode)
        return 4
    for line in lines[:-1]:
        print(line)

    listed = listed_metrics(args.trace)
    if listed is not None:
        chosen = {}
        for m in listed:
            if m["name"] in metrics:
                chosen[m["name"]] = metrics.pop(m["name"])
            else:
                chosen[m["name"]] = {"value": 0, "unit": m["unit"]}
                print(json.dumps({"note": "%s not measured on %s" % (m["name"], args.workload)}))
        if metrics:
            print(json.dumps({"unlisted": metrics}))
        result["metrics"] = chosen
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
