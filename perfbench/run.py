#!/usr/bin/env python3
"""Build and run the scflow benchmark (perfbench).

    python3 perfbench/run.py --workload refine|signoff|serve --seed N \\
        --seconds S --trace 0|1 [--lanes N]
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds the
scflow libraries from src/ together with the perfbench driver (CMake,
RelWithDebInfo) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls rebuild incrementally.  Build output goes to stderr.

The named workload runs in full for the window, then the other two run as
probes, each in a perfbench process of its own, one after the other, so no
part inherits another's heap or threads.  Their stdout is merged: detail
lines (host stamp, exact work counts, output hashes, timing distributions),
then the one-line JSON result, whose metric names must be exactly the
end_to_end (--trace 0) or per_layer (--trace 1) names of BENCHMARK.json.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("refine", "signoff", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170  # for all parts of one run together
DETAIL_KEYS = ("info", "counts", "hashes", "distributions")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no scflow sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {' '.join(step)} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")
    return out / target


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lanes", type=int, default=0,
                        help="worker lanes of every workload (default: min(4, hardware "
                             "threads) for the campaigns, min(2, ...) for the service)")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_test:
        tests = build("perfbench_tests")
        return subprocess.run([str(tests)], timeout=RUN_TIMEOUT_S, check=False).returncode
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.seed < 0 or seconds <= 0 or args.lanes < 0:
        parser.error("--seed and --lanes must be >= 0 and --seconds > 0")

    exe = build("perfbench")
    env = dict(os.environ)
    env.setdefault("SCFLOW_GIT_REV", git_rev())
    parts = [(args.workload, "full")] + [(w, "probe") for w in WORKLOADS if w != args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    details = {key: {} for key in DETAIL_KEYS}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, scale in parts:
        trace_out = build_dir() / "traces" / f"{args.workload}-seed{args.seed}-{workload}.json"
        cmd = [str(exe), "--workload", workload, "--scale", scale, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--trace-out", str(trace_out)]
        if args.lanes:
            cmd += ["--lanes", str(args.lanes)]
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, check=False,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} run did not finish within {RUN_TIMEOUT_S} s")
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) < len(DETAIL_KEYS) + 1:
            sys.stderr.write(done.stdout)
            fail(f"{workload} ({scale}) exited {done.returncode}")
        # The full part's host stamp wins; probes add their own keys.
        for line in lines[:-1]:
            for key, values in json.loads(line).items():
                merged = details[key]
                details[key] = {**values, **merged} if scale == "probe" else {**merged, **values}
        part = json.loads(lines[-1])
        result["correct"] = result["correct"] and part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        result["metrics"].update(part["metrics"])

    want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        fail(f"metric names differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"extra {sorted(got - want)}")
    for key in DETAIL_KEYS:
        print(json.dumps({key: dict(sorted(details[key].items()))}))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
