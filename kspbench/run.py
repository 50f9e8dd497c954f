#!/usr/bin/env python3
"""End-to-end benchmark of the kSP library.

Run from the root of the repository:

    python3 kspbench/run.py --workload engine-mem --seed 1 --seconds 15 --trace 0
    python3 kspbench/run.py --selfcheck

Builds kspbench/ (the library sources plus the benchmark) in Release into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from --seed into a fresh directory under .bench_work/, runs the workload
in its own process and prints one JSON result line last:

    {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs the workload twice on the same inputs, untraced and traced, and
reports the per-layer metrics plus the tracing overhead. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("engine-mem", "serve-disk-zipf", "shard-scatter")
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "kspbench")
    binary = os.path.join(build_dir, "kspbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return binary


def run_binary(argv, timeout):
    """Runs the benchmark binary, echoes its output lines, and returns the
    parsed JSON of its last line."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    return json.loads(lines[-1])


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def select(result, specs, fill_zero):
    """The metrics of `specs` from `result`; unreported per-layer metrics
    of layers the workload does not use read 0."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in result["metrics"]:
            out[name] = {"value": result["metrics"][name]["value"],
                         "unit": spec["unit"]}
        elif fill_zero:
            out[name] = {"value": 0, "unit": spec["unit"]}
        else:
            raise SystemExit("workload did not report %s" % name)
    unknown = set(result["metrics"]) - {s["name"] for s in specs}
    return out, unknown


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the reference evaluator and exit")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    binary = build()
    if args.selfcheck:
        return subprocess.run([binary, "selfcheck"],
                              timeout=RUN_TIMEOUT_S).returncode

    end_to_end, per_layer = metric_specs()
    work = os.path.join(ROOT, ".bench_work",
                        "%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        subprocess.run([binary, "gen"] + common + ["--dir", work],
                       stdout=sys.stderr, check=True, timeout=GEN_TIMEOUT_S)
        run = [binary, "run"] + common + ["--seconds", str(args.seconds),
                                          "--dir", work]
        untraced = run_binary(run + ["--trace", "0"], RUN_TIMEOUT_S)
        if args.trace == 0:
            metrics, _ = select(untraced, end_to_end, fill_zero=False)
            result = untraced
        else:
            trace_out = os.path.join(
                out_dir, "trace-%s-s%d.json" % (args.workload, args.seed))
            traced = run_binary(run + ["--trace", "1", "--trace-out",
                                       trace_out], RUN_TIMEOUT_S)
            base = untraced["metrics"]
            with_trace = traced["metrics"]
            traced["metrics"]["trace.overhead_p50_share"] = {
                "value": with_trace["query_p50_ms"]["value"] /
                base["query_p50_ms"]["value"] - 1.0}
            traced["metrics"]["trace.overhead_qps_share"] = {
                "value": 1.0 - with_trace["throughput_qps"]["value"] /
                base["throughput_qps"]["value"]}
            for spec in end_to_end:
                traced["metrics"].pop(spec["name"], None)
            metrics, unknown = select(traced, per_layer, fill_zero=True)
            if unknown:
                raise SystemExit("unlisted per-layer metrics: %s" %
                                 ", ".join(sorted(unknown)))
            result = {
                "correct": untraced["correct"] and traced["correct"],
                "attempted": untraced["attempted"] + traced["attempted"],
                "failed": untraced["failed"] + traced["failed"],
            }
            print("trace spans: %s" % os.path.relpath(trace_out, ROOT))
        print(json.dumps({"correct": bool(result["correct"]),
                          "attempted": int(result["attempted"]),
                          "failed": int(result["failed"]),
                          "metrics": metrics}), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError, IndexError) as e:
        log("kspbench: %s" % e)
        sys.exit(1)
