#!/usr/bin/env python3
"""Fixed-work agreement benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-ideal-n7 --seed 1 --seconds 10 --trace 0

Builds perfbench_agree from source (CMake, Release) under .bench_build/,
runs a fixed number of agreement instances generated from --seed, checks
every outcome, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1.  --seconds sets the amount of work, not a time limit:
the instance count is a fixed multiple of it, so the same seed and seconds
always run the same instances.  See perfbench/README.md for what each
workload and metric is for.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Batches per second of --seconds (about one second of work each on a
# 4-core 2.1 GHz Xeon), and the floor that keeps at least ten latency
# samples beyond p95 (counted in batches on tcp, whose 16 instances per
# batch are correlated).  Every run first counts the heap over a quarter
# of the batches.  A traced run (--trace 1) then covers the first quarter
# of the batches twice: untraced, then traced.
WORKLOADS = {
    "sim-ideal-n7": {"batches_per_s": 25, "min_batches": 20},
    "sim-svss-n4": {"batches_per_s": 40, "min_batches": 200},
    "tcp-ideal-n4": {"batches_per_s": 18, "min_batches": 200},
}
TRACE_SHARE = 4

END_TO_END = {
    "decisions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "msgs_per_decision": "count",
    "bytes_per_decision": "bytes",
    "peak_heap_mb": "MB",
}

LAYER_PAIR = ["deliveries_per_decision", "busy_us_per_decision"]
PER_LAYER = {
    "sim.deliveries_per_decision": "count",
    "sim.sched_us_per_decision": "us",
    "sim.wait_deliveries_p50": "count",
    "sim.inflight_max": "count",
    "async_rounds": "count",
    **{f"{layer}.{m}": ("count" if m.startswith("deliveries") else "us")
       for layer in ("aba", "rbc", "coin", "svss", "mwsvss")
       for m in LAYER_PAIR},
    "common.rs_decode_us": "us",
    "common.bivariate_shares_us": "us",
    "codec.decode_us_per_decision": "us",
    "net.send_us_per_decision": "us",
    "net.poll_us_per_decision": "us",
    "net.idle_us_per_decision": "us",
    "net.encode_us_per_decision": "us",
    "net.decode_us_per_decision": "us",
    "net.out_dropped_frames": "count",
    "core.linger_ms_per_batch": "ms",
    "host.probe_slowdown": "ratio",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
}

BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir(root):
    # CARGO_TARGET_DIR, when set, names the build directory inside the checkout.
    rel = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.normpath(os.path.join(root, rel))
    if os.path.commonpath([path, root]) != root:
        path = os.path.join(root, ".bench_build")
    return os.path.join(path, "perfbench")


def build(root):
    """Configures (once) and builds perfbench_agree; returns its path."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("run from the repository root: no CMakeLists.txt and src/ here")
    bdir = build_dir(root)
    run_quiet = {"stdout": sys.stderr, "stderr": sys.stderr,
                 "timeout": BUILD_TIMEOUT_S, "cwd": root}
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, **run_quiet).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_agree",
                       "-j", jobs], **run_quiet).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench_agree")


def batches_for(workload, seconds, trace):
    spec = WORKLOADS[workload]
    batches = max(spec["min_batches"], round(spec["batches_per_s"] * seconds))
    return max(1, batches // TRACE_SHARE) if trace else batches


def run_binary(binary, workload, seed, batches, trace):
    """Runs perfbench_agree once; returns (exit code, its JSON result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--batches", str(batches), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {BINARY_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: perfbench_agree printed no result (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    binary = build(os.getcwd())
    code, res = run_binary(binary, args.workload, args.seed,
                           batches_for(args.workload, args.seconds,
                                       args.trace == 1),
                           args.trace == 1)
    source = res["layer"] if args.trace else res["e2e"]
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(source))
    if missing:
        fail(f"perfbench_agree did not report {missing}")
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{res['samples']['latency']} latency samples, "
          f"{res['samples']['beyond_p95']} beyond p95 in "
          f"{res['samples']['batches_beyond_p95']} batches, "
          f"{res['samples']['setup']} set-ups", file=sys.stderr)
    out = {
        "correct": bool(res["correct"]) and code == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(out))
    sys.exit(0 if code == 0 else 1)


if __name__ == "__main__":
    main()
