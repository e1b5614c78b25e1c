#!/usr/bin/env python3
"""Self-test of the agreement benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks, on small runs, that
  * BENCHMARK.json names exactly the workloads and metrics run.py reports;
  * each sim workload, run twice on one seed with tracing, repeats every
    count byte for byte: msgs, bytes, deliveries, async rounds, the
    decision digest and the per-layer delivery counts;
  * within each run the traced and untraced passes give identical counts,
    so the delivery observer and the scheduler wrapper do not perturb the
    schedule;
  * deliveries are booked to the layers that should see them: none to
    "other", none to coin/svss/mwsvss under the ideal coin, some to
    mwsvss under the SVSS coin;
  * the tcp workload decides every instance and reports
    net.out_dropped_frames and core.linger_ms_per_batch.
Exits non-zero on the first failed check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
SIM_BATCHES = {"sim-ideal-n7": 12, "sim-svss-n4": 12}
TCP_BATCHES = 12

# Counters both passes produce; the traced pass adds per-layer ones.
SHARED_COUNTS = ["attempted", "decided", "failed", "packets_sent",
                 "bytes_sent", "packets_delivered", "depth_sum",
                 "decision_digest"]


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)
    print(f"selftest: ok: {msg}", file=sys.stderr)


def check_manifest(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(listed == table, f"BENCHMARK.json {key} names and units match")


def main():
    root = os.getcwd()
    check_manifest(root)
    binary = run.build(root)

    for workload, batches in SIM_BATCHES.items():
        runs = []
        for _ in range(2):
            code, res = run.run_binary(binary, workload, SEED, batches, True)
            check(code == 0 and res["correct"] and res["failed"] == 0,
                  f"{workload}: every instance decided, agreed, valid")
            runs.append(res)
        first, second = (r["counts"] for r in runs)
        check(first == second,
              f"{workload}: counts identical across two runs of seed {SEED}")
        timed, traced = first["timed"], first["traced"]
        check(all(timed[k] == traced[k] for k in SHARED_COUNTS),
              f"{workload}: traced and untraced passes count the same")
        check(traced["sim_deliveries"] == timed["packets_delivered"],
              f"{workload}: the observer saw every delivery")
        check(traced["other_deliveries"] == 0,
              f"{workload}: every delivery is booked to a named layer")
        check(traced["aba_deliveries"] > 0 and traced["rbc_deliveries"] > 0,
              f"{workload}: aba and rbc deliveries are booked")
        svss_layers = ("coin_deliveries", "svss_deliveries",
                       "mwsvss_deliveries")
        if workload == "sim-ideal-n7":
            check(all(traced[k] == 0 for k in svss_layers),
                  f"{workload}: the ideal coin books nothing to coin/svss/mwsvss")
        else:
            check(traced["mwsvss_deliveries"] > 0,
                  f"{workload}: the SVSS coin's share phase is booked to mwsvss")

    code, res = run.run_binary(binary, "tcp-ideal-n4", SEED, TCP_BATCHES, True)
    check(code == 0 and res["correct"] and res["failed"] == 0,
          "tcp-ideal-n4: every instance decided, agreed, valid")
    check("net.out_dropped_frames" in res["layer"]
          and res["layer"]["core.linger_ms_per_batch"] > 0,
          "tcp-ideal-n4: reports dropped frames and linger")
    print("selftest: all checks passed", file=sys.stderr)


if __name__ == "__main__":
    main()
