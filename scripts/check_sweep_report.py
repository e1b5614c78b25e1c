#!/usr/bin/env python3
"""Sweep-report schema and sanity gate.

Validates the artifact the test harness appends to SVSS_SWEEP_REPORT
(tests/sweep_common.hpp: one pretty-printed document per sweep,
{"sweep": <label>, "report": {counters..., "cells": [...]}},
concatenated as each sweep finishes).

In the spirit of bench/check_regression.py, this gate exists so a
malformed or silently-empty artifact fails CI instead of uploading as a
green run: it hard-fails on unreadable/empty files, missing counters,
empty cell lists, counter/cell mismatches, and non-finite rates (a
total of zero would make every rate NaN).

Usage:
  check_sweep_report.py REPORT.json [--require-label LABEL ...]
                        [--max-capped-rate R]
"""

import argparse
import json
import math
import sys

REPORT_COUNTERS = ("total", "capped_runs", "safety_violations",
                   "undecided_runs", "vacuous_runs", "attacked_without_coin")
CELL_KEYS = ("n", "strategy", "scheduler", "seed", "inputs", "coin",
             "capped", "decided", "agreed", "valid", "attacked", "coin_only",
             "coin_requested", "coin_output", "rounds", "deliveries")
CELL_BOOLS = ("capped", "decided", "agreed", "valid", "attacked", "coin_only",
              "coin_requested", "coin_output")


def fail(msg):
    sys.exit(f"check_sweep_report: {msg}")


def check_report(label, report, errors):
    where = f"sweep '{label}'"
    for key in REPORT_COUNTERS:
        value = report.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"{where}: counter '{key}' missing or non-integer")
            return
        if value < 0:
            errors.append(f"{where}: counter '{key}' is negative ({value})")
    cells = report.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append(f"{where}: empty or missing cell list")
        return
    if report["total"] != len(cells):
        errors.append(f"{where}: total={report['total']} but "
                      f"{len(cells)} cells")

    counted = {"capped_runs": 0, "safety_violations": 0, "undecided_runs": 0,
               "vacuous_runs": 0, "attacked_without_coin": 0}
    for i, cell in enumerate(cells):
        missing = [k for k in CELL_KEYS if k not in cell]
        if missing:
            errors.append(f"{where}: cell {i} missing keys {missing}")
            continue
        for k in ("rounds", "deliveries", "n", "seed"):
            v = cell[k]
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                errors.append(f"{where}: cell {i} field '{k}' not a "
                              f"non-negative integer ({v!r})")
        for k in CELL_BOOLS:
            if not isinstance(cell[k], bool):
                errors.append(f"{where}: cell {i} field '{k}' not a bool")
        if cell.get("capped"):
            counted["capped_runs"] += 1
        if cell.get("decided") and not (cell.get("agreed")
                                        and cell.get("valid")):
            counted["safety_violations"] += 1
        if not cell.get("capped") and not cell.get("decided"):
            counted["undecided_runs"] += 1
        if not cell.get("attacked"):
            counted["vacuous_runs"] += 1
        # A coin-only strategy attacking an SVSS-coin cell in which no
        # honest process requested and output a coin hit nothing the
        # agreement used (the coin is dealt only on demand).
        if (cell.get("attacked") and cell.get("coin") == "svss"
                and cell.get("coin_only")
                and not (cell.get("coin_requested")
                         and cell.get("coin_output"))):
            counted["attacked_without_coin"] += 1

    for key, want in counted.items():
        if report[key] != want:
            errors.append(f"{where}: counter '{key}'={report[key]} but "
                          f"cells recount to {want}")

    # Rates must be finite and printable: a zero denominator (empty grid)
    # was caught above, but guard the arithmetic anyway so the gate, not
    # the artifact consumer, is what trips on a degenerate report.
    capped_rate = report["capped_runs"] / report["total"]
    if math.isnan(capped_rate) or math.isinf(capped_rate):
        errors.append(f"{where}: capped-run rate is not finite")
        return None
    print(f"ok  {label:32} cells={report['total']:4} "
          f"capped_rate={capped_rate:.3f} "
          f"safety={report['safety_violations']} "
          f"undecided={report['undecided_runs']} "
          f"vacuous={report['vacuous_runs']} "
          f"attacked_without_coin={report['attacked_without_coin']}")
    return capped_rate


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("report")
    parser.add_argument("--require-label", action="append", default=[],
                        help="fail unless a sweep with this label is present")
    parser.add_argument("--max-capped-rate", type=float, default=1.0,
                        help="fail any sweep whose capped-run rate exceeds "
                             "this (default 1.0 = structural checks only)")
    args = parser.parse_args()

    try:
        with open(args.report) as f:
            text = f.read()
    except OSError as e:
        fail(f"cannot read {args.report}: {e}")
    if not text.strip():
        fail(f"{args.report} is empty (no sweep ever wrote a report — "
             "wrong SVSS_SWEEP_REPORT path, or the sweeps were skipped)")

    # The file is a concatenation of pretty-printed documents, one per
    # sweep (appended, not a JSON array) — decode them back to back.
    decoder = json.JSONDecoder()
    docs = []
    pos = 0
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        try:
            doc, pos = decoder.raw_decode(text, pos)
        except json.JSONDecodeError as e:
            fail(f"invalid JSON at offset {pos} "
                 f"(document {len(docs) + 1}): {e}")
        docs.append(doc)

    errors = []
    seen = []
    for i, doc in enumerate(docs, 1):
        label = doc.get("sweep") if isinstance(doc, dict) else None
        report = doc.get("report") if isinstance(doc, dict) else None
        if not isinstance(label, str) or not isinstance(report, dict):
            errors.append(f"document {i}: expected "
                          '{"sweep": <label>, "report": {...}}')
            continue
        seen.append(label)
        rate = check_report(label, report, errors)
        if rate is not None and rate > args.max_capped_rate:
            errors.append(f"sweep '{label}': capped-run rate {rate:.3f} "
                          f"exceeds --max-capped-rate "
                          f"{args.max_capped_rate:.3f}")

    for want in args.require_label:
        if want not in seen:
            errors.append(f"required sweep label '{want}' not present "
                          f"(saw: {seen})")

    if errors:
        print("\nSWEEP REPORT FAILURES:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"\nsweep-report gate: {len(seen)} sweep(s) structurally sound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
