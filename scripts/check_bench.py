#!/usr/bin/env python3
"""CI benchmark-regression gate.

Compares CI-produced BENCH_*.json files against the committed baselines in
bench/baselines/ and fails on regressions in *simulated* (deterministic)
metrics. Measured wall-clock fields are exempt — runners vary; the
simulated quantities (discrete-event makespans, logical byte volumes,
result cardinalities) are bit-reproducible across machines, so a drift
there is a real behavioural change.

Policy per metric kind:
  exact      -- must be identical (result rows, output pairs): any change
                fails until the baseline is deliberately regenerated.
  simulated  -- numeric, direction-aware: fails when the current value is
                worse than baseline by more than --tolerance (default 25%).
                Improvements pass (regenerate the baseline to lock them in).
  (everything else -- measured/informational: ignored.)

Structural mismatches are failures, not notes: a BENCH_*.json in either
directory without a SPECS entry, a baseline file the run did not produce,
a produced file with no committed baseline, and records present on only
one side all fail — a silently unmatched file or record is a gate that
quietly stopped gating.

Exit status: 0 = pass, 1 = regression or structural mismatch.

Usage:
  scripts/check_bench.py --current-dir build [--baseline-dir bench/baselines]
                         [--tolerance 0.25]
"""

import argparse
import json
import os
import sys

# Per-file comparison spec: record key fields, exact fields, and simulated
# fields with their "worse" direction (+1 = larger is worse, -1 = smaller
# is worse).
SPECS = {
    "BENCH_kernels.json": {
        "key": ["label", "kernel"],
        "exact": ["left_rows", "right_rows", "output_pairs"],
        "simulated": {},  # wall_ns / tuples_per_sec are measured -> exempt
    },
    "BENCH_runtime.json": {
        "key": ["workload", "query", "threads"],
        "exact": ["jobs", "result_rows_physical"],
        "simulated": {
            "sim_makespan_seconds": +1,
            # Simulated map->reduce volume; grows when column pruning /
            # selection pushdown stop shrinking the shuffle.
            "sim_shuffle_bytes": +1,
        },
        # wall_seconds / speedup_vs_1t / hardware_threads are measured.
        # Per-workload tolerance tightening (keyed by the record's
        # "workload" field). The fault_overhead pair executes one plan with
        # the chaos machinery off vs armed at zero rates, and the
        # trace_overhead pair the same plan untraced vs traced; their
        # simulated metrics are deterministic and must not drift, so both
        # are held to 2% instead of the default 25%.
        "tolerance_overrides": {"fault_overhead": 0.02,
                                "trace_overhead": 0.02},
        # Fields every *current* record must carry, even when the value is
        # informational: a bench that silently stops emitting them has
        # disarmed part of the gate. trace_overhead is the span-tracing
        # cost measured by bench_runtime (docs/OBSERVABILITY.md);
        # peak_mem_bytes is the per-run MemoryBudget high-water mark
        # (docs/MEMORY.md).
        "required": ["trace_overhead", "peak_mem_bytes"],
    },
    "BENCH_mem.json": {
        "key": ["workload", "query", "mode", "threads"],
        # bench_runtime's mem_budget workload aborts unless the budgeted
        # runs are byte-identical to the unbudgeted reference, actually
        # spill, and hold peak within 1.25x of the budget — so these
        # records existing at all already certifies the contract. The gate
        # here catches drift: result rows and the configured budget are
        # exact; makespan/shuffle are the usual deterministic simulated
        # quantities; peak_mem_bytes and spill_bytes are direction-aware
        # (growth = the spill machinery holding more memory or writing
        # more disk for the same workload). The unbudgeted records carry
        # spill_bytes = 0, which the base_val == 0 rule skips.
        "exact": ["jobs", "result_rows_physical", "mem_budget_bytes"],
        "simulated": {
            "sim_makespan_seconds": +1,
            "sim_shuffle_bytes": +1,
            "peak_mem_bytes": +1,
            "spill_bytes": +1,
        },
        # wall_seconds is measured -> exempt; a record that stops emitting
        # the memory columns has disarmed the gate.
        "required": ["peak_mem_bytes", "spill_bytes", "spill_files"],
    },
    "BENCH_serve.json": {
        "key": ["workload", "query", "streams"],
        # The serving counters are deterministic: bench_engine_serve
        # aborts unless every concurrent result is byte-identical to the
        # sequential reference, the warm plan cache hits on every stream
        # query, and nothing is rejected — so any drift here is a real
        # serving-layer behaviour change.
        "exact": ["queries_per_stream", "total_queries", "threads",
                  "per_query_threads", "max_inflight_queries",
                  "plan_cache_hits", "plan_cache_misses",
                  "admission_rejections", "result_rows_total"],
        "simulated": {},
        # Latency/throughput are measured -> exempt from the gate, but a
        # bench that stops emitting them has stopped measuring serving.
        "required": ["p50_latency_seconds", "p99_latency_seconds",
                     "throughput_qps"],
    },
    "BENCH_skew.json": {
        "key": ["workload", "query", "mode"],
        "exact": ["result_rows_physical"],
        "simulated": {
            "max_mean_ratio": +1,
            "sim_makespan_seconds": +1,
        },
        # wall_seconds is measured; task-split fields are informational.
    },
}


def load_records(path, key_fields):
    with open(path) as f:
        records = json.load(f)
    table = {}
    for record in records:
        key = tuple(record.get(k) for k in key_fields)
        if key in table:
            raise SystemExit(f"{path}: duplicate record key {key}")
        table[key] = record
    return table


def compare_file(name, baseline_path, current_path, tolerance):
    """Returns a list of failure strings for one benchmark file."""
    spec = SPECS[name]
    failures = []
    baseline = load_records(baseline_path, spec["key"])
    current = load_records(current_path, spec["key"])

    for key, cur_rec in current.items():
        for field in spec.get("required", []):
            if field not in cur_rec:
                failures.append(
                    f"{name}: {key} stopped emitting required field "
                    f"'{field}' (the bench no longer measures it)")

    for key, base_rec in baseline.items():
        cur_rec = current.get(key)
        if cur_rec is None:
            failures.append(f"{name}: record {key} disappeared")
            continue
        for field in spec["exact"]:
            if base_rec.get(field) != cur_rec.get(field):
                failures.append(
                    f"{name}: {key} {field} changed "
                    f"{base_rec.get(field)} -> {cur_rec.get(field)} "
                    f"(exact field; regenerate baselines if intentional)")
        rec_tolerance = spec.get("tolerance_overrides", {}).get(
            base_rec.get("workload"), tolerance)
        for field, worse_dir in spec["simulated"].items():
            base_val = base_rec.get(field)
            cur_val = cur_rec.get(field)
            if base_val is None or cur_val is None:
                continue
            if base_val == 0:
                continue
            delta = (cur_val - base_val) / abs(base_val) * worse_dir
            if delta > rec_tolerance:
                failures.append(
                    f"{name}: {key} {field} regressed "
                    f"{base_val} -> {cur_val} "
                    f"({delta * 100.0:+.1f}% worse, tolerance "
                    f"{rec_tolerance * 100.0:.0f}%)")
    new_keys = set(current) - set(baseline)
    for key in sorted(new_keys):
        failures.append(
            f"{name}: record {key} has no baseline (regenerate "
            f"{baseline_path} to admit new records)")
    return failures


def run_gate(baseline_dir, current_dir, tolerance, log=print):
    """Runs the whole gate; returns (failures, files_checked)."""
    failures = []
    checked = 0
    # Files without a SPECS entry would otherwise never be compared — a
    # bench that writes BENCH_foo.json without registering its spec here
    # ships an ungated metric.
    for directory in (baseline_dir, current_dir):
        if not os.path.isdir(directory):
            continue
        for entry in sorted(os.listdir(directory)):
            if (entry.startswith("BENCH_") and entry.endswith(".json")
                    and entry not in SPECS):
                failures.append(
                    f"{os.path.join(directory, entry)}: no comparison spec "
                    f"(add it to SPECS in scripts/check_bench.py)")
    for name in sorted(SPECS):
        baseline_path = os.path.join(baseline_dir, name)
        current_path = os.path.join(current_dir, name)
        if not os.path.exists(baseline_path):
            if os.path.exists(current_path):
                failures.append(
                    f"{name}: produced but has no baseline (commit "
                    f"{current_path} to {baseline_dir} to arm the "
                    f"gate)")
            else:
                log(f"note: {name} not produced and not in baselines; "
                    f"skipping")
            continue
        if not os.path.exists(current_path):
            failures.append(
                f"{name}: baseline exists but CI produced no {current_path}")
            continue
        file_failures = compare_file(name, baseline_path, current_path,
                                     tolerance)
        checked += 1
        status = "FAIL" if file_failures else "ok"
        log(f"{name}: {status}")
        failures.extend(file_failures)
    return failures, checked


def self_test():
    """Synthetic baseline/current pairs through the real gate: each case
    asserts the gate fires (or stays quiet) for one policy rule. Guards
    the gate itself — a comparison that silently stopped comparing would
    otherwise only be noticed by a regression it failed to catch."""
    import re
    import shutil
    import tempfile

    kernels_base = [{"label": "a", "kernel": "sort", "left_rows": 10,
                     "right_rows": 10, "output_pairs": 100}]
    runtime_base = [{"workload": "w", "query": "q", "threads": 2, "jobs": 3,
                     "result_rows_physical": 42,
                     "sim_makespan_seconds": 10.0,
                     "sim_shuffle_bytes": 1000,
                     "trace_overhead": 0.01, "peak_mem_bytes": 1}]

    def deep(records, **overrides):
        out = [dict(r) for r in records]
        out[0].update(overrides)
        return out

    # (case name, baseline {file: records}, current {file: records},
    #  regex the failures must match — None = must pass clean)
    cases = [
        ("identical passes",
         {"BENCH_kernels.json": kernels_base},
         {"BENCH_kernels.json": kernels_base}, None),
        ("exact field change fails",
         {"BENCH_kernels.json": kernels_base},
         {"BENCH_kernels.json": deep(kernels_base, output_pairs=99)},
         r"output_pairs changed"),
        ("simulated regression beyond tolerance fails",
         {"BENCH_runtime.json": runtime_base},
         {"BENCH_runtime.json": deep(runtime_base,
                                     sim_makespan_seconds=14.0)},
         r"sim_makespan_seconds regressed"),
        ("simulated improvement passes",
         {"BENCH_runtime.json": runtime_base},
         {"BENCH_runtime.json": deep(runtime_base,
                                     sim_makespan_seconds=6.0)}, None),
        ("tolerance override tightens",
         {"BENCH_runtime.json": deep(runtime_base,
                                     workload="fault_overhead")},
         {"BENCH_runtime.json": deep(runtime_base,
                                     workload="fault_overhead",
                                     sim_makespan_seconds=10.5)},
         r"tolerance 2%"),
        ("missing record fails",
         {"BENCH_kernels.json": kernels_base},
         {"BENCH_kernels.json": []}, r"disappeared"),
        ("unspecced bench file fails",
         {"BENCH_kernels.json": kernels_base},
         {"BENCH_kernels.json": kernels_base,
          "BENCH_mystery.json": []}, r"no comparison spec"),
        ("dropped required field fails",
         {"BENCH_runtime.json": runtime_base},
         {"BENCH_runtime.json": [
             {k: v for k, v in runtime_base[0].items()
              if k != "trace_overhead"}]},
         r"required field 'trace_overhead'"),
        ("baseline without current fails",
         {"BENCH_kernels.json": kernels_base}, {},
         r"produced no"),
    ]

    problems = []
    for case_name, baseline, current, expect in cases:
        root = tempfile.mkdtemp(prefix="check_bench_selftest_")
        try:
            for sub, contents in (("base", baseline), ("cur", current)):
                os.makedirs(os.path.join(root, sub))
                for fname, records in contents.items():
                    with open(os.path.join(root, sub, fname), "w") as f:
                        json.dump(records, f)
            failures, _ = run_gate(os.path.join(root, "base"),
                                   os.path.join(root, "cur"),
                                   tolerance=0.25, log=lambda *_: None)
            if expect is None:
                if failures:
                    problems.append(f"{case_name}: expected pass, "
                                    f"got {failures}")
            elif not any(re.search(expect, f) for f in failures):
                problems.append(f"{case_name}: no failure matching "
                                f"/{expect}/ in {failures}")
        finally:
            shutil.rmtree(root, ignore_errors=True)

    if problems:
        for p in problems:
            print(f"check_bench.py self-test FAILED: {p}", file=sys.stderr)
        return 1
    print(f"check_bench.py self-test ok: {len(cases)} cases")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default="build")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression in simulated "
                             "metrics (default 0.25)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own test cases and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    failures, checked = run_gate(args.baseline_dir, args.current_dir,
                                 args.tolerance)

    if failures:
        print(f"\nbenchmark-regression gate FAILED "
              f"({len(failures)} finding(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbenchmark-regression gate passed ({checked} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
