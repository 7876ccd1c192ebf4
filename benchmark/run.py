#!/usr/bin/env python3
"""Builds theta_bench, runs its workloads, checks correctness, prints metrics.

One workload (the benchmark's result line):
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
    Runs W in one child process. The last line of stdout is one JSON object
    with the keys correct, attempted, failed and metrics: the end-to-end
    metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
    --trace 1.

Every workload (a results file):
  python3 benchmark/run.py [--bin B] [--out F] [--seed N] [--seconds S]
                           [--repeat R] [--smoke] [--trace-out DIR]
    Runs each workload R times, each in a fresh process, and reports every
    metric's median and quartiles.

Two results files:
  python3 benchmark/run.py --compare A.json B.json
    Exits 1 when any workload x end-to-end metric of B is worse than A's
    median by more than the metric's bound.

Without --bin the benchmark is built first with CMake, into
$CARGO_TARGET_DIR (or .bench_build) at the root of the checkout.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mobile_q1", "flights_chain3", "tpch_adhoc", "serve_mixed",
             "equi_spill"]
# The CI chaos and budget legs export these; they would change what is
# measured, so children never see them (and theta_bench refuses them).
SCRUBBED_ENV = ["MRTHETA_FAULT_PLAN", "MRTHETA_MEM_BUDGET", "MRTHETA_SPILL_DIR"]
CHILD_TIMEOUT_S = 170
SETUP_REPS = 3
# Length of the traced phase when every workload runs (--out mode).
TRACED_SECONDS = 3.0
# Compared by --compare although BENCHMARK.json does not gate them: the
# simulated makespan must not move at all, errors must not grow, and the
# tail latency has enough samples only on serve_mixed.
EXTRA_BOUNDS = {
    "sim_makespan_s": {"better": "lower", "bound": 0.0},
    "error_rate": {"better": "lower", "bound": 0.0},
    "latency_p99_s": {"better": "lower", "bound": 0.25,
                      "workloads": ["serve_mixed"]},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_root):
    """Configures (once) and builds theta_bench; returns the binary path."""
    cmake_dir = os.path.join(build_root, "theta_bench")
    os.makedirs(cmake_dir, exist_ok=True)
    out = sys.stderr.fileno()
    # Concurrent runs in one checkout must not build over each other.
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        stamp = os.path.join(cmake_dir, "configured.stamp")
        if not os.path.exists(stamp):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, check=True)
            open(stamp, "w").close()
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs,
                        "--target", "theta_bench"], stdout=out, check=True)
    return os.path.join(cmake_dir, "theta_bench")


def child_env(tmp_dir):
    env = dict(os.environ)
    for var in SCRUBBED_ENV:
        env.pop(var, None)
    # Spill files go to the temp directory; keep them inside the checkout.
    os.makedirs(tmp_dir, exist_ok=True)
    env["TMPDIR"] = tmp_dir
    return env


def run_child(binary, args):
    """Runs theta_bench with `args`; returns its result object."""
    cmd = [binary] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S,
                          env=child_env(os.path.join(os.path.dirname(binary),
                                                     "tmp")))
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd),
                                                  proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result" % " ".join(cmd))
    return json.loads(lines[-1])


def fmt(value):
    return "%.6g" % value


def run_one(binary, spec, args):
    """The benchmark's contract: one workload, one result line."""
    if args.trace:
        # Half the run untraced (the baseline of obs.trace_overhead), half
        # traced; setup_s is not reported here, so one set-up suffices.
        half = args.seconds / 2.0
        child_args = ["--seconds=%g" % half, "--traced-seconds=%g" % half,
                      "--trace=1", "--setup-reps=1"]
        wanted, section = spec["per_layer"], "per_layer"
    else:
        child_args = ["--seconds=%g" % args.seconds, "--trace=0",
                      "--setup-reps=%d" % SETUP_REPS]
        wanted, section = spec["end_to_end"], "end_to_end"
    result = run_child(binary, ["--workload=" + args.workload,
                                "--seed=%d" % args.seed] + child_args +
                       (["--smoke"] if args.smoke else []))
    metrics = {}
    for m in wanted:
        got = result[section].get(m["name"])
        if got is None:
            raise RuntimeError("theta_bench reported no %s" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print("%-32s %14s %s" % (m["name"], fmt(got["value"]), m["unit"]))
    for span in result["absent_spans"]:
        print("absent span: %s (its metrics read 0)" % span)
    print(json.dumps({"correct": bool(result["correct"]) and
                      result["failed"] == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def git_head():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_all(binary, args):
    if args.smoke:
        child_args = ["--smoke", "--seconds=0", "--traced-seconds=0",
                      "--setup-reps=1"]
    else:
        child_args = ["--seconds=%g" % args.seconds,
                      "--traced-seconds=%g" % TRACED_SECONDS,
                      "--setup-reps=%d" % SETUP_REPS]
    results = {"meta": {"git_head": git_head(), "seed": args.seed,
                        "smoke": args.smoke, "repeat": args.repeat,
                        "seconds": args.seconds,
                        "traced_seconds": TRACED_SECONDS},
               "workloads": {}}
    all_correct = True
    for w in WORKLOADS:
        runs = []
        for r in range(args.repeat):
            extra = []
            if args.trace_out and r == 0:
                os.makedirs(args.trace_out, exist_ok=True)
                extra = ["--trace-out=" + os.path.join(args.trace_out,
                                                       w + ".trace.json")]
            log("running %s (%d/%d)" % (w, r + 1, args.repeat))
            runs.append(run_child(binary, ["--workload=" + w,
                                           "--seed=%d" % args.seed,
                                           "--trace=1"] + child_args + extra))
        entry = {"correct": all(x["correct"] and x["failed"] == 0
                                for x in runs),
                 "ops": [x["ops"] for x in runs],
                 "phases_s": [x["phases_s"] for x in runs],
                 "absent_spans": sorted({s for x in runs
                                         for s in x["absent_spans"]}),
                 "errors": [e for x in runs for e in x["errors"]]}
        for section in ("end_to_end", "per_layer"):
            entry[section] = {}
            for name, m in runs[0][section].items():
                values = [x[section][name]["value"] for x in runs]
                entry[section][name] = dict(unit=m["unit"], values=values,
                                            **summarize(values))
        results["workloads"][w] = entry
        all_correct = all_correct and entry["correct"]
        print("== %s: correct=%s ops=%s" % (w, entry["correct"],
                                           entry["ops"]))
        for section in ("end_to_end", "per_layer"):
            for name, m in entry[section].items():
                print("  %-32s %14s %-8s [%s .. %s]" % (
                    name, fmt(m["median"]), m["unit"], fmt(m["q1"]),
                    fmt(m["q3"])))
        for span in entry["absent_spans"]:
            print("  absent span: %s (its metrics read 0)" % span)
    for key in ("nproc", "hardware_concurrency", "threads", "compiler",
                "build_type"):
        results["meta"][key] = runs[0][key]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s" % args.out)
    return 0 if all_correct else 1


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    # Different hosts, builds or run lengths measure different things.
    for key in ("nproc", "build_type", "smoke", "seconds"):
        if a["meta"].get(key) != b["meta"].get(key):
            log("refusing to compare: %s differs (%r vs %r)" %
                (key, a["meta"].get(key), b["meta"].get(key)))
            return 2
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    failures = 0
    print("%-15s %-17s %28s %28s %8s  %s" % (
        "workload", "metric", "A median [q1 .. q3]", "B median [q1 .. q3]",
        "worse by", "verdict"))
    for w, wa in a["workloads"].items():
        wb = b["workloads"].get(w)
        if wb is None:
            print("%-15s missing from %s" % (w, path_b))
            failures += 1
            continue
        for name, rule in bounds.items():
            if w not in rule.get("workloads", [w]):
                continue
            ma, mb = wa["end_to_end"].get(name), wb["end_to_end"].get(name)
            if ma is None or mb is None:
                continue
            base, new = ma["median"], mb["median"]
            worse = new - base if rule["better"] == "lower" else base - new
            change = worse / base if base else (0.0 if worse <= 0 else 1.0)
            ok = change <= rule["bound"] if rule["bound"] > 0 else worse <= 0
            failures += 0 if ok else 1
            print("%-15s %-17s %28s %28s %+7.1f%%  %s" % (
                w, name,
                "%s [%s .. %s]" % (fmt(base), fmt(ma["q1"]), fmt(ma["q3"])),
                "%s [%s .. %s]" % (fmt(new), fmt(mb["q1"]), fmt(mb["q3"])),
                100.0 * change,
                "ok" if ok else "WORSE than bound %g" % rule["bound"]))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin")
    p.add_argument("--out")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--trace-out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.bin:
        binary = os.path.abspath(args.bin)
    else:
        build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                     os.path.join(ROOT, ".bench_build"))
        binary = build(build_root)
    if args.workload:
        return run_one(binary, spec, args)
    return run_all(binary, args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log("run.py: %s" % e)
        sys.exit(1)
