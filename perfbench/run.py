#!/usr/bin/env python3
"""HERD simulator benchmark: one workload, one seed, a fixed host-time budget.

    python3 perfbench/run.py --workload herd_get_small --seed 3 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The script builds perfbench_driver from source
into .bench_build/perfbench, then runs it repeatedly, each repetition in a
fresh process so that peak RSS and page-fault counts never carry over, until
--seconds have passed (and at least MIN_REPS times per mode). Every
repetition of one workload and seed simulates exactly the same thing, so the
simulated ("sim_*") numbers must agree bit for bit across repetitions. Host
numbers are medians over repetitions; host times are first scaled by the
driver's reference work, timed in the same process, to take out the shared
machine's drift (see README.md).

--trace 0 reports the end-to-end metrics named in BENCHMARK.json from
untraced repetitions. --trace 1 alternates untraced and traced repetitions
and reports the per-layer metrics: modelled layer numbers and host costs
from the untraced ones, the p99 stage breakdown (tail.*) from the traced
ones, and the cost of tracing as the difference between the two.

Every line before the last goes to humans; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit status is
0 only when every correctness check passed. --selftest checks determinism
(same seed twice gives identical simulated numbers, another seed changes the
operation stream) and the traced-run invariants on short windows.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Simulated warm-up and measure window per repetition. Each window completes
# more than 1e5 requests, so over 100 samples lie beyond the p99.9.
WORKLOADS = {
    "herd_get_small": {"warmup_ms": 1.0, "measure_ms": 4.0},
    "herd_put_large_zipf": {"warmup_ms": 1.0, "measure_ms": 8.0},
}
SELFTEST_WINDOW = {"warmup_ms": 0.25, "measure_ms": 0.5}
MIN_REPS = 3
REP_TIMEOUT_S = 150

# Reference-work times of a quiet machine (the driver's calibrate(): 64 MiB
# zero-fill, 400k event-heap steps). A repetition's set-up time is scaled by
# FAULT_REF_S / cal_fault_s, its run and wall times by HEAP_REF_S /
# cal_heap_s, so host times read as if the machine ran at its quiet speed.
FAULT_REF_S = 0.04
HEAP_REF_S = 0.10


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; False (with the log) on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
    ]
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return False
        if p.returncode != 0:
            log(p.stdout[-6000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def rep(workload, seed, traced, window=None):
    """One repetition in a fresh driver process; returns its JSON."""
    w = window or WORKLOADS[workload]
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--warmup-ms", str(w["warmup_ms"]),
           "--measure-ms", str(w["measure_ms"])]
    if traced:
        cmd.append("--traced")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd)} ran over {REP_TIMEOUT_S} s")
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError(f"{' '.join(cmd)} exited {p.returncode}: "
                         f"{p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Repetitions until the budget is spent: {traced: [rep JSON, ...]}."""
    modes = [False, True] if trace else [False]
    reps = {m: [] for m in modes}
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        mode = modes[i % len(modes)]
        reps[mode].append(rep(workload, seed, mode))
        i += 1
        enough = all(len(reps[m]) >= MIN_REPS for m in modes)
        if enough and time.monotonic() >= deadline:
            return reps


def check(reps):
    """Correctness problems across all repetitions (empty = correct)."""
    problems = []
    for mode, runs in reps.items():
        label = "traced" if mode else "untraced"
        for r in runs:
            problems += [f"{label}: {f}" for f in r["failures"]]
        first = runs[0]
        for r in runs[1:]:
            if r["sim"] != first["sim"]:
                problems.append(f"{label}: simulated results differ between "
                                f"repetitions of one seed: {first['sim']} vs "
                                f"{r['sim']}")
            if r["bottleneck"] != first["bottleneck"]:
                problems.append(f"{label}: bottleneck {r['bottleneck']} vs "
                                f"{first['bottleneck']}")
    return problems


def median(values):
    return statistics.median(list(values))


def setup_s(r):
    return r["host"]["setup_s"] * FAULT_REF_S / r["host"]["cal_fault_s"]


def run_scale(r):
    """Scale factor for a repetition's run-phase host times."""
    return HEAP_REF_S / r["host"]["cal_heap_s"]


def end_to_end(reps):
    u = reps[False]
    sim = u[0]["sim"]
    attempted = sum(r["attempted"] for r in u)
    failed = sum(r["failed"] for r in u)
    return {
        "sim_mops": sim["sim_mops"],
        "sim_p50_us": sim["sim_p50_us"],
        "sim_p99_us": sim["sim_p99_us"],
        "sim_p999_us": sim["sim_p999_us"],
        "ok_op_share": 1.0 - failed / attempted if attempted else 0.0,
        "host_kops_per_cpu_s": median(
            r["host"]["host_kops_per_cpu_s"] / run_scale(r) for r in u),
        "setup_s": median(setup_s(r) for r in u),
        "peak_rss_mb": median(r["host"]["peak_rss_mb"] for r in u),
        "wall_s": median(r["host"]["wall_s"] * run_scale(r) for r in u),
    }


def per_layer(reps):
    u, t = reps[False], reps[True]
    out = {k: median(r["layer"][k] for r in u) for k in u[0]["layer"]}
    out["sim.host_ns_per_event"] = median(
        r["layer"]["sim.host_ns_per_event"] * run_scale(r) for r in u)
    for k in t[0]["layer"]:
        if k.startswith("tail."):
            out[k] = median(r["layer"][k] for r in t)
    run_cpu = [median(r["host"]["run_cpu_s"] * run_scale(r) for r in runs)
               for runs in (u, t)]
    out["obs.trace_cpu_ratio"] = run_cpu[1] / run_cpu[0]
    out["obs.trace_rss_mb"] = (median(r["host"]["peak_rss_mb"] for r in t) -
                               median(r["host"]["peak_rss_mb"] for r in u))
    out["obs.report_s"] = median(r["host"]["report_s"] * run_scale(r)
                                 for r in t)
    out["host.cal_fault_s"] = median(r["host"]["cal_fault_s"] for r in u + t)
    out["host.cal_heap_s"] = median(r["host"]["cal_heap_s"] for r in u + t)
    return out


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run(args):
    with open(SPEC) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reps = measure(args.workload, args.seed, args.seconds, args.trace)
    problems = check(reps)
    values = per_layer(reps) if args.trace else end_to_end(reps)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    u = reps[False]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(u)} untraced repetition(s)" +
          (f", {len(reps[True])} traced" if args.trace else ""))
    print(f"  bottleneck (untraced) {u[0]['bottleneck']}; "
          f"{u[0]['sim']['ops']} requests per window, "
          f"{u[0]['sim']['beyond_p999']} beyond the p99.9")
    for name, m in metrics.items():
        print(f"  {name:36s} {fmt(m['value']):>14s} {m['unit']}")
    raw = {k: median(r["host"][k] for r in u)
           for k in ("host_kops_per_cpu_s", "setup_s", "wall_s",
                     "cal_fault_s", "cal_heap_s")}
    print("  unscaled host medians: " +
          ", ".join(f"{k} {fmt(v)}" for k, v in raw.items()))
    for p in problems:
        print(f"  FAILED: {p}")

    every = [r for runs in reps.values() for r in runs]
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def selftest():
    """Short-window determinism and traced-invariant checks."""
    problems = []
    for w in WORKLOADS:
        a = rep(w, 11, False, SELFTEST_WINDOW)
        b = rep(w, 11, False, SELFTEST_WINDOW)
        c = rep(w, 12, False, SELFTEST_WINDOW)
        t = rep(w, 11, True, SELFTEST_WINDOW)
        for label, r in (("seed 11", a), ("seed 11 again", b),
                         ("seed 12", c), ("seed 11 traced", t)):
            problems += [f"{w} {label}: {f}" for f in r["failures"]]
        same = (a["sim"] == b["sim"] and a["layer"]["sim.events_per_op"] ==
                b["layer"]["sim.events_per_op"])
        if not same:
            problems.append(f"{w}: seed 11 twice differs: {a['sim']} vs "
                            f"{b['sim']}")
        stages = sorted(k for k in t["layer"] if k.startswith("tail."))
        changed = c["sim"]["op_stream"] != a["sim"]["op_stream"]
        if not changed:
            problems.append(f"{w}: seeds 11 and 12 issue the same operations")
        print(f"{w}: same seed identical={same}, other seed changes the "
              f"operation stream={changed}, traced p99 stages={stages}")
    for p in problems:
        print(f"FAILED: {p}")
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(SPEC):
        log(f"perfbench: {SPEC} is missing")
        return 1
    if not build():
        return 1
    try:
        return selftest() if args.selftest else run(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
