#!/usr/bin/env bash
# Compares the benchmark's end-to-end metrics of a revision and the working
# tree over alternating pairs of perfbench_driver runs:
#
#   tools/perf_pairs.sh --rev REV [--pairs N] [--seed S] [--build-dir DIR] \
#       WORKLOAD
#   tools/perf_pairs.sh --selftest [--build-dir DIR]
#
# Builds perfbench_driver twice with perfbench/CMakeLists.txt as it stands
# in each tree, as perfbench/run.py builds it (RelWithDebInfo): once from a
# `git archive` of REV (A) and once from the working tree (B). Then runs N
# pairs (default 10) of WORKLOAD at run.py's windows and --seed S (default
# 1), one fresh process per run, A first in even pairs and B first in odd
# ones, so drift of a shared machine falls on both sides alike.
#
# For each end-to-end metric of BENCHMARK.json it prints A's and B's median,
# the change, A's interquartile range and the number of pairs B won (was
# better in, per the metric's "better"), with ties listed apart. Host times
# are scaled by each run's own cal_fault_s and cal_heap_s exactly as run.py
# scales them (its setup_s and run_scale are imported), and ok_op_share is
# 1 - failed/attempted per run. A run whose driver reports a failed check is
# printed. Exits 1 when a run fails, or when a sim_* metric differs between
# any two runs of the pairs; 0 otherwise, whatever the host numbers say.
#
# --selftest builds only the working tree and runs it against itself: one
# pair per workload at run.py's short self-test window. It checks that both
# sides of a pair report the same sim_* numbers and no failure, so the
# pairing, the scaling and the report run end to end.
#
# Builds go to a temporary directory removed on exit, or to DIR (kept, and
# rebuilt incrementally on the next run) with --build-dir.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
usage() {
  echo "usage: $0 --rev REV [--pairs N] [--seed S] [--build-dir DIR]" \
       "WORKLOAD" >&2
  echo "       $0 --selftest [--build-dir DIR]" >&2
  exit 2
}

rev=""
pairs=10
seed=1
build_dir=""
selftest=0
workload=""
while [ $# -gt 0 ]; do
  case "$1" in
    --rev) [ $# -ge 2 ] || usage; rev="$2"; shift 2 ;;
    --pairs) [ $# -ge 2 ] || usage; pairs="$2"; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed="$2"; shift 2 ;;
    --build-dir) [ $# -ge 2 ] || usage; build_dir="$2"; shift 2 ;;
    --selftest) selftest=1; shift ;;
    -*) usage ;;
    *) [ -z "$workload" ] || usage; workload="$1"; shift ;;
  esac
done
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac
case "$seed" in '' | *[!0-9]*) usage ;; esac
if [ "$selftest" = 1 ]; then
  [ -z "$rev" ] && [ -z "$workload" ] || usage
else
  [ -n "$rev" ] && [ -n "$workload" ] || usage
fi

# run.py's workloads, without leaving bytecode under perfbench/.
known="$(PYTHONDONTWRITEBYTECODE=1 python3 -c '
import sys; sys.path.insert(0, sys.argv[1]); import run
print(" ".join(sorted(run.WORKLOADS)))' "$root/perfbench")" || exit 2
if [ -n "$workload" ] && ! [[ " $known " == *" $workload "* ]]; then
  echo "$0: unknown workload $workload; one of: $known" >&2
  exit 2
fi

if [ -z "$build_dir" ]; then
  build_dir="$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")" || exit 2
  trap 'rm -rf "$build_dir"' EXIT
  trap 'exit 130' INT TERM
fi
mkdir -p "$build_dir" || exit 2
jobs="$(nproc 2> /dev/null || echo 1)"
[ "$jobs" -gt 4 ] && jobs=4

# build SRC OUT: perfbench_driver of the tree at SRC into OUT.
build() {
  echo "building perfbench_driver from $1" >&2
  cmake -S "$1/perfbench" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      > "$2.log" 2>&1 &&
    cmake --build "$2" --target perfbench_driver -j "$jobs" >> "$2.log" 2>&1
  local status=$?
  if [ $status -ne 0 ]; then
    tail -40 "$2.log" >&2
    echo "$0: building $1 failed (log: $2.log)" >&2
    exit 2
  fi
}

work="$build_dir/work"
build "$root" "$work"
if [ "$selftest" = 1 ]; then
  driver_a="$work/perfbench_driver"
else
  sha="$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}")" || {
    echo "$0: unknown revision $rev" >&2
    exit 2
  }
  src="$build_dir/src-$sha"
  if [ ! -d "$src" ]; then
    mkdir -p "$src.tmp" &&
      git -C "$root" archive "$sha" | tar -x -C "$src.tmp" &&
      mv "$src.tmp" "$src" || exit 2
  fi
  build "$src" "$build_dir/rev-$sha"
  driver_a="$build_dir/rev-$sha/perfbench_driver"
fi

python3 - "$root" "$driver_a" "$work/perfbench_driver" "$selftest" \
    "$pairs" "$seed" "$workload" <<'EOF'
import json
import os
import statistics
import subprocess
import sys

root, driver_a, driver_b, selftest, pairs, seed, workload = sys.argv[1:]
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, os.path.join(root, "perfbench"))
import run as perfbench  # noqa: E402  (run.py's windows and host scaling)

with open(os.path.join(root, "BENCHMARK.json")) as f:
    METRICS = json.load(f)["end_to_end"]


def one(driver, workload, seed, window):
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--warmup-ms", str(window["warmup_ms"]),
           "--measure-ms", str(window["measure_ms"])]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=perfbench.REP_TIMEOUT_S)
    if p.returncode != 0 or not p.stdout.strip():
        return None, [f"{' '.join(cmd)} exited {p.returncode}: "
                      f"{p.stderr.strip()[-500:]}"]
    r = json.loads(p.stdout.strip().splitlines()[-1])
    h = r["host"]
    scale = perfbench.run_scale(r)
    values = {k: v for k, v in r["sim"].items() if k.startswith("sim_")}
    values.update({
        "ok_op_share": (1.0 - r["failed"] / r["attempted"]
                        if r["attempted"] else 0.0),
        "host_kops_per_cpu_s": h["host_kops_per_cpu_s"] / scale,
        "setup_s": perfbench.setup_s(r),
        "peak_rss_mb": h["peak_rss_mb"],
        "wall_s": h["wall_s"] * scale,
    })
    return values, r["failures"]


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def compare(workload, seed, n, window):
    """Runs n pairs; returns the problems found."""
    problems = []
    runs = {"A": [], "B": []}
    drivers = {"A": driver_a, "B": driver_b}
    for i in range(n):
        for side in ("AB" if i % 2 == 0 else "BA"):
            values, failures = one(drivers[side], workload, seed, window)
            problems += [f"pair {i + 1} {side}: {f}" for f in failures]
            if values is None:
                return problems
            runs[side].append(values)
        print(f"pair {i + 1}/{n}: A {runs['A'][-1]['peak_rss_mb']:.2f} MB "
              f"{runs['A'][-1]['host_kops_per_cpu_s']:.1f} kops/CPU-s, "
              f"B {runs['B'][-1]['peak_rss_mb']:.2f} MB "
              f"{runs['B'][-1]['host_kops_per_cpu_s']:.1f} kops/CPU-s",
              file=sys.stderr, flush=True)
    print(f"{workload} seed {seed}, {n} pair(s), A = "
          f"{'the working tree' if selftest == '1' else 'the revision'}, "
          f"B = the working tree")
    print(f"  {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'A IQR':>10s}  B won")
    for m in METRICS:
        name = m["name"]
        a = [r[name] for r in runs["A"]]
        b = [r[name] for r in runs["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        sign = 1 if m["better"] == "higher" else -1
        won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        ties = sum(1 for x, y in zip(a, b) if x == y)
        change = f"{100 * (mb - ma) / ma:+.1f}%" if ma else "n/a"
        print(f"  {name:22s} {ma:12.6g} {mb:12.6g} {change:>8s} "
              f"{iqr(a):10.4g}  {won}/{n}" + (f" ({ties} tied)" if ties else ""))
        if name.startswith("sim_") and len(set(a + b)) > 1:
            problems.append(f"{name} differs between runs: A {a}, B {b}")
    return problems


problems = []
if selftest == "1":
    for w in perfbench.WORKLOADS:
        problems += compare(w, 11, 1, perfbench.SELFTEST_WINDOW)
else:
    problems = compare(workload, int(seed), int(pairs),
                       perfbench.WORKLOADS[workload])
for p in problems:
    print(f"FAILED: {p}")
if selftest == "1":
    print("perf_pairs selftest " + ("FAILED" if problems else "passed"))
sys.exit(1 if problems else 0)
EOF
