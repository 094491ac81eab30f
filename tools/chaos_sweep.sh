#!/usr/bin/env bash
# Runs one chaos_runner sweep over seeds 1..N as contiguous --start-seed
# shards, one process per CPU, then prints every shard's output in seed
# order. Exits with the first failing shard's code in seed order (chaos_runner
# exit codes: 1 = violation, 2 = determinism mismatch), else 0.
#
#   tools/chaos_sweep.sh build/tools/chaos_runner 100 --crash-primary
#
# Shard sizes differ by at most one seed. chaos_runner picks the seeds it
# replays by seed number, so the shards replay the same seeds as a
# single-process sweep.
set -u

if [ $# -lt 2 ]; then
  echo "usage: $0 CHAOS_RUNNER SEEDS [chaos_runner flags...]" >&2
  exit 64
fi
runner=$1
seeds=$2
shift 2

jobs=$(nproc)
base=$(( seeds / jobs ))
extra=$(( seeds % jobs ))

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

pids=()
ranges=()
start=1
for (( shard = 0; shard < jobs && start <= seeds; ++shard )); do
  n=$(( base + (shard < extra ? 1 : 0) ))
  "$runner" --seeds "$n" --start-seed "$start" "$@" \
    > "$out/${#pids[@]}.txt" 2>&1 &
  pids+=($!)
  ranges+=("$start-$(( start + n - 1 ))")
  start=$(( start + n ))
done

status=0
for i in "${!pids[@]}"; do
  wait "${pids[$i]}"
  rc=$?
  echo "== seeds ${ranges[$i]}"
  cat "$out/$i.txt"
  if [ "$rc" -ne 0 ] && [ "$status" -eq 0 ]; then status=$rc; fi
done
exit "$status"
