#!/usr/bin/env bash
# Runs the bench suite, the chaos sweeps and the tests of two build trees
# and says whether they behave the same: every figure of `bench/herd_bench
# --list`, untraced and with --bench-trace=64, at --bench-measure-ms=0.25
# and one fixed --git-rev, $(nproc) figures at a time; then
# tools/chaos_runner --seeds 100 --verbose, plain and with --crash-primary
# --overload-burst; then the two golden tests of tests/chaos_test; then each
# tree's whole ctest suite. Prints one verdict per output class:
#
#   BENCH          BENCH_<figure>.json
#   TIMESERIES     TIMESERIES_<figure>.json
#   TRACE          TRACE_<figure>.json (traced runs only)
#   stdout         each figure's stdout and exit status (<id>.txt)
#   chaos-history  each seed's history= column, with the sweep's summary
#                  lines, counters and exit status
#   chaos-engine   each seed's engine= column (event counts)
#   chaos-trace    each seed's trace= column (trace bytes)
#   golden-chaos   ChaosGolden.FingerprintsMatchCommittedGoldens: the
#                  fingerprints it computed and its exit status
#   golden-trace   ChaosTrace.FaultPathTraceMatchesGolden: the trace it
#                  computed and its exit status
#   test-verdicts  each test both trees' ctest has passes in both or fails
#                  in both; the tests only one tree has are listed
#
#   tools/same_bench_output.sh /path/to/parent/build build
#   tools/same_bench_output.sh --rev REV build
#
# With --rev, the script builds REV itself: a detached `git worktree` of
# this repository in a temporary directory, configured with BUILD_B's CMake
# generator, build type, compiler and flags (read from its CMakeCache.txt)
# and built offline (every target, since ctest runs them all). The worktree
# and its build are removed on exit, whether the run passed, failed or was
# interrupted.
#
# Every output holds simulated results only, so a change that keeps the
# model's behaviour writes the same bytes; a change to the engine's event
# count alone moves only chaos-engine, one to the trace alone only
# chaos-trace. Each tree's golden tests compare against that tree's committed
# goldens; the verdict compares what the two trees computed, so it holds
# even where a golden file differs between them. Exits 0 when every class
# is identical, 1 when any differs, 2 on a usage error or when REV does not
# build. A run that exits nonzero is listed; its exit status is part of its
# class (stdout for a figure).
set -u

usage() {
  echo "usage: $0 BUILD_A BUILD_B" >&2
  echo "       $0 --rev REV BUILD_B" >&2
  exit 2
}
# figures BUILD: one "ID COMMAND..." line per figure of BUILD.
figures() {
  "$1/bench/herd_bench" --list | sed "s|.*|& $1/bench/herd_bench &|"
}

# has_suite BUILD: BUILD holds the bench figures, chaos_runner, chaos_test
# and a ctest suite.
has_suite() {
  if [ -z "$(figures "$1" 2> /dev/null)" ]; then
    echo "$0: no bench figures under $1/bench" >&2
    return 1
  fi
  local bin
  for bin in tools/chaos_runner tests/chaos_test; do
    if [ ! -x "$1/$bin" ]; then
      echo "$0: no $1/$bin" >&2
      return 1
    fi
  done
  if [ ! -f "$1/CTestTestfile.cmake" ]; then
    echo "$0: no $1/CTestTestfile.cmake" >&2
    return 1
  fi
}

rev=
if [ "${1-}" = --rev ]; then
  [ $# -eq 3 ] || usage
  rev=$2
  build_b=$3
  if [ ! -f "$build_b/CMakeCache.txt" ]; then
    echo "$0: no $build_b/CMakeCache.txt" >&2
    exit 2
  fi
else
  [ $# -eq 2 ] || usage
  build_a=$1
  build_b=$2
  has_suite "$build_a" || exit 2
fi
has_suite "$build_b" || exit 2

out=$(mktemp -d)
repo=
cleanup() {
  if [ -n "$repo" ]; then
    git -C "$repo" worktree remove --force "$out/rev/src" 2> /dev/null ||
      git -C "$repo" worktree prune
  fi
  rm -rf "$out"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

if [ -n "$rev" ]; then
  repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
  if ! git -C "$repo" rev-parse --verify --quiet "$rev^{commit}" > /dev/null
  then
    echo "$0: $rev is not a commit of $repo" >&2
    exit 2
  fi
  src=$out/rev/src
  if ! git -C "$repo" worktree add --quiet --detach "$src" "$rev"; then
    repo=
    exit 2
  fi
  # BUILD_B's generator and the cache entries that shape the binaries.
  gen=$(sed -n 's/^CMAKE_GENERATOR:INTERNAL=//p' "$build_b/CMakeCache.txt")
  flags=()
  while IFS= read -r entry; do
    flags+=("-D$entry")
  done < <(grep -E '^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER|CMAKE_CXX_FLAGS|HERD_[A-Z_]+):[A-Z]+=' \
             "$build_b/CMakeCache.txt")
  echo "building $rev in $out/rev/build" >&2
  if ! { cmake -S "$src" -B "$out/rev/build" ${gen:+-G "$gen"} "${flags[@]}" &&
         cmake --build "$out/rev/build" -j"$(nproc)"
       } > "$out/rev/build.log" 2>&1; then
    tail -n 30 "$out/rev/build.log" >&2
    echo "$0: $rev does not build" >&2
    exit 2
  fi
  build_a=$out/rev/build
fi

# run SIDE BUILD MODE [bench flags...]: one suite into $out/SIDE/MODE.
run() {
  local dir="$out/$1/$3"
  mkdir -p "$dir/files" "$dir/stdout"
  local build=$2
  shift 3
  # xargs appends one figure's id and command; the extra flags go through
  # FLAGS.
  figures "$build" | FLAGS="$*" xargs -L1 -P"$(nproc)" sh -c '
      dir=$1; id=$2; shift 2
      "$@" --bench-measure-ms=0.25 --bench-out="$dir/files" \
           --git-rev=same-bench-output $FLAGS \
           > "$dir/stdout/$id.txt" 2> /dev/null
      echo "exit=$?" >> "$dir/stdout/$id.txt"
    ' sh "$dir"
}

# sweep SIDE BUILD MODE [chaos_runner flags...]: one chaos sweep into
# $out/SIDE/chaos/MODE.txt, its exit status on the last line.
sweep() {
  local file="$out/$1/chaos/$3.txt"
  local runner=$2/tools/chaos_runner
  shift 3
  mkdir -p "${file%/*}"
  "$runner" --seeds 100 --verbose "$@" > "$file" 2> /dev/null
  echo "exit=$?" >> "$file"
}

for side in a b; do
  build=$build_a
  [ "$side" = b ] && build=$build_b
  run "$side" "$build" untraced
  run "$side" "$build" traced --bench-trace=64
done
GOLDEN_TESTS=(ChaosGolden.FingerprintsMatchCommittedGoldens
              ChaosTrace.FaultPathTraceMatchesGolden)
# goldens SIDE BUILD: each golden test of BUILD's chaos_test, run in
# $out/SIDE/golden/TEST, where it leaves the .actual.txt it computed; its
# exit status goes to status.txt there.
goldens() {
  local bin test
  bin=$(cd "$2" && pwd)/tests/chaos_test
  for test in "${GOLDEN_TESTS[@]}"; do
    mkdir -p "$out/$1/golden/$test"
    (cd "$out/$1/golden/$test" &&
       "$bin" --gtest_filter="$test" > /dev/null 2>&1
     echo "exit=$?" > status.txt)
  done
}

# The four sweeps and both trees' goldens run side by side; each is one
# process.
for side in a b; do
  build=$build_a
  [ "$side" = b ] && build=$build_b
  sweep "$side" "$build" plain &
  sweep "$side" "$build" combined --crash-primary --overload-burst &
  goldens "$side" "$build" &
done
wait

status=0
# verdict CLASS SUBDIR GLOB: compares that class's files, both modes.
verdict() {
  local class=$1 sub=$2 glob=$3 n=0 diffs=()
  for mode in untraced traced; do
    local a="$out/a/$mode/$sub" b="$out/b/$mode/$sub" f
    for f in $( (cd "$a" && ls $glob; cd "$b" && ls $glob) 2>/dev/null |
                sort -u); do
      n=$((n + 1))
      if ! cmp -s "$a/$f" "$b/$f"; then diffs+=("$mode/$f"); fi
    done
  done
  if [ "${#diffs[@]}" -eq 0 ]; then
    printf '%-14s identical (%d files)\n' "$class" "$n"
  else
    printf '%-14s DIFFERENT in %d of %d files: %s\n' "$class" \
      "${#diffs[@]}" "$n" "${diffs[*]}"
    status=1
  fi
}
verdict BENCH files 'BENCH_*.json'
verdict TIMESERIES files 'TIMESERIES_*.json'
verdict TRACE files 'TRACE_*.json'
verdict stdout stdout '*.txt'

# column FILE COL: "SEED HEX" for each "seed N fingerprint ... COL=HEX ..."
# line of a sweep; for history, also every line that is not a fingerprint
# (summaries, counters, exit status), keyed by its position.
column() {
  awk -v col="$2" '
    $3 == "fingerprint" {
      for (i = 4; i <= NF; i++) {
        if (index($i, col "=") == 1) print $2, substr($i, length(col) + 2)
      }
      next
    }
    col == "history" { line = $0; gsub(/ /, "_", line); print "line" NR, line }
  ' "$1"
}

# chaos_verdict COL: compares that column of every seed, both sweeps.
chaos_verdict() {
  local col=$1 n=0 diffs=() mode key summary
  for mode in plain combined; do
    local a="$out/a/chaos/$mode.txt" b="$out/b/chaos/$mode.txt"
    n=$((n + $(column "$a" "$col" | grep -c '^[0-9]')))
    summary=
    # Keys whose value differs, or that only one side printed.
    for key in $(awk 'NR == FNR { a[$1] = $2; next }
                      !($1 in a) || a[$1] != $2 { print $1 }
                      { delete a[$1] }
                      END { for (k in a) print k }' \
                   <(column "$a" "$col") <(column "$b" "$col") | sort -n); do
      case $key in
        line*) summary=1 ;;
        *) diffs+=("$mode/seed$key") ;;
      esac
    done
    if [ -n "$summary" ]; then diffs+=("$mode/summary"); fi
  done
  if [ "$n" -eq 0 ]; then
    printf '%-14s no fingerprints from %s\n' "chaos-$col" "$build_a"
    status=1
  elif [ "${#diffs[@]}" -eq 0 ]; then
    printf '%-14s identical (%d seeds)\n' "chaos-$col" "$n"
  else
    printf '%-14s DIFFERENT (%d seeds): %s\n' "chaos-$col" "$n" \
      "${diffs[*]}"
    status=1
  fi
}
chaos_verdict history
chaos_verdict engine
chaos_verdict trace

# golden_verdict CLASS TEST: compares what TEST computed and its exit
# status in both trees, and says where it passed.
golden_verdict() {
  local class=$1 test=$2 side passed=() where
  for side in a b; do
    if grep -qx 'exit=0' "$out/$side/golden/$test/status.txt"; then
      passed+=("$side")
    fi
  done
  case "${passed[*]}" in
    "a b") where="passes in both" ;;
    a) where="fails in B" ;;
    b) where="fails in A" ;;
    *) where="fails in both" ;;
  esac
  if diff -r -q "$out/a/golden/$test" "$out/b/golden/$test" > /dev/null; then
    printf '%-14s identical (%s)\n' "$class" "$where"
  else
    printf '%-14s DIFFERENT (%s)\n' "$class" "$where"
    status=1
  fi
}
golden_verdict golden-chaos "${GOLDEN_TESTS[0]}"
golden_verdict golden-trace "${GOLDEN_TESTS[1]}"

# ctests SIDE BUILD: BUILD's whole ctest suite, $(nproc) tests at a time;
# every test's name goes to $out/SIDE/tests/all.txt and the names of those
# that did not pass to failed.txt.
ctests() {
  local dir="$out/$1/tests"
  mkdir -p "$dir"
  (cd "$2" && ctest -N) | sed -n 's/^ *Test *#[0-9]*: //p' |
    LC_ALL=C sort > "$dir/all.txt"
  (cd "$2" && ctest -j"$(nproc)") > "$dir/ctest.log" 2>&1
  sed -n '/^The following tests FAILED:/,$ s/^[[:space:]]*[0-9]* - \(.*\) ([^()]*)$/\1/p' \
    "$dir/ctest.log" | LC_ALL=C sort -u > "$dir/failed.txt"
}
# The two suites run one after the other, each on every CPU.
ctests a "$build_a"
ctests b "$build_b"

# lines TEXT: how many lines TEXT has (0 when empty).
lines() { printf '%s' "$1" | grep -c '^' || true; }

# test_verdict: compares the verdicts of the tests both trees have, and
# lists the tests only one of them has.
test_verdict() {
  local a="$out/a/tests" b="$out/b/tests" both differ t side only
  both=$(LC_ALL=C comm -12 "$a/all.txt" "$b/all.txt")
  # The common tests that did not pass in exactly one tree.
  differ=$(LC_ALL=C comm -3 "$a/failed.txt" "$b/failed.txt" | tr -d '\t' |
           LC_ALL=C sort | LC_ALL=C comm -12 <(printf '%s\n' "$both") -)
  if [ -z "$differ" ]; then
    printf '%-14s identical (%d tests in both, %d failing in both)\n' \
      test-verdicts "$(lines "$both")" \
      "$(lines "$(LC_ALL=C comm -12 "$a/failed.txt" "$b/failed.txt")")"
  else
    printf '%-14s DIFFERENT in %d of %d tests\n' test-verdicts \
      "$(lines "$differ")" "$(lines "$both")"
    while IFS= read -r t; do
      side=A
      grep -qxF -- "$t" "$b/failed.txt" && side=B
      echo "  fails only in $side: $t"
    done <<< "$differ"
    status=1
  fi
  for side in B A; do
    if [ "$side" = B ]; then
      only=$(LC_ALL=C comm -13 "$a/all.txt" "$b/all.txt")
    else
      only=$(LC_ALL=C comm -23 "$a/all.txt" "$b/all.txt")
    fi
    [ -n "$only" ] || continue
    echo "  only in $side ($(lines "$only")):"
    printf '%s\n' "$only" | sed 's/^/    /'
  done
}
test_verdict

failed=$(cd "$out" &&
         grep -L '^exit=0$' */*/stdout/*.txt */chaos/*.txt */golden/*/status.txt)
if [ -n "$failed" ]; then
  echo "runs that exited nonzero:"
  printf '  %s\n' $failed
fi
exit "$status"
