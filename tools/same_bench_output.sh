#!/usr/bin/env bash
# Runs the bench suite of two build trees and says whether they wrote the
# same bytes: every build/bench/bench_* binary, untraced and with
# --bench-trace=64, at --bench-measure-ms=0.25 and one fixed --git-rev,
# $(nproc) binaries at a time. Prints one verdict per output class:
#
#   BENCH       BENCH_<figure>.json
#   TIMESERIES  TIMESERIES_<figure>.json
#   TRACE       TRACE_<figure>.json (traced runs only)
#   stdout      each binary's stdout and exit status
#
#   tools/same_bench_output.sh /path/to/parent/build build
#
# Every output holds simulated results only, so a change that keeps the
# model's behaviour writes the same bytes. Exits 0 when all four classes are
# identical, 1 when any differs, 2 on a usage error. A binary that exits
# nonzero is listed; its exit status is part of the stdout class.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi
for b in "$1" "$2"; do
  if ! ls "$b"/bench/bench_* > /dev/null 2>&1; then
    echo "$0: no bench binaries under $b/bench" >&2
    exit 2
  fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run SIDE BUILD MODE [bench flags...]: one suite into $out/SIDE/MODE.
run() {
  local dir="$out/$1/$3"
  mkdir -p "$dir/files" "$dir/stdout"
  local build=$2
  shift 3
  # xargs appends the binary last; the extra flags go through FLAGS.
  printf '%s\n' "$build"/bench/bench_* | FLAGS="$*" xargs -n1 -P"$(nproc)" \
    sh -c '
      dir=$1; bin=$2; name=${bin##*/}
      "$bin" --bench-measure-ms=0.25 --bench-out="$dir/files" \
             --git-rev=same-bench-output $FLAGS \
             > "$dir/stdout/$name.txt" 2> /dev/null
      echo "exit=$?" >> "$dir/stdout/$name.txt"
    ' sh "$dir"
}

for side in a b; do
  build=$1
  [ "$side" = b ] && build=$2
  run "$side" "$build" untraced
  run "$side" "$build" traced --bench-trace=64
done

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
    printf '%-10s identical (%d files)\n' "$class" "$n"
  else
    printf '%-10s DIFFERENT in %d of %d files: %s\n' "$class" \
      "${#diffs[@]}" "$n" "${diffs[*]}"
    status=1
  fi
}
verdict BENCH files 'BENCH_*.json'
verdict TIMESERIES files 'TIMESERIES_*.json'
verdict TRACE files 'TRACE_*.json'
verdict stdout stdout '*.txt'

failed=$(cd "$out" && grep -L '^exit=0$' */*/stdout/*.txt)
if [ -n "$failed" ]; then
  echo "binaries that exited nonzero:"
  printf '  %s\n' $failed
fi
exit "$status"
