#!/usr/bin/env bash
# Flag parsing of the bench binaries, run by ctest: a malformed number, a
# negative count or a rate outside [0, 1] exits 2 with the parser's message
# before any trial runs, and so do the removed --no-seed-batch,
# --no-advice-cache and bench_perf --sweep.
# Arguments: paths of bench_e1_wakeup_upper, bench_e13_faults,
# bench_e16_byzantine and bench_perf.
set -euo pipefail

E1="$1"
E13="$2"
E16="$3"
PERF="$4"

fail() { echo "FAIL: $1" >&2; exit 1; }

# expect_exit2 <stderr line> <command...>: the command exits 2 and prints
# exactly that line on stderr. Each negative count is followed by an unknown
# flag, so a parser that let -1 wrap around still exits 2 on that flag
# (failing the message check) instead of starting 2^32 or 2^64 workers.
expect_exit2() {
  local want="$1"
  shift
  local err rc
  set +e
  err="$("$@" 2>&1 >/dev/null)"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || fail "$* should exit 2 (got $rc)"
  grep -qxF -- "$want" <<< "$err" || fail "$*: want '$want', got '$err'"
}

expect_exit2 "error: bad --jobs: 'abc'" "$E1" --jobs abc --no-json
expect_exit2 "error: bad --jobs: '-1'" "$E1" --jobs -1 --no-such-flag \
  --no-json
expect_exit2 "error: bad --shards: '-1'" "$E1" --shards -1 \
  --no-such-flag --no-json
expect_exit2 "error: --fault-rate must be in [0, 1]" "$E1" --fault-rate 2 \
  --no-json
expect_exit2 "error: bad --fault-rate: 'nan'" "$E1" --fault-rate nan \
  --no-json
expect_exit2 "error: bad --seeds: 'nope'" "$E13" --seeds nope --no-json
expect_exit2 "error: bad --jobs: 'abc'" "$E16" --jobs abc --no-json
expect_exit2 "error: bad --lanes: 'x'" "$PERF" --seed-batch --lanes x \
  --no-json
expect_exit2 "error: bad --repeat: '-1'" "$PERF" --sched-batch --repeat -1 \
  --no-such-flag --no-json

# expect_unknown <flag> <binary>: the binary rejects the removed flag as an
# unknown option and exits 2.
expect_unknown() {
  local err rc
  set +e
  err="$("$2" "$1" --no-json 2>&1 >/dev/null)"
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || fail "$2 $1 should exit 2 (got $rc)"
  grep -q "unknown option '$1'" <<< "$err" || fail "$2 $1: $err"
}

for bin in "$E13" "$E16"; do expect_unknown --no-seed-batch "$bin"; done
expect_unknown --no-advice-cache "$E1"
expect_exit2 "usage:" "$PERF" --sweep --no-json

echo "bench flags smoke: all checks passed"
