#!/usr/bin/env bash
# End-to-end smoke test of oraclesize_cli, run by ctest. First argument:
# path to the CLI binary.
set -euo pipefail

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# gen -> run for every task on a sparse network.
"$CLI" gen random 80 0.08 --seed 5 > "$TMP/net.txt"
grep -q '^portgraph 80$' "$TMP/net.txt" || fail "gen header"

for task in wakeup broadcast flooding census gossip hybrid; do
  "$CLI" run "$task" < "$TMP/net.txt" > "$TMP/out.txt" || fail "run $task"
  grep -q ': ok,' "$TMP/out.txt" || fail "$task not ok"
done

# advise | run --advice-file round trip.
"$CLI" advise light < "$TMP/net.txt" > "$TMP/advice.txt"
grep -q '^advice 80$' "$TMP/advice.txt" || fail "advise header"
"$CLI" run broadcast --advice-file "$TMP/advice.txt" < "$TMP/net.txt" \
  > "$TMP/out.txt"
grep -q 'file:' "$TMP/out.txt" || fail "advice-file oracle name"
grep -q ': ok,' "$TMP/out.txt" || fail "advice-file run"

# Census reports the node count.
"$CLI" gen grid 6 7 | "$CLI" run census > "$TMP/out.txt"
grep -q 'census output at source: 42' "$TMP/out.txt" || fail "census output"

# Deterministic generation: same seed, same bytes.
"$CLI" gen random 50 0.1 --seed 9 > "$TMP/a.txt"
"$CLI" gen random 50 0.1 --seed 9 > "$TMP/b.txt"
cmp -s "$TMP/a.txt" "$TMP/b.txt" || fail "gen determinism"

# tree and bounds and game produce their key lines.
"$CLI" gen complete 32 | "$CLI" tree light | grep -q 'contribution' \
  || fail "tree"
"$CLI" bounds wakeup 256 1 500 | grep -q 'guaranteed wakeup messages' \
  || fail "bounds wakeup"
"$CLI" bounds broadcast 256 4 64 | grep -q 'guaranteed broadcast messages' \
  || fail "bounds broadcast"
"$CLI" game 60 4 | grep -q 'measured probes' || fail "game"

# Failure paths exit non-zero.
if "$CLI" run wakeup --source 999 < "$TMP/net.txt" >/dev/null 2>&1; then
  fail "out-of-range source accepted"
fi
if echo "garbage" | "$CLI" run wakeup >/dev/null 2>&1; then
  fail "garbage network accepted"
fi
if "$CLI" gen bogus 5 >/dev/null 2>&1; then
  fail "unknown family accepted"
fi
# A numeric flag parses to exactly the value it spells or the CLI exits 2
# with usage: no wrap-around, no NaN, no rate outside [0, 1].
for flags in "--source 4294967296" "--seed -1" "--jobs +2" \
    "--fault-rate nan" "--byz-rate nan" "--fraction nan" "--fraction 7"; do
  set +e
  # shellcheck disable=SC2086  # $flags is a flag and its value
  "$CLI" run hybrid $flags < "$TMP/net.txt" >/dev/null 2>&1
  rc=$?
  set -e
  [ "$rc" -eq 2 ] || fail "run hybrid $flags should exit 2 (got $rc)"
done

"$CLI" gen torus 5 5 | "$CLI" stats | grep -q "diameter" || fail "stats"

# Fault-injection flags. Rate 0 is the reliable network and must stay ok.
"$CLI" run broadcast --fault-rate 0 --fault-seed 7 < "$TMP/net.txt" \
  > "$TMP/out.txt" || fail "fault-rate 0"
grep -q ': ok,' "$TMP/out.txt" || fail "fault-rate 0 not ok"

# Dropping every message fails the task: a REPORTABLE result (exit 1),
# distinct from an infrastructure error (exit 2).
set +e
"$CLI" run flooding --fault-rate 1 --fault-seed 7 < "$TMP/net.txt" \
  > "$TMP/out.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "full drop should exit 1 (got $rc)"
grep -q 'status: task_failed' "$TMP/out.txt" || fail "full drop status"

# JSON records carry status and (retried) attempt counts; the same seeds
# must reproduce the same records.
set +e
"$CLI" run flooding --fault-rate 0.4 --fault-seed 3 --retries 2 --json \
  < "$TMP/net.txt" > "$TMP/f1.json" 2>&1
"$CLI" run flooding --fault-rate 0.4 --fault-seed 3 --retries 2 --json \
  < "$TMP/net.txt" > "$TMP/f2.json" 2>&1
set -e
grep -q '"status":' "$TMP/f1.json" || fail "json status field"
grep -q '"attempts":' "$TMP/f1.json" || fail "json attempts field"
strip_timing() { sed -E 's/"(wall|advise|run)_ns": [0-9]+/"\1_ns": X/g' "$1"; }
[ "$(strip_timing "$TMP/f1.json")" = "$(strip_timing "$TMP/f2.json")" ] \
  || fail "faulty run not reproducible"

# --seed-sweep K fans one trial out into K fault seeds and reports the
# seed-family batching. Each seed's report must be the one a single run
# with that --fault-seed prints (the lockstep executor's determinism
# contract).
"$CLI" run broadcast --fault-rate 0.05 --fault-seed 5 --seed-sweep 6 \
  < "$TMP/net.txt" > "$TMP/sweep.txt" 2>&1 || true
[ "$(grep -c '^source 0 fault-seed' "$TMP/sweep.txt")" -eq 6 ] \
  || fail "seed-sweep trial count"
grep -q '^seed batching: 1 family, 6 lanes' "$TMP/sweep.txt" \
  || fail "seed-sweep batching banner"
for s in 5 6 7 8 9 10; do
  "$CLI" run broadcast --fault-rate 0.05 --fault-seed "$s" \
    < "$TMP/net.txt" > "$TMP/single.txt" 2>&1 || true
  want="$(sed -n 's/^source 0: //p' "$TMP/single.txt")"
  got="$(sed -n "s/^source 0 fault-seed $s: //p" "$TMP/sweep.txt")"
  { [ -n "$want" ] && [ "$want" = "$got" ]; } \
    || fail "seed-sweep seed $s differs from a single run"
done
"$CLI" run broadcast --fault-rate 0.05 --fault-seed 5 --seed-sweep 6 --json \
  < "$TMP/net.txt" > "$TMP/s1.json" 2>&1 || true
grep -q '"fault_seed": 5' "$TMP/s1.json" || fail "json fault_seed field"
# There is no scalar switch: --no-seed-batch is an unknown option.
set +e
"$CLI" run broadcast --no-seed-batch < "$TMP/net.txt" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "run --no-seed-batch should exit 2 (got $rc)"

# A deadline terminates structurally (timeout is a failed task, not a crash).
set +e
"$CLI" run broadcast --deadline-ms 1 < "$TMP/net.txt" >/dev/null 2>&1
[ $? -le 1 ] || fail "deadline should not be an infrastructure error"
set -e

# Trace record -> replay -> diff -> export round trip.
"$CLI" trace record wakeup --trace-file "$TMP/w.trace" < "$TMP/net.txt" \
  > /dev/null 2> "$TMP/out.txt" || fail "trace record"
grep -q '^\[trace\] wrote' "$TMP/out.txt" || fail "trace record banner"
grep -q '^oracletrace 1$' "$TMP/w.trace" || fail "trace file magic"
"$CLI" trace replay "$TMP/w.trace" | grep -q 'replay OK' \
  || fail "trace replay"
"$CLI" trace diff "$TMP/w.trace" "$TMP/w.trace" | grep -q 'identical' \
  || fail "trace self-diff"
"$CLI" trace export "$TMP/w.trace" > "$TMP/w.json" || fail "trace export"
grep -q '"traceEvents"' "$TMP/w.json" || fail "chrome export shape"

# Two different recordings diff as different (exit 1, still reportable).
"$CLI" trace record census --seed 1 --scheduler random \
  --trace-file "$TMP/c1.trace" < "$TMP/net.txt" >/dev/null 2>&1
"$CLI" trace record census --seed 2 --scheduler random \
  --trace-file "$TMP/c2.trace" < "$TMP/net.txt" >/dev/null 2>&1
set +e
"$CLI" trace diff "$TMP/c1.trace" "$TMP/c2.trace" > "$TMP/out.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "divergent diff should exit 1 (got $rc)"

# A tampered artifact is rejected as an infrastructure error (exit 2).
sed 's/^e \([0-9]*\)/e 9\1/' "$TMP/w.trace" > "$TMP/bad.trace"
set +e
"$CLI" trace replay "$TMP/bad.trace" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "tampered trace should exit 2 (got $rc)"

# --trace-file on plain run records too, and faulty replays stay exact.
"$CLI" run flooding --fault-rate 0.3 --fault-seed 11 \
  --trace-file "$TMP/f.trace" < "$TMP/net.txt" >/dev/null 2>&1 || true
"$CLI" trace replay "$TMP/f.trace" | grep -q 'replay OK' \
  || fail "faulty trace replay"

# Byzantine adversary flags. Rate 0 is the honest network: exit 0, and the
# JSON record must be byte-identical to a run without any --byz flag (the
# byz_* fields only appear once the adversary is enabled).
"$CLI" run broadcast --byz-rate 0 --byz-seed 99 --json < "$TMP/net.txt" \
  > "$TMP/z.json" || fail "byz-rate 0"
"$CLI" run broadcast --json < "$TMP/net.txt" > "$TMP/plain.json"
[ "$(strip_timing "$TMP/z.json")" = "$(strip_timing "$TMP/plain.json")" ] \
  || fail "byz-rate 0 record differs from plain run"
grep -q byz "$TMP/z.json" && fail "byz fields leaked into a zero-byz record"

# Random-bits forging hands scheme B a control message it can prove no
# honest node sends: a DETECTED Byzantine failure, reportable (exit 1).
set +e
"$CLI" run broadcast --byz-rate 0.3 --byz-seed 7 < "$TMP/net.txt" \
  > "$TMP/out.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "detected byz run should exit 1 (got $rc)"
grep -q 'status: byzantine_detected' "$TMP/out.txt" || fail "byz status"

# Structured lies against flooding on a tree (every path runs through the
# liars) fail SILENTLY: task_failed, no violation — the fooled case.
"$CLI" gen tree 64 --seed 5 > "$TMP/tree.txt"
set +e
"$CLI" run flooding --byz-rate 0.3 --byz-seed 7 \
  --byz-strategy structured-lie < "$TMP/tree.txt" > "$TMP/out.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "fooled byz run should exit 1 (got $rc)"
grep -q 'status: task_failed' "$TMP/out.txt" || fail "fooled byz status"
grep -q 'byzantine_detected' "$TMP/out.txt" && fail "fooled run not silent"

# A fooled/detected run is a reproducible experiment: same seeds, same
# record, adversary counters included.
set +e
"$CLI" run broadcast --byz-rate 0.3 --byz-seed 7 --json < "$TMP/net.txt" \
  > "$TMP/y1.json" 2>&1
"$CLI" run broadcast --byz-rate 0.3 --byz-seed 7 --json < "$TMP/net.txt" \
  > "$TMP/y2.json" 2>&1
set -e
grep -q '"byz_lying_nodes":' "$TMP/y1.json" || fail "json byz counters"
grep -q '"byz_forged":' "$TMP/y1.json" || fail "json byz_forged field"
[ "$(strip_timing "$TMP/y1.json")" = "$(strip_timing "$TMP/y2.json")" ] \
  || fail "byzantine run not reproducible"

# --byz-nodes pins an exact colluding-set size; strategies parse.
set +e
"$CLI" run broadcast --byz-nodes 8 --byz-seed 7 --byz-strategy replay \
  < "$TMP/net.txt" > "$TMP/out.txt" 2>&1
rc=$?
set -e
[ "$rc" -le 1 ] || fail "byz-nodes run should be reportable (got $rc)"
if "$CLI" run broadcast --byz-strategy bogus --byz-rate 0.1 \
    < "$TMP/net.txt" >/dev/null 2>&1; then
  fail "unknown byz strategy accepted"
fi

# Byzantine traces replay bit-identically (forge events included).
"$CLI" run broadcast --byz-rate 0.3 --byz-seed 7 \
  --trace-file "$TMP/byz.trace" < "$TMP/net.txt" >/dev/null 2>&1 || true
"$CLI" trace replay "$TMP/byz.trace" | grep -q 'replay OK' \
  || fail "byzantine trace replay"
"$CLI" trace diff "$TMP/byz.trace" "$TMP/byz.trace" | grep -q 'identical' \
  || fail "byzantine trace self-diff"

echo "cli smoke: all checks passed"
