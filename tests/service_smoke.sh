#!/usr/bin/env bash
# End-to-end smoke test of the oracled daemon, run by ctest. Arguments:
# paths to the oracled, oracled_ctl, and oraclesize_cli binaries.
#
# Exercises the daemon as a black box: socket bring-up, upload/advise/run
# round trips, the 0/1/2 exit ladder through oracled_ctl, malformed-frame
# rejection, the Prometheus scrape endpoint, and a clean drain on shutdown.
set -euo pipefail

ORACLED="$1"
CTL="$2"
CLI="$3"
TMP="$(mktemp -d)"
SOCK="$TMP/d.sock"
DPID=""
trap '[ -n "$DPID" ] && kill "$DPID" 2>/dev/null; rm -rf "$TMP"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

# Requests are not batched, so there is no --max-batch to size a batch.
set +e
"$ORACLED" --socket "$SOCK" --max-batch 4 > "$TMP/usage.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "--max-batch should exit 2 (got $rc)"
grep -q "unknown option '--max-batch'" "$TMP/usage.txt" \
  || fail "--max-batch message"

"$ORACLED" --socket "$SOCK" --jobs 1 > "$TMP/daemon.log" 2>&1 &
DPID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$DPID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon socket never appeared"

"$CTL" --socket "$SOCK" ping | grep -q 'service=oracled' || fail "ping"

# Upload once, then drive everything by digest.
"$CLI" gen grid 6 6 > "$TMP/net.txt"
"$CTL" --socket "$SOCK" upload "$TMP/net.txt" > "$TMP/up.txt" || fail "upload"
D="$(sed -n 's/^digest=//p' "$TMP/up.txt")"
[ -n "$D" ] || fail "upload digest"
grep -q '^fresh=1$' "$TMP/up.txt" || fail "first upload not fresh"
"$CTL" --socket "$SOCK" upload "$TMP/net.txt" | grep -q '^fresh=0$' \
  || fail "re-upload should dedup"

"$CTL" --socket "$SOCK" advise wakeup --digest "$D" > "$TMP/adv.txt" \
  || fail "advise"
grep -q '^oracle_bits=' "$TMP/adv.txt" || fail "advise oracle_bits"

# Exit 0: a solved run. Repeat run must hit the warm advice cache.
"$CTL" --socket "$SOCK" run wakeup --digest "$D" > "$TMP/run1.txt" \
  || fail "run wakeup"
grep -q '^status=completed$' "$TMP/run1.txt" || fail "run status"
"$CTL" --socket "$SOCK" run wakeup --digest "$D" > "$TMP/run2.txt" \
  || fail "repeat run"
grep -q '^advice_cached=1$' "$TMP/run2.txt" || fail "repeat run not cached"

# Exit 1: a task failure is a reportable result, not an error.
set +e
"$CTL" --socket "$SOCK" run flooding --digest "$D" --fault-rate 1 \
  --fault-seed 7 > "$TMP/fd.txt" 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "full drop should exit 1 (got $rc)"
grep -q '^status=task_failed$' "$TMP/fd.txt" || fail "full drop status"

# Exit 2: infrastructure errors — unknown digest, unknown task.
set +e
"$CTL" --socket "$SOCK" run wakeup --digest 0000000000000000 \
  > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "unknown digest should exit 2 (got $rc)"
set +e
"$CTL" --socket "$SOCK" run teleportation --digest "$D" > /dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "unknown task should exit 2 (got $rc)"

# Malformed frames: a forged oversized length prefix and a truncated
# payload each draw one error frame and a hangup — and must not take the
# daemon down.
python3 - "$SOCK" <<'EOF' || fail "malformed frame handling"
import socket, struct, sys

path = sys.argv[1]

def recv_frame(s):
    header = s.recv(4)
    if len(header) < 4:
        return None
    (n,) = struct.unpack("<I", header)
    payload = b""
    while len(payload) < n:
        chunk = s.recv(n - len(payload))
        if not chunk:
            return None
        payload += chunk
    return payload

# Oversized length prefix (1 GiB >> the 16 MiB default cap).
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall(struct.pack("<I", 1 << 30))
reply = recv_frame(s)
assert reply is not None and reply[0] == 2, reply
assert b"oversized" in reply, reply
assert s.recv(1) == b"", "server should hang up after an oversized frame"
s.close()

# Truncated payload: promise 64 bytes, send 3, hang up.
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall(struct.pack("<I", 64) + b"abc")
s.shutdown(socket.SHUT_WR)
reply = recv_frame(s)
assert reply is not None and reply[0] == 2, reply
assert b"truncated" in reply, reply
s.close()
EOF
"$CTL" --socket "$SOCK" ping > /dev/null || fail "daemon died on bad frames"

# Prometheus scrape over the metrics socket: HTTP 200, and the repeat run
# above must show up as cache hits.
python3 - "$SOCK.metrics" <<'EOF' > "$TMP/metrics.txt" || fail "metrics scrape"
import socket, sys

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
doc = b""
while True:
    chunk = s.recv(4096)
    if not chunk:
        break
    doc += chunk
s.close()
text = doc.decode()
assert "200 OK" in text, text[:200]
sys.stdout.write(text.split("\r\n\r\n", 1)[1])
EOF
grep -q '^oracled_requests_total ' "$TMP/metrics.txt" || fail "metrics names"
hits="$(sed -n 's/^oracled_advice_cache_hits //p' "$TMP/metrics.txt")"
[ -n "$hits" ] && [ "$hits" -gt 0 ] || fail "cache hit counter (got '$hits')"
grep -q '^oracled_request_latency_ns_bucket{le="+Inf"}' "$TMP/metrics.txt" \
  || fail "latency histogram"

# Stats agrees with the scrape.
"$CTL" --socket "$SOCK" stats | grep -q '^cache_hits=' || fail "stats"

# Shutdown request: acknowledged, daemon drains and exits 0, socket gone.
"$CTL" --socket "$SOCK" shutdown | grep -q '^draining=1$' || fail "shutdown ack"
set +e
wait "$DPID"
rc=$?
set -e
DPID=""
[ "$rc" -eq 0 ] || fail "daemon should exit 0 after drain (got $rc)"
grep -q 'drained cleanly' "$TMP/daemon.log" || fail "drain banner"
[ ! -S "$SOCK" ] || fail "socket not unlinked on exit"

echo "service smoke: all checks passed"
