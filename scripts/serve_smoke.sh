#!/usr/bin/env bash
# End-to-end serving smoke (CI job serve-smoke; also runnable locally):
# train a bundle, boot mpiguardd, hit it with concurrent clients,
# malformed frames and an old-version HELLO, and prove the daemon answers everything,
# survives the damage, and drains cleanly on SHUTDOWN. Then run the
# throughput bench in --quick mode and schema-check both its artifact
# and the committed BENCH_serve.json record.
#
# usage: serve_smoke.sh BUILDDIR
set -euo pipefail

BUILD=$(cd "${1:?usage: serve_smoke.sh BUILDDIR}" && pwd)
SCRIPTS=$(cd "$(dirname "$0")" && pwd)
WORK=$(mktemp -d /tmp/mpiguard_serve_smoke.XXXXXX)
SOCK="$WORK/d.sock"
DAEMON_PID=""

cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== train a bundle to serve"
"$BUILD/mpiguard" train --detector ir2vec --dataset mbi:0.05@7 \
  --out "$WORK/gate.mpib" --cache-dir "$WORK/cache"

echo "== boot mpiguardd"
"$BUILD/mpiguardd" --model "$WORK/gate.mpib" --socket "$SOCK" \
  --queue 16 --batch 4 --cache-dir "$WORK/cache" \
  >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$DAEMON_PID" || { cat "$WORK/daemon.log"; exit 1; }
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon never listened"; cat "$WORK/daemon.log"; exit 1; }

echo "== concurrent client burst (BUSY retries allowed, all must be served)"
pids=()
for c in 1 2 3; do
  "$BUILD/mpiguard-client" --socket "$SOCK" --dataset mbi:0.05@7 \
    --count 6 --retry-busy --quiet >"$WORK/client$c.out" 2>&1 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
for c in 1 2 3; do
  served=$(grep -c ' -> ' "$WORK/client$c.out")
  [ "$served" -eq 6 ] || { echo "client $c served $served/6"; cat "$WORK/client$c.out"; exit 1; }
done

echo "== alternating corpora (two concurrent clients, one corpus each)"
pids=()
for spec in mbi:0.05@7 corr:0.1@7; do
  "$BUILD/mpiguard-client" --socket "$SOCK" --dataset "$spec" \
    --count 6 --retry-busy --quiet >"$WORK/alt-${spec%%:*}.out" 2>&1 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
for suite in mbi corr; do
  served=$(grep -c ' -> ' "$WORK/alt-$suite.out")
  [ "$served" -eq 6 ] || { echo "$suite client served $served/6"; cat "$WORK/alt-$suite.out"; exit 1; }
done
"$BUILD/mpiguard-client" --socket "$SOCK" --stats | tee "$WORK/stats-alt.out"
grep -q "^datasets 2," "$WORK/stats-alt.out"

echo "== malformed frame injection (daemon must answer ERROR and survive)"
python3 - "$SOCK" <<'EOF'
import socket, struct, sys

s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(struct.pack("<I", 16) + b"this is not MGWP")
reply = s.recv(65536)
assert reply, "daemon closed without an ERROR frame"
s.close()

# An implausible length prefix must also get an ERROR, not an allocation.
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(struct.pack("<I", 0xFFFFFFFF))
reply = s.recv(65536)
assert reply, "daemon closed without an ERROR frame"
s.close()

# A well-formed HELLO from a version-1 client gets one ERROR frame at
# the daemon's own version (serve::kWireVersion), then EOF.
WIRE_VERSION = 3
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
hello = b"MGWP" + struct.pack("<IBQ", 1, 1, 0)  # version 1, HELLO, str ""
s.sendall(struct.pack("<I", len(hello)) + hello)
reply = b""
while chunk := s.recv(65536):
    reply += chunk
s.close()
(length,) = struct.unpack_from("<I", reply)
assert len(reply) == 4 + length, "expected exactly one frame, then EOF"
assert reply[4:13] == b"MGWP" + struct.pack("<IB", WIRE_VERSION, 6), reply
print("malformed frames and an old-version HELLO rejected with ERROR frames")
EOF

echo "== daemon is still serving after the damage"
"$BUILD/mpiguard-client" --socket "$SOCK" --dataset mbi:0.05@7 \
  --index 0 --quiet
"$BUILD/mpiguard-client" --socket "$SOCK" --stats | tee "$WORK/stats.out"
grep -q "protocol errors 3" "$WORK/stats.out"

echo "== graceful drain via wire SHUTDOWN"
"$BUILD/mpiguard-client" --socket "$SOCK" --shutdown --quiet
wait "$DAEMON_PID"
DAEMON_PID=""
grep -q "mpiguardd: stopped" "$WORK/daemon.log"
grep -q "0 request error(s)" "$WORK/daemon.log"

echo "== throughput bench (--quick) writes a well-formed record"
"$BUILD/serve_throughput" --quick --out="$WORK/BENCH_serve_quick.json"
python3 "$SCRIPTS/check_bench_json.py" "$WORK/BENCH_serve_quick.json"

echo "== committed BENCH_serve.json record shows the batched win"
python3 "$SCRIPTS/check_bench_json.py" --require-win \
  "$SCRIPTS/../BENCH_serve.json"

echo "serve_smoke: all checks passed"
