#!/bin/sh
# tier2-server round-trip smoke: start an ssmt_server daemon, submit
# the same 4-cell campaign from two concurrent thin clients, and
# require both streamed manifests byte-identical to an in-process
# runCampaign of the same spec; between the two clients, a hostile
# deeply nested request line and a line past the request-size limit
# must be rejected without taking the daemon down. Then re-submit
# (all cache hits must still reproduce the bytes) and run
# ssmt_verify_golden --server so a remote batch decodes to the same
# counters as local execution.
#
# Usage: tier2_server_smoke.sh <bindir>   (dir holding the ssmt_*
# binaries; runs in $PWD, which ctest sets to the build dir).
set -eu

BIN=${1:?usage: tier2_server_smoke.sh <bindir>}
WORK=$PWD/server-smoke
SOCK=$WORK/sock
rm -rf "$WORK"
mkdir -p "$WORK"

SPEC_ARGS="--workloads comp --modes baseline,microthread \
    --seeds 0,4 --sample-interval 2000"

echo "[smoke] in-process reference campaign"
# shellcheck disable=SC2086
"$BIN/ssmt_campaign" run --dir "$WORK/local" $SPEC_ARGS --quiet

echo "[smoke] starting ssmt_server"
"$BIN/ssmt_server" --socket "$SOCK" --root "$WORK/root" --jobs 4 \
    >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the socket (the daemon binds before accepting).
tries=0
while [ ! -S "$SOCK" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 50 ]; then
        echo "[smoke] FAIL: server socket never appeared" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.1
done

echo "[smoke] two concurrent clients, same spec"
# shellcheck disable=SC2086
"$BIN/ssmt_campaign" run --server "$SOCK" --dir "$WORK/client-a" \
    $SPEC_ARGS --quiet &
CLIENT_A=$!

# A hostile frame between the two clients: one ~200 KB line of '['
# must come back as an error event, not take the daemon down.
echo "[smoke] hostile frame: 200000 nested '['"
python3 - "$SOCK" >"$WORK/hostile.log" 2>&1 <<'PY' || true
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(b"[" * 200000 + b"\n")
print(s.makefile().readline().strip())
PY
if ! grep -q "nesting deeper than" "$WORK/hostile.log" ||
        ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "[smoke] FAIL: hostile frame was not rejected cleanly" >&2
    cat "$WORK/hostile.log" "$WORK/server.log" >&2
    exit 1
fi
echo "[smoke] hostile frame rejected, daemon still serving"

# An oversized frame: one 2 MiB line, past the server's 1 MiB request
# limit, must come back as an error event naming the limit (the server
# then closes that connection) and leave the daemon serving.
echo "[smoke] oversized frame: 2 MiB line"
python3 - "$SOCK" >"$WORK/oversize.log" 2>&1 <<'PY' || true
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
try:
    s.sendall(b"x" * (2 << 20) + b"\n")
except OSError:
    pass  # the server stops reading at its limit and closes
print(s.makefile().readline().strip())
PY
if ! grep -q '"error".*exceeds 1048576 bytes' "$WORK/oversize.log" ||
        ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "[smoke] FAIL: oversized frame was not refused cleanly" >&2
    cat "$WORK/oversize.log" "$WORK/server.log" >&2
    exit 1
fi
echo "[smoke] oversized frame refused, daemon still serving"

# shellcheck disable=SC2086
"$BIN/ssmt_campaign" run --server "$SOCK" --dir "$WORK/client-b" \
    $SPEC_ARGS --quiet &
CLIENT_B=$!
wait "$CLIENT_A"
wait "$CLIENT_B"

for side in client-a client-b; do
    if ! cmp -s "$WORK/local/manifest.json" \
            "$WORK/$side/manifest.json"; then
        echo "[smoke] FAIL: $side manifest differs from in-process" \
            >&2
        exit 1
    fi
done
echo "[smoke] concurrent manifests byte-identical"

echo "[smoke] cache-hit replay"
# shellcheck disable=SC2086
"$BIN/ssmt_campaign" run --server "$SOCK" --dir "$WORK/client-c" \
    $SPEC_ARGS 2>"$WORK/replay.log"
if ! cmp -s "$WORK/local/manifest.json" \
        "$WORK/client-c/manifest.json"; then
    echo "[smoke] FAIL: cached replay manifest differs" >&2
    exit 1
fi
if ! grep -q "4 cached, 0 executed" "$WORK/replay.log"; then
    echo "[smoke] FAIL: replay was not served from the store" >&2
    cat "$WORK/replay.log" >&2
    exit 1
fi
echo "[smoke] replay served entirely from the store"

echo "[smoke] remote verify-golden batch"
"$BIN/ssmt_verify_golden" --server "$SOCK" --workloads comp,mcf_2k \
    --golden-dir "${SSMT_GOLDEN_DIR:?set by ctest}" --differential

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
echo "[smoke] OK"
