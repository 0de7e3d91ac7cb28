#!/bin/sh
# tier2-server round-trip smoke: start an ssmt_server daemon, submit
# the same 4-cell campaign from two concurrent thin clients, and
# require both streamed manifests byte-identical to an in-process
# runCampaign of the same spec; between the two clients, a hostile
# deeply nested request line and a line past the request-size limit
# must be rejected without taking the daemon down. Then re-submit
# (all cache hits must still reproduce the bytes) and run
# ssmt_verify_golden --server so a remote batch decodes to the same
# counters as local execution; "golden", "default" and no batch
# config name must run the same machine. Last, a shutdown request
# must stop the daemon within 5 s while an idle client stays
# connected.
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

# A batch cell's optional config name: "golden", "default" and an
# absent field run the same machine, and an unknown name is refused.
echo "[smoke] batch config names"
python3 - "$SOCK" >"$WORK/config-names.log" 2>&1 <<'PY'
import json, socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
f = s.makefile()
def batch(config):
    cell = {"workload": "comp", "mode": "microthread", "maxInsts": 20000}
    if config is not None:
        cell["config"] = config
    s.sendall((json.dumps({"schema": "ssmt-server-v1", "cmd": "batch",
                           "cells": [cell]}) + "\n").encode())
    docs = []
    while True:
        event = json.loads(f.readline())
        if event["event"] == "job":
            docs.append(event["doc"])
        elif event["event"] in ("done", "error"):
            return docs, event
docs = [batch(name)[0] for name in ("golden", "default", None)]
assert docs[0] and docs[0] == docs[1] == docs[2], "config names differ"
_, event = batch("bogus")
assert event["event"] == "error" and "unknown config" in event["message"]
print("config names ok")
PY
if ! grep -q "config names ok" "$WORK/config-names.log"; then
    echo "[smoke] FAIL: batch config names" >&2
    cat "$WORK/config-names.log" >&2
    exit 1
fi

# An idle client must not keep a stopping daemon alive: hold one
# connection open (after a ping, so its handler is live) across a
# shutdown request and require the daemon to exit within 5 s.
echo "[smoke] shutdown with an idle client connected"
python3 - "$SOCK" >"$WORK/idle.log" 2>&1 <<'PY' &
import socket, sys, time
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(b'{"schema":"ssmt-server-v1","cmd":"ping"}\n')
print(s.makefile().readline().strip(), flush=True)
time.sleep(60)
PY
IDLE_PID=$!
trap 'kill "$SERVER_PID" "$IDLE_PID" 2>/dev/null || true' EXIT
tries=0
until grep -q pong "$WORK/idle.log"; do
    tries=$((tries + 1))
    if [ "$tries" -gt 50 ]; then
        echo "[smoke] FAIL: idle client never got its pong" >&2
        cat "$WORK/idle.log" >&2
        exit 1
    fi
    sleep 0.1
done
python3 - "$SOCK" >"$WORK/shutdown.log" 2>&1 <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(b'{"schema":"ssmt-server-v1","cmd":"shutdown"}\n')
print(s.makefile().readline().strip())
PY
# A daemon still running after 5 s is SIGKILLed, which shows as a
# nonzero exit status; a clean shutdown exits 0.
(sleep 5; kill -KILL "$SERVER_PID" 2>/dev/null) >/dev/null 2>&1 &
WATCHDOG_PID=$!
status=0
wait "$SERVER_PID" || status=$?
kill "$WATCHDOG_PID" 2>/dev/null || true
if [ "$status" -ne 0 ]; then
    echo "[smoke] FAIL: daemon did not exit within 5 s of shutdown" \
        "with an idle client connected (status $status)" >&2
    cat "$WORK/shutdown.log" "$WORK/server.log" >&2
    exit 1
fi
kill "$IDLE_PID" 2>/dev/null || true
wait "$IDLE_PID" 2>/dev/null || true
trap - EXIT
echo "[smoke] daemon exited with an idle client connected"
echo "[smoke] OK"
