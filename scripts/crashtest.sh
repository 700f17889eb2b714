#!/usr/bin/env bash
# crashtest.sh — SIGKILL a loaded teleios-server mid-write and assert
# clean recovery.
#
# The script starts the server with a durable data dir and -wal-sync
# always, drives a stream of INSERT DATA updates through the endpoint,
# SIGKILLs the process while the stream is running, restarts it on the
# same data dir, and asserts that
#
#   1. the server recovers without error,
#   2. every acknowledged update survived (fsync-before-ack), and
#   3. the recovered store answers queries.
#
# Phase 2 repeats the exercise against the group-commit pipeline: four
# CONCURRENT writer streams (so kills land mid-group-commit, with a
# multi-record batch in flight), SIGKILL, restart, and a per-writer
# assertion that every acknowledged update survived.
#
# Usage: scripts/crashtest.sh [port]   (default 18321)
set -u

PORT="${1:-18321}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
DATA="$WORK/data"
ACKED_FILE="$WORK/acked"
GROUP_WRITERS=4
SERVER_PID=""
WRITER_PID=""
WRITER_PIDS=""

cleanup() {
    [ -n "$WRITER_PID" ] && kill "$WRITER_PID" 2>/dev/null
    for p in $WRITER_PIDS; do kill "$p" 2>/dev/null; done
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "crashtest: FAIL: $*" >&2
    for log in "$WORK"/server*.log; do
        echo "--- $(basename "$log") ---" >&2; cat "$log" >&2 || true
    done
    exit 1
}

wait_healthy() {
    local log="$1"
    for _ in $(seq 1 100); do
        if curl -fsS "$BASE/health" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "server never became healthy (log: $log)"
}

echo "crashtest: building teleios-server"
go build -o "$WORK/teleios-server" ./cmd/teleios-server || fail "build"

echo "crashtest: starting server with -data-dir $DATA"
"$WORK/teleios-server" -addr "127.0.0.1:${PORT}" -data-dir "$DATA" \
    -wal-sync always -linked >"$WORK/server1.log" 2>&1 &
SERVER_PID=$!
wait_healthy server1.log

BASELINE=$(curl -fsS "$BASE/health" | jq .triples)
echo "crashtest: serving $BASELINE triples; starting update stream"

# Writer: sequential INSERT DATA updates, recording the highest
# acknowledged index. Each update is fsynced before the 200 comes back.
(
    i=0
    while :; do
        i=$((i + 1))
        code=$(curl -s -o /dev/null -w '%{http_code}' \
            --data-urlencode "update=INSERT DATA { <http://crash.test/s${i}> <http://crash.test/p> \"v${i}\" }" \
            "$BASE/sparql")
        if [ "$code" = "200" ]; then
            # Rename, so the checks below never read the file mid-truncate.
            echo "$i" >"$ACKED_FILE.tmp" && mv "$ACKED_FILE.tmp" "$ACKED_FILE"
        fi
    done
) &
WRITER_PID=$!

# Let the stream run, then kill the server dead mid-write.
sleep 3
[ -s "$ACKED_FILE" ] || fail "no update was acknowledged before the kill"
echo "crashtest: SIGKILL server (pid $SERVER_PID) mid-stream"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""
kill "$WRITER_PID" 2>/dev/null
wait "$WRITER_PID" 2>/dev/null
WRITER_PID=""
ACKED=$(cat "$ACKED_FILE")
echo "crashtest: $ACKED updates acknowledged before the kill"

echo "crashtest: restarting on the same data dir"
"$WORK/teleios-server" -addr "127.0.0.1:${PORT}" -data-dir "$DATA" \
    -wal-sync always >"$WORK/server2.log" 2>&1 &
SERVER_PID=$!
wait_healthy server2.log
grep -q "recovered" "$WORK/server2.log" || fail "no recovery line in restart log"

# Every acknowledged insert must be answerable.
RECOVERED=$(curl -fsS --data-urlencode \
    'query=SELECT ?s WHERE { ?s <http://crash.test/p> ?o }' \
    "$BASE/sparql?format=csv" | tail -n +2 | grep -c .)
echo "crashtest: recovered $RECOVERED crash-test triples (>= $ACKED acknowledged)"
[ "$RECOVERED" -ge "$ACKED" ] || fail "lost acknowledged updates: recovered $RECOVERED < acked $ACKED"

# At most the one in-flight (unacknowledged) update may appear on top.
[ "$RECOVERED" -le $((ACKED + 1)) ] || fail "recovered more rows than were ever sent: $RECOVERED > $ACKED+1"

# The rest of the dataset survived too, and the endpoint still works.
TOTAL=$(curl -fsS "$BASE/health" | jq .triples)
[ "$TOTAL" -ge $((BASELINE + ACKED)) ] || fail "dataset shrank: $TOTAL < $BASELINE + $ACKED"
curl -fsS "$BASE/stats" | jq -e '.persistence.enabled and .persistence.replayed_records >= 0' >/dev/null \
    || fail "stats missing persistence block"

# Graceful shutdown of the recovered server must checkpoint cleanly.
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""
grep -q "checkpointed" "$WORK/server2.log" || fail "no final checkpoint on shutdown"

echo "crashtest: phase 1 OK (acked=$ACKED recovered=$RECOVERED total=$TOTAL)"

# ---------------------------------------------------------------------
# Phase 2: SIGKILL mid-GROUP-commit. Concurrent writer streams keep a
# multi-record batch in flight at all times, so the kill lands while the
# committer has coalesced several acknowledged-pending updates into one
# buffered write — exactly the window where a group-commit bug would
# lose acked writes or resurrect unacked ones.
# ---------------------------------------------------------------------

echo "crashtest: phase 2: restart for the concurrent-writer group-commit crash"
"$WORK/teleios-server" -addr "127.0.0.1:${PORT}" -data-dir "$DATA" \
    -wal-sync always >"$WORK/server3.log" 2>&1 &
SERVER_PID=$!
wait_healthy server3.log
PHASE2_BASE=$(curl -fsS "$BASE/health" | jq .triples)

# Each writer stream uses its own predicate so recovery can be asserted
# per writer: recovered_w >= acked_w, and at most one in-flight update
# per writer on top.
for w in $(seq 1 "$GROUP_WRITERS"); do
    (
        i=0
        while :; do
            i=$((i + 1))
            code=$(curl -s -o /dev/null -w '%{http_code}' \
                --data-urlencode "update=INSERT DATA { <http://crash.test/g/w${w}/s${i}> <http://crash.test/gp${w}> \"v${i}\" }" \
                "$BASE/sparql")
            echo "$i $code" >>"$WORK/codes-w${w}"
            if [ "$code" = "200" ]; then
                echo "$i" >"$WORK/acked-w${w}.tmp" && mv "$WORK/acked-w${w}.tmp" "$WORK/acked-w${w}"
            fi
        done
    ) &
    WRITER_PIDS="$WRITER_PIDS $!"
done

sleep 3
for w in $(seq 1 "$GROUP_WRITERS"); do
    if [ ! -s "$WORK/acked-w${w}" ]; then
        echo "crashtest: writer $w status codes:" >&2; tail -5 "$WORK/codes-w${w}" >&2 || true
        fail "phase 2 writer $w never got an ack before the kill"
    fi
done
echo "crashtest: phase 2: SIGKILL server (pid $SERVER_PID) with $GROUP_WRITERS writers in flight"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""
for p in $WRITER_PIDS; do kill "$p" 2>/dev/null; wait "$p" 2>/dev/null; done
WRITER_PIDS=""

echo "crashtest: phase 2: restarting on the same data dir"
"$WORK/teleios-server" -addr "127.0.0.1:${PORT}" -data-dir "$DATA" \
    -wal-sync always >"$WORK/server4.log" 2>&1 &
SERVER_PID=$!
wait_healthy server4.log
grep -q "recovered" "$WORK/server4.log" || fail "no recovery line in phase 2 restart log"

ACKED2_TOTAL=0
RECOVERED2_TOTAL=0
for w in $(seq 1 "$GROUP_WRITERS"); do
    ACKED_W=$(cat "$WORK/acked-w${w}")
    RECOVERED_W=$(curl -fsS --data-urlencode \
        "query=SELECT ?s WHERE { ?s <http://crash.test/gp${w}> ?o }" \
        "$BASE/sparql?format=csv" | tail -n +2 | grep -c .)
    echo "crashtest: phase 2 writer $w: acked=$ACKED_W recovered=$RECOVERED_W"
    [ "$RECOVERED_W" -ge "$ACKED_W" ] || fail "writer $w lost acked updates: recovered $RECOVERED_W < acked $ACKED_W"
    [ "$RECOVERED_W" -le $((ACKED_W + 1)) ] || fail "writer $w: recovered more rows than were ever sent: $RECOVERED_W > $ACKED_W+1"
    ACKED2_TOTAL=$((ACKED2_TOTAL + ACKED_W))
    RECOVERED2_TOTAL=$((RECOVERED2_TOTAL + RECOVERED_W))
done

TOTAL2=$(curl -fsS "$BASE/health" | jq .triples)
[ "$TOTAL2" -ge $((PHASE2_BASE + ACKED2_TOTAL)) ] || fail "phase 2 dataset shrank: $TOTAL2 < $PHASE2_BASE + $ACKED2_TOTAL"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""
grep -q "checkpointed" "$WORK/server4.log" || fail "no final checkpoint after phase 2"

echo "crashtest: PASS (phase1 acked=$ACKED recovered=$RECOVERED; phase2 acked=$ACKED2_TOTAL recovered=$RECOVERED2_TOTAL total=$TOTAL2)"
