#!/usr/bin/env bash
# replicatest.sh — stand up a live replication topology (1 primary,
# 2 replicas, 1 router) and prove the PR-6 acceptance properties on
# real processes:
#
#   1. writes through the router land on the primary and every replica
#      converges: router /stats lag reaches 0 after writes stop;
#   2. a sample query set answers BIT-IDENTICALLY on the primary, both
#      replicas and through the router;
#   3. read-your-writes: an update's Teleios-Applied-Seq watermark,
#      handed back as Teleios-Min-Version, never reads stale through
#      the router;
#   4. chaos: a replica SIGKILLed mid-stream is ejected, restarts from
#      its own durable dir (no re-bootstrap), catches up, and is
#      readmitted — with zero acknowledged-write loss;
#   5. replicas refuse updates with 403.
#
# Usage: scripts/replicatest.sh [baseport]   (default 18410; uses 4 ports)
# (Replicas bootstrap by mapping the primary's packed snapshot in place.)
set -u

BASE_PORT="${1:-18410}"
P_PORT=$BASE_PORT
R1_PORT=$((BASE_PORT + 1))
R2_PORT=$((BASE_PORT + 2))
RT_PORT=$((BASE_PORT + 3))
PRI="http://127.0.0.1:${P_PORT}"
REP1="http://127.0.0.1:${R1_PORT}"
REP2="http://127.0.0.1:${R2_PORT}"
RTR="http://127.0.0.1:${RT_PORT}"
WORK="$(mktemp -d)"
PIDS=()

cleanup() {
    for pid in "${PIDS[@]:-}"; do
        [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "replicatest: FAIL: $*" >&2
    for log in "$WORK"/*.log; do
        echo "--- $log ---" >&2
        tail -40 "$log" >&2 || true
    done
    exit 1
}

wait_healthy() {
    local url="$1" what="$2"
    for _ in $(seq 1 150); do
        if curl -fsS "$url/health" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "$what never became healthy"
}

# applied_seq <base-url> — a node's applied watermark from /stats.
applied_seq() {
    curl -fsS "$1/stats" | jq -r '.store.applied_seq'
}

# wait_converged — poll the router's stats until every healthy backend
# reports lag 0.
wait_converged() {
    for _ in $(seq 1 200); do
        if curl -fsS "$RTR/stats" | jq -e '[.backends[] | select(.healthy)] | all(.lag == 0)' >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    fail "router lag never reached 0: $(curl -fsS "$RTR/stats" | jq -c '.backends')"
}

echo "replicatest: building teleios-server"
go build -o "$WORK/teleios-server" ./cmd/teleios-server || fail "build"

echo "replicatest: starting primary on :$P_PORT"
"$WORK/teleios-server" -addr "127.0.0.1:${P_PORT}" -data-dir "$WORK/primary" \
    -wal-sync always -linked >"$WORK/primary.log" 2>&1 &
PIDS+=($!)
wait_healthy "$PRI" primary

start_replica() {
    local port="$1" dir="$2" log="$3"
    "$WORK/teleios-server" -addr "127.0.0.1:${port}" -data-dir "$dir" \
        -replicate-from "$PRI" >"$log" 2>&1 &
    echo $!
}

echo "replicatest: starting replicas on :$R1_PORT :$R2_PORT"
R1_PID=$(start_replica "$R1_PORT" "$WORK/replica1" "$WORK/replica1.log")
PIDS+=("$R1_PID")
R2_PID=$(start_replica "$R2_PORT" "$WORK/replica2" "$WORK/replica2.log")
PIDS+=("$R2_PID")
wait_healthy "$REP1" replica1
wait_healthy "$REP2" replica2

echo "replicatest: starting router on :$RT_PORT"
"$WORK/teleios-server" -addr "127.0.0.1:${RT_PORT}" \
    -route-to "$PRI,$REP1,$REP2" >"$WORK/router.log" 2>&1 &
PIDS+=($!)
wait_healthy "$RTR" router

# --- 1. writes through the router; lag converges to 0 ----------------
echo "replicatest: writing 50 updates through the router"
LAST_SEQ=""
for i in $(seq 1 50); do
    hdrs=$(curl -fsS -D - -o /dev/null \
        --data-urlencode "update=INSERT DATA { <http://repl.test/s${i}> <http://repl.test/p> \"v${i}\" }" \
        "$RTR/sparql") || fail "update $i through router"
    LAST_SEQ=$(printf '%s' "$hdrs" | tr -d '\r' | awk -F': ' 'tolower($1)=="teleios-applied-seq"{print $2}')
done
[ -n "$LAST_SEQ" ] || fail "update responses carried no Teleios-Applied-Seq header"
echo "replicatest: last acked watermark $LAST_SEQ"
wait_converged
for node in "$REP1" "$REP2"; do
    seq=$(applied_seq "$node")
    [ "$seq" -ge "$LAST_SEQ" ] || fail "$node watermark $seq below acked $LAST_SEQ after convergence"
done
echo "replicatest: both replicas at or past watermark $LAST_SEQ, router lag 0"

# --- 2. bit-identical sample queries across the whole topology -------
QUERIES=(
    'SELECT ?s ?o WHERE { ?s <http://repl.test/p> ?o } ORDER BY ?s'
    'SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }'
    'SELECT ?s ?n WHERE { ?s a <http://sws.geonames.org/teleios/PopulatedPlace> . ?s rdfs:label ?n } ORDER BY ?n'
)
echo "replicatest: comparing ${#QUERIES[@]} sample queries across primary/replicas/router"
qi=0
for q in "${QUERIES[@]}"; do
    qi=$((qi + 1))
    ref=""
    for node in "$PRI" "$REP1" "$REP2" "$RTR"; do
        out=$(curl -fsS --data-urlencode "query=$q" "$node/sparql?format=csv") \
            || fail "query $qi on $node"
        if [ -z "$ref" ]; then
            ref="$out"
        elif [ "$out" != "$ref" ]; then
            fail "query $qi differs between $PRI and $node"
        fi
    done
done
echo "replicatest: sample queries bit-identical on all nodes"

# --- 3. read-your-writes through the router ---------------------------
echo "replicatest: read-your-writes via Teleios-Min-Version"
hdrs=$(curl -fsS -D - -o /dev/null \
    --data-urlencode 'update=INSERT DATA { <http://repl.test/ryw> <http://repl.test/p> "mine" }' \
    "$RTR/sparql") || fail "ryw update"
W=$(printf '%s' "$hdrs" | tr -d '\r' | awk -F': ' 'tolower($1)=="teleios-applied-seq"{print $2}')
[ -n "$W" ] || fail "ryw update carried no watermark"
ROWS=$(curl -fsS -H "Teleios-Min-Version: $W" \
    --data-urlencode 'query=SELECT ?o WHERE { <http://repl.test/ryw> <http://repl.test/p> ?o }' \
    "$RTR/sparql?format=csv" | tail -n +2 | grep -c .)
[ "$ROWS" -eq 1 ] || fail "watermarked read missed the acked write (rows=$ROWS)"
echo "replicatest: watermarked read saw its own write immediately"

# --- 4. chaos: SIGKILL replica1 mid-stream, restart, reconverge -------
echo "replicatest: SIGKILL replica1 (pid $R1_PID) and keep writing"
kill -9 "$R1_PID"
for i in $(seq 51 80); do
    curl -fsS -o /dev/null \
        --data-urlencode "update=INSERT DATA { <http://repl.test/s${i}> <http://repl.test/p> \"v${i}\" }" \
        "$RTR/sparql" || fail "update $i with replica1 down"
done
# The router must eject the dead replica...
for _ in $(seq 1 100); do
    if curl -fsS "$RTR/stats" | jq -e --arg u "$REP1" \
        '.backends[] | select(.url == $u) | .healthy | not' >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fsS "$RTR/stats" | jq -e --arg u "$REP1" \
    '.backends[] | select(.url == $u) | .healthy | not' >/dev/null \
    || fail "router never ejected the killed replica"
# The ejection is the circuit breaker tripping: the backend's breaker
# must have left the closed state and recorded at least one trip. (With
# no hold-out configured the state oscillates open/half-open as each
# probe fails, so assert on "not closed" + the trip counter, not on a
# single state value.)
curl -fsS "$RTR/stats" | jq -e --arg u "$REP1" \
    '.backends[] | select(.url == $u) | (.breaker != "closed") and (.breaker_trips >= 1)' \
    | grep -q true || fail "killed replica's breaker never tripped: $(curl -fsS "$RTR/stats" | jq -c '.backends')"
# ...while reads keep working.
curl -fsS --data-urlencode 'query=SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }' \
    "$RTR/sparql?format=csv" >/dev/null || fail "reads failed during ejection"
echo "replicatest: replica1 ejected, reads kept flowing"

echo "replicatest: restarting replica1 on its own data dir"
R1_PID=$(start_replica "$R1_PORT" "$WORK/replica1" "$WORK/replica1b.log")
PIDS+=("$R1_PID")
wait_healthy "$REP1" replica1-restarted
grep -q "bootstrapped from snapshot" "$WORK/replica1b.log" \
    && fail "restarted replica re-bootstrapped instead of resuming from local state"
wait_converged
FINAL=$(applied_seq "$PRI")
R1SEQ=$(applied_seq "$REP1")
[ "$R1SEQ" -ge "$FINAL" ] || fail "restarted replica stuck at $R1SEQ, primary at $FINAL"
for _ in $(seq 1 100); do
    if curl -fsS "$RTR/stats" | jq -e --arg u "$REP1" \
        '.backends[] | select(.url == $u) | .healthy' >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -fsS "$RTR/stats" | jq -e --arg u "$REP1" \
    '.backends[] | select(.url == $u) | .healthy' >/dev/null \
    || fail "router never readmitted the restarted replica"
# Readmission closes the breaker again; the trip count keeps its history.
curl -fsS "$RTR/stats" | jq -e --arg u "$REP1" \
    '.backends[] | select(.url == $u) | (.breaker == "closed") and (.breaker_trips >= 1)' \
    | grep -q true || fail "readmitted replica's breaker not closed: $(curl -fsS "$RTR/stats" | jq -c '.backends')"
# Zero acked-write loss: every insert must be on the restarted replica.
ROWS=$(curl -fsS --data-urlencode \
    'query=SELECT ?s WHERE { ?s <http://repl.test/p> ?o }' \
    "$REP1/sparql?format=csv" | tail -n +2 | grep -c .)
[ "$ROWS" -ge 81 ] || fail "restarted replica lost acked writes: $ROWS rows, want >= 81"
echo "replicatest: replica1 resumed locally, caught up to $R1SEQ, readmitted"

# --- 5. replicas are read-only ----------------------------------------
CODE=$(curl -s -o /dev/null -w '%{http_code}' \
    --data-urlencode 'update=INSERT DATA { <http://repl.test/x> <http://repl.test/p> "no" }' \
    "$REP2/sparql")
[ "$CODE" = "403" ] || fail "replica accepted an update (status $CODE)"
echo "replicatest: replica refuses updates with 403"

echo "replicatest: PASS (watermark=$FINAL, replicas converged, zero acked-write loss)"
