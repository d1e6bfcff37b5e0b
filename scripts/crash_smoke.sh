#!/usr/bin/env bash
# crash_smoke.sh — end-to-end crash-recovery drill of the durable serving
# mode: boot tracond with a WAL under -fsync always, fire a mixed burst
# (singleton + batched submissions) through traconload -reconnect, kill the
# daemon with SIGKILL mid-burst, restart it on the same address and data
# directory, and assert that every admitted task reached a terminal state
# exactly once — zero failures and zero duplicate placement IDs across the
# restart — then verify the journal and drain cleanly on SIGTERM.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
daemon_pid=""

cleanup() {
    if [[ -n "$daemon_pid" ]] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -KILL "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/tracond" ./cmd/tracond
go build -o "$workdir/traconload" ./cmd/traconload
go build -o "$workdir/tracontrace" ./cmd/tracontrace

boot() {
    # boot <portfile> <logfile>: start tracond against the shared data dir
    # and wait for it to serve. Retried binds ride out a lingering socket
    # from the SIGKILLed predecessor.
    local portfile="$1" logfile="$2" bind="${3:-127.0.0.1:0}"
    for attempt in $(seq 20); do
        : >"$portfile"
        "$workdir/tracond" \
            -addr "$bind" \
            -portfile "$portfile" \
            -machines 4 \
            -model NLM \
            -policy mios \
            -seed 1 \
            -data-dir "$workdir/data" \
            -fsync always \
            -snapshot-interval 2s \
            >>"$logfile" 2>&1 &
        daemon_pid=$!
        for _ in $(seq 300); do
            [[ -s "$portfile" ]] && return 0
            kill -0 "$daemon_pid" 2>/dev/null || break
            sleep 0.1
        done
        if [[ -s "$portfile" ]]; then
            return 0
        fi
        if kill -0 "$daemon_pid" 2>/dev/null; then
            echo "crash-smoke: tracond alive but no port file after 30s" >&2
            cat "$logfile" >&2
            exit 1
        fi
        daemon_pid=""
        if grep -q 'address already in use' "$logfile"; then
            sleep 0.2
            continue
        fi
        echo "crash-smoke: tracond died during startup" >&2
        cat "$logfile" >&2
        exit 1
    done
    echo "crash-smoke: could not rebind $bind after 20 attempts" >&2
    cat "$logfile" >&2
    exit 1
}

boot "$workdir/port" "$workdir/tracond.log"
addr="$(tr -d '\n' <"$workdir/port")"

# Mixed 200-task burst: 120 singleton submissions and 80 batched ones, both
# riding -reconnect so they retry through the restart window under stable
# idempotency keys instead of failing or double-submitting.
"$workdir/traconload" \
    -addr "$addr" -tasks 120 -concurrency 8 -seed 1 \
    -reconnect -reconnect-window 30s \
    -json >"$workdir/load_singleton.json" &
single_pid=$!
"$workdir/traconload" \
    -addr "$addr" -tasks 80 -concurrency 2 -batch 8 -seed 2 \
    -reconnect -reconnect-window 30s \
    -json >"$workdir/load_batched.json" &
batch_pid=$!

# Kill the daemon the moment the journal shows admitted work, so the crash
# lands mid-burst with tasks in flight (queued and placed, not yet done).
wal_bytes() {
    local total=0 f
    for f in "$workdir"/data/wal-*.wal; do
        [[ -e "$f" ]] || continue
        total=$((total + $(wc -c <"$f")))
    done
    echo "$total"
}
for _ in $(seq 200); do
    if [[ "$(wal_bytes)" -gt 4096 ]]; then
        break
    fi
    kill -0 "$single_pid" 2>/dev/null || break
    sleep 0.02
done

kill -KILL "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

# Restart on the same address against the same data dir; recovery must
# replay the journal before the loaders' retries land.
boot "$workdir/port2" "$workdir/tracond2.log" "$addr"
if ! grep -q 'recovered journal' "$workdir/tracond2.log"; then
    echo "crash-smoke: restarted tracond did not report journal recovery" >&2
    cat "$workdir/tracond2.log" >&2
    exit 1
fi

if ! wait "$single_pid"; then
    echo "crash-smoke: singleton loader failed" >&2
    cat "$workdir/load_singleton.json" >&2
    exit 1
fi
if ! wait "$batch_pid"; then
    echo "crash-smoke: batched loader failed" >&2
    cat "$workdir/load_batched.json" >&2
    exit 1
fi

field() {
    sed -n "s/^ *\"$2\": \([0-9]*\),*/\1/p" "$workdir/$1"
}
check_loader() {
    local file="$1" want="$2" completed failed dups
    completed="$(field "$file" completed)"
    failed="$(field "$file" failed)"
    dups="$(field "$file" duplicate_ids)"
    if [[ -z "$completed" || "$completed" -ne "$want" ]]; then
        echo "crash-smoke: $file completed ${completed:-0}/$want tasks" >&2
        cat "$workdir/$file" >&2
        exit 1
    fi
    if [[ -n "$failed" && "$failed" -ne 0 ]]; then
        echo "crash-smoke: $file reported $failed failed tasks across the crash" >&2
        cat "$workdir/$file" >&2
        exit 1
    fi
    if [[ -z "$dups" || "$dups" -ne 0 ]]; then
        echo "crash-smoke: $file reported ${dups:-missing} duplicate placement ids" >&2
        cat "$workdir/$file" >&2
        exit 1
    fi
}
check_loader load_singleton.json 120
check_loader load_batched.json 80

# Graceful drain: SIGTERM must produce exit code 0 and a final snapshot.
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "crash-smoke: tracond did not drain cleanly after recovery" >&2
    cat "$workdir/tracond2.log" >&2
    exit 1
fi
daemon_pid=""

# The journal left behind must verify end to end through recovery's own
# scan: a dir that passes boots, and every retained snapshot and segment
# reads clean (CRCs, names, a contiguous sequence chain).
if ! "$workdir/tracontrace" -wal-verify "$workdir/data" >"$workdir/verify.out"; then
    echo "crash-smoke: journal failed verification after the drill" >&2
    cat "$workdir/verify.out" >&2
    exit 1
fi

r1="$(field load_singleton.json reconnects)"
r2="$(field load_batched.json reconnects)"
reconnects=$(( ${r1:-0} + ${r2:-0} ))
echo "crash-smoke: OK (200 tasks exactly-once across a SIGKILL restart, $reconnects retried attempts, journal verified, clean drain)"
