#!/bin/sh
# chaos_smoke.sh — crash-safety smoke test for cmd/serve, run by `make
# chaos-smoke` (and CI): kill the real binary with SIGKILL in the middle
# of a snapshot write (a -fault delay pins it inside the pre-rename
# window), then prove the previously saved artifact is still loadable —
# a restarted server goes green on /readyz and keeps resolving. Also
# checks that reloading a deliberately corrupted snapshot yields 422 and
# leaves the live index serving, that a progressive stream killed
# mid-flight leaves a cursor the restarted server refuses with a clean
# 410 cursor_invalid (fresh signing key) rather than a wrong answer, and
# that with -wal-sync=always a SIGKILL inside the group-commit window
# loses no acknowledged write: the restart replays the WAL tail and
# answers bit-identically to a never-crashed control. A -shards 4 server
# fed the same arrivals must write the same artifact bytes as the
# one-shard server.
set -eu

workdir="$(mktemp -d)"
log="$workdir/serve.log"
snap="$workdir/chaos.snap"
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "chaos-smoke: building cmd/serve"
go build -o "$workdir/serve" ./cmd/serve

# start_server <extra flags...> — boots the binary and sets $base/$pid.
start_server() {
    : >"$log"
    "$workdir/serve" -addr 127.0.0.1:0 -scheme js -k 5 "$@" >"$log" 2>&1 &
    pid=$!
    base=""
    for _ in $(seq 1 100); do
        base="$(sed -n 's/^serve: listening on \(http:\/\/[0-9.:]*\)$/\1/p' "$log" | head -n 1)"
        [ -n "$base" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "chaos-smoke: server died early:"; cat "$log"; exit 1; }
        sleep 0.1
    done
    [ -n "$base" ] || { echo "chaos-smoke: server never announced its address:"; cat "$log"; exit 1; }
}

resolve() {
    curl -fsS -X POST -d "$1" "$base/v1/resolve" >/dev/null
}

# Phase 1: build a known-good artifact.
start_server
resolve '{"attributes":{"name":["jack miller"],"job":["car seller"]}}'
resolve '{"attributes":{"fullname":["jack q miller"],"work":["car vendor"]}}'
saved="$(curl -fsS -X POST -d "{\"path\":\"$snap\"}" "$base/v1/admin/snapshot")"
echo "$saved" | grep -q '"profiles":2' || { echo "chaos-smoke: snapshot: $saved"; exit 1; }
kill -TERM "$pid"; wait "$pid" || true; pid=""
# The artifact is one file at every shard count.
sum_before="$(cksum "$snap")"
echo "chaos-smoke: good artifact written"

# Phase 2: SIGKILL mid-snapshot. The armed delay pins the save between
# writing the temp file and the fsync+rename, so the kill lands while the
# overwrite of $snap is in flight — the atomic-save window under test.
start_server -snapshot "$snap" -fault 'store.save.sync:delay=10s'
resolve '{"attributes":{"name":["john smith"],"city":["berlin"]}}'
curl -fsS -X POST -d "{\"path\":\"$snap\"}" "$base/v1/admin/snapshot" >/dev/null 2>&1 &
curl_pid=$!
sleep 1
echo "chaos-smoke: SIGKILL mid-snapshot"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
wait "$curl_pid" 2>/dev/null || true

# A half-written temp file may linger beside it; the committed artifact
# must be bit-identical.
sum_after="$(cksum "$snap")"
[ "$sum_before" = "$sum_after" ] || { echo "chaos-smoke: artifact changed across a torn write"; echo "before: $sum_before"; echo "after: $sum_after"; exit 1; }

# Phase 3: restart on the surviving artifact — readiness must go green.
start_server -snapshot "$snap"
curl -fsS "$base/readyz" | grep -q '^ready$' || { echo "chaos-smoke: /readyz not green after crash recovery"; cat "$log"; exit 1; }
grep -q 'loaded snapshot .* (2 profiles)' "$log" || { echo "chaos-smoke: snapshot not restored:"; cat "$log"; exit 1; }
resolve '{"attributes":{"name":["jack miller"],"job":["car seller"]}}'

# Phase 4: a corrupted artifact is rejected with 422 and the index keeps
# serving.
corrupt="$workdir/corrupt.snap"
cp "$snap" "$corrupt"
# Flip one byte in the middle of the payload.
size="$(wc -c <"$corrupt")"
mid=$((size / 2))
printf '\377' | dd of="$corrupt" bs=1 seek="$mid" count=1 conv=notrunc 2>/dev/null
code="$(curl -sS -o "$workdir/reload.out" -w '%{http_code}' -X POST -d "{\"path\":\"$corrupt\"}" "$base/v1/admin/reload")"
[ "$code" = "422" ] || { echo "chaos-smoke: corrupt reload returned $code, want 422:"; cat "$workdir/reload.out"; exit 1; }
curl -fsS "$base/readyz" | grep -q '^ready$' || { echo "chaos-smoke: not ready after rejected reload"; exit 1; }
resolve '{"attributes":{"name":["jane doe"]}}'
curl -fsS "$base/metrics" | grep -q 'store\.corrupt_loads *1' || { echo "chaos-smoke: corrupt_loads counter missing"; curl -fsS "$base/metrics"; exit 1; }

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "chaos-smoke: exit status $status after SIGTERM:"; cat "$log"; exit 1; }

# Phase 5: the artifact has no shard count. A -shards 4 server fed
# Phase 1's two arrivals writes exactly Phase 1's bytes, and a -shards 4
# restart on that file goes green and serves at four shards.
shardsnap="$workdir/sharded.snap"
start_server -shards 4
resolve '{"attributes":{"name":["jack miller"],"job":["car seller"]}}'
resolve '{"attributes":{"fullname":["jack q miller"],"work":["car vendor"]}}'
saved="$(curl -fsS -X POST -d "{\"path\":\"$shardsnap\"}" "$base/v1/admin/snapshot")"
echo "$saved" | grep -q '"profiles":2' || { echo "chaos-smoke: sharded snapshot: $saved"; exit 1; }
kill -TERM "$pid"; wait "$pid" || true; pid=""
cmp "$snap" "$shardsnap" || { echo "chaos-smoke: -shards 4 artifact differs from the one-shard artifact"; exit 1; }
echo "chaos-smoke: -shards 4 artifact is byte-identical to the one-shard artifact"

start_server -shards 4 -snapshot "$shardsnap"
curl -fsS "$base/readyz" | grep -q '^ready$' || { echo "chaos-smoke: /readyz not green on the -shards 4 restart"; cat "$log"; exit 1; }
grep -q 'loaded snapshot .* (2 profiles)' "$log" || { echo "chaos-smoke: sharded snapshot not restored:"; cat "$log"; exit 1; }
resolve '{"attributes":{"name":["jack miller"],"job":["car seller"]}}'
status_body="$(curl -fsS "$base/v1/admin/status")"
echo "$status_body" | grep -q '"shards":4' || { echo "chaos-smoke: status missing shard count: $status_body"; exit 1; }
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "chaos-smoke: exit status $status after sharded SIGTERM:"; cat "$log"; exit 1; }

# Phase 6: the out-of-core (-disk-dir) index survives SIGKILL in the
# middle of a background compaction. A 1-byte memtable budget makes every
# arrival checkpoint the directory; -compact-after 2 makes nearly every
# checkpoint trigger a compaction. The armed delay pins shard 0 inside
# its compaction window — after the sealed generation's manifest is
# committed — so the kill lands mid-compaction, and recovery must land on
# that committed checkpoint: no sealed generation is ever lost.
diskdir="$workdir/diskidx"
p1='{"attributes":{"name":["jack miller"],"job":["car seller"]}}'
p2='{"attributes":{"fullname":["jack q miller"],"work":["car vendor"]}}'
p3='{"attributes":{"name":["john smith"],"city":["berlin"]}}'
p4='{"attributes":{"name":["jane doe"],"city":["berlin"]}}'
p5='{"attributes":{"name":["john q smith"],"job":["car seller"]}}'
probe='{"attributes":{"name":["jack smith"],"city":["berlin"],"job":["car vendor"]}}'

start_server -disk-dir "$diskdir" -shards 2 -memtable-budget 1 -compact-after 2
resolve "$p1"; resolve "$p2"; resolve "$p3"; resolve "$p4"
# /v1/admin/snapshot with an empty path = checkpoint the directory in place.
saved="$(curl -fsS -X POST -d '{"path":""}' "$base/v1/admin/snapshot")"
echo "$saved" | grep -q '"profiles":4' || { echo "chaos-smoke: disk checkpoint: $saved"; exit 1; }
kill -TERM "$pid"; wait "$pid" || true; pid=""
echo "chaos-smoke: disk index checkpointed (4 profiles)"

# Restart armed: the fifth arrival blows the 1-byte budget, the automatic
# checkpoint seals and commits generation 5, then shard 0's compaction
# hits the 10s delay — SIGKILL lands inside it. The WAL sync barrier is
# off here: under -wal-sync=always the barrier would (correctly) queue
# behind the pinned compaction on the same actor and stall the resolve;
# this phase tests the segment layer's checkpoint durability, and
# phase 8 covers the barrier.
start_server -disk-dir "$diskdir" -shards 2 -memtable-budget 1 -compact-after 2 \
    -wal-sync=off -fault 'shard.0.compact:delay=10s'
resolve "$p5"
sleep 1
echo "chaos-smoke: SIGKILL mid-compaction"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

# Recovery: readiness green, all five sealed arrivals present, and the
# probe answer must be bit-identical to a run that never crashed.
start_server -disk-dir "$diskdir" -shards 2 -memtable-budget 1 -compact-after 2
curl -fsS "$base/readyz" | grep -q '^ready$' || { echo "chaos-smoke: /readyz not green after mid-compaction crash"; cat "$log"; exit 1; }
status_body="$(curl -fsS "$base/v1/admin/status")"
echo "$status_body" | grep -q '"profiles":5' || { echo "chaos-smoke: sealed generation lost: $status_body"; exit 1; }
echo "$status_body" | grep -q '"checkpoint"' || { echo "chaos-smoke: status missing checkpoint: $status_body"; exit 1; }
crashed_answer="$(curl -fsS -X POST -d "$probe" "$base/v1/resolve")"
kill -TERM "$pid"; wait "$pid" || true; pid=""

# Control: the same six arrivals straight through a fresh in-memory
# server; out-of-core + crash recovery must not change a single answer.
start_server
resolve "$p1"; resolve "$p2"; resolve "$p3"; resolve "$p4"; resolve "$p5"
control_answer="$(curl -fsS -X POST -d "$probe" "$base/v1/resolve")"
[ "$crashed_answer" = "$control_answer" ] || {
    echo "chaos-smoke: post-crash answer diverged from the no-crash control"
    echo "crashed: $crashed_answer"; echo "control: $control_answer"; exit 1;
}
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "chaos-smoke: exit status $status after disk-mode SIGTERM:"; cat "$log"; exit 1; }

# Phase 7: a progressive stream crosses a SIGKILL only as far as its
# cursor allows. A budgeted stream exhausts and hands out a signed
# resumption cursor; resuming against the live process streams the
# remainder to completion. Then a second stream is pinned mid-flight (an
# armed delay on the flush path) and the process is SIGKILLed — the
# restarted server signs with a fresh per-process key, so the stale
# cursor must be refused with a clean, typed 410 cursor_invalid
# envelope: never a wrong answer, never a bare error.
start_server -fault 'server.stream:delay=10s,after=2'
resolve "$p1"; resolve "$p2"; resolve "$p3"; resolve "$p4"; resolve "$p5"
stream1="$(curl -fsS -X POST -H 'Accept: application/x-ndjson' -d "$probe" "$base/v1/resolve?max_comparisons=1")"
echo "$stream1" | grep -q '"batch"' || { echo "chaos-smoke: budgeted stream flushed nothing: $stream1"; exit 1; }
cursor="$(printf '%s\n' "$stream1" | sed -n 's/.*"cursor":{"cursor":"\([^"]*\)".*/\1/p')"
[ -n "$cursor" ] || { echo "chaos-smoke: exhausted stream carried no cursor: $stream1"; exit 1; }

# Live resume: the remainder arrives and the stream completes (done frame).
resumed="$(curl -fsS -X POST -H 'Accept: application/x-ndjson' -d "$probe" "$base/v1/resolve?cursor=$cursor")"
echo "$resumed" | grep -q '"done"' || { echo "chaos-smoke: live resume did not complete: $resumed"; exit 1; }
echo "chaos-smoke: budgeted stream resumed to completion pre-crash"

# The third stream trips the armed delay on its first flush — pinned
# mid-stream (headers and meta frame out, no batch yet) when the kill lands.
curl -sS -X POST -H 'Accept: application/x-ndjson' -d "$probe" "$base/v1/resolve" >"$workdir/pinned.out" 2>&1 &
curl_pid=$!
sleep 1
echo "chaos-smoke: SIGKILL mid-stream"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
wait "$curl_pid" 2>/dev/null || true
if grep -q '"done"\|"cursor"' "$workdir/pinned.out"; then
    echo "chaos-smoke: pinned stream was not mid-flight at the kill"; cat "$workdir/pinned.out"; exit 1
fi

# Restart: fresh signing key, so the pre-crash cursor is structurally
# valid but unverifiable — the server must answer 410 cursor_invalid.
start_server
resolve "$p1"
code="$(curl -sS -o "$workdir/resume.out" -w '%{http_code}' -X POST -H 'Accept: application/x-ndjson' -d "$probe" "$base/v1/resolve?cursor=$cursor")"
[ "$code" = "410" ] || { echo "chaos-smoke: stale cursor returned $code, want 410:"; cat "$workdir/resume.out"; exit 1; }
grep -q '"code":"cursor_invalid"' "$workdir/resume.out" || { echo "chaos-smoke: 410 body missing cursor_invalid:"; cat "$workdir/resume.out"; exit 1; }
curl -fsS "$base/metrics" | grep -q 'budget\.cursor_invalid *1' || { echo "chaos-smoke: cursor_invalid counter missing"; curl -fsS "$base/metrics"; exit 1; }
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "chaos-smoke: exit status $status after mid-stream SIGTERM:"; cat "$log"; exit 1; }

# Phase 8: the write-ahead log closes disk mode's last loss window.
# Under -wal-sync=always every acknowledgment waits on an fsync barrier;
# the armed delay skips the first four barriers and pins the fifth open
# — p5's record is appended to the log, its reply unsent — when the
# SIGKILL lands. No checkpoint is ever taken (default memtable budget),
# so the restart recovers everything from the log alone: all four
# acknowledged arrivals (zero acknowledged-write loss) plus the
# in-flight fifth (at-least-once), and the probe answer must be
# bit-identical to a never-crashed control over the same five arrivals.
waldir="$workdir/walidx"
start_server -disk-dir "$waldir" -shards 1 -wal-sync=always \
    -fault 'shard.0.wal.sync:delay=10s,after=4'
resolve "$p1"; resolve "$p2"; resolve "$p3"; resolve "$p4"
curl -sS -X POST -d "$p5" "$base/v1/resolve" >"$workdir/pinned5.out" 2>&1 &
curl_pid=$!
sleep 1
echo "chaos-smoke: SIGKILL mid-group-commit"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
wait "$curl_pid" 2>/dev/null || true
if grep -q '"id":4' "$workdir/pinned5.out"; then
    echo "chaos-smoke: pinned commit was acknowledged before its sync barrier"; cat "$workdir/pinned5.out"; exit 1
fi

start_server -disk-dir "$waldir" -shards 1 -wal-sync=always
curl -fsS "$base/readyz" | grep -q '^ready$' || { echo "chaos-smoke: /readyz not green after mid-commit crash"; cat "$log"; exit 1; }
status_body="$(curl -fsS "$base/v1/admin/status")"
echo "$status_body" | grep -q '"profiles":5' || { echo "chaos-smoke: WAL replay lost writes: $status_body"; exit 1; }
echo "$status_body" | grep -q '"checkpoint":0' || { echo "chaos-smoke: unexpected checkpoint — recovery was not WAL-only: $status_body"; exit 1; }
echo "$status_body" | grep -q '"wal_sync":"always"' || { echo "chaos-smoke: status missing wal_sync: $status_body"; exit 1; }
curl -fsS "$base/metrics" | grep -q 'diskindex\.wal_replayed *5' || { echo "chaos-smoke: wal_replayed counter wrong"; curl -fsS "$base/metrics"; exit 1; }
crashed_answer="$(curl -fsS -X POST -d "$probe" "$base/v1/resolve")"
kill -TERM "$pid"; wait "$pid" || true; pid=""

# Control: the same five arrivals, never crashed, in-memory.
start_server
resolve "$p1"; resolve "$p2"; resolve "$p3"; resolve "$p4"; resolve "$p5"
control_answer="$(curl -fsS -X POST -d "$probe" "$base/v1/resolve")"
[ "$crashed_answer" = "$control_answer" ] || {
    echo "chaos-smoke: post-WAL-replay answer diverged from the no-crash control"
    echo "crashed: $crashed_answer"; echo "control: $control_answer"; exit 1;
}
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "chaos-smoke: exit status $status after WAL-mode SIGTERM:"; cat "$log"; exit 1; }
echo "chaos-smoke: WAL replay recovered every acknowledged write"

echo "chaos-smoke: OK"
