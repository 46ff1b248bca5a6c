#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the galoisd serving layer.
#
# Starts galoisd on an ephemeral port and fires one concurrent burst at it
# (scripts/burst.sh: every registered kind × {g-n, g-d, g-dnc} at threads 1
# and 2), checking that each deterministic cell agrees across thread counts
# and that its receipt re-verifies through POST /verify. Then checks a
# warm-cache resubmission, walks the stateful-session API with curl —
# create a dmr session, chain three mutation batches, audit the whole chain
# from the last receipt, watch idle eviction seal a tombstone, and confirm
# the sealed chain still verifies while new batches get 410 — and shuts the
# server down gracefully. Fails on any request error, any deterministic
# cell whose fingerprints differ, any receipt that does not re-verify, or
# any chain that does not replay.
#
# Usage: scripts/serve_smoke.sh
set -eu

. "$(dirname "$0")/burst.sh"

tmp=$(mktemp -d)
trap 'status=$?; [ -n "${server_pid:-}" ] && kill "$server_pid" 2>/dev/null; rm -rf "$tmp"; exit $status' EXIT INT TERM

echo "serve-smoke: building galoisd"
go build -o "$tmp/galoisd" ./cmd/galoisd

# -session-idle is short so the eviction/tombstone path is observable in
# the session phase below, which never idles that long mid-chain.
"$tmp/galoisd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -session-idle 2s &
server_pid=$!

i=0
while [ ! -s "$tmp/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: galoisd did not bind within 10s" >&2
        exit 1
    fi
    kill -0 "$server_pid" 2>/dev/null || { echo "serve-smoke: galoisd exited early" >&2; exit 1; }
    sleep 0.1
done
addr=$(cat "$tmp/addr")
echo "serve-smoke: galoisd on $addr"

# Health probe target: the cheap counters-only snapshot a routing tier
# polls. A fresh server is ok, not draining, and reports its queue bound
# and worker count.
hz=$(curl -sf "http://$addr/healthz")
case "$hz" in
*'"ok":true'*) ;;
*) echo "serve-smoke: healthz not ok: $hz" >&2; exit 1 ;;
esac
case "$hz" in
*'"queue_cap":'*'"in_flight":'*) echo "serve-smoke: healthz ok" ;;
*) echo "serve-smoke: healthz missing load fields: $hz" >&2; exit 1 ;;
esac

# Concurrent burst: every registered kind, det and nondet variants, at
# threads 1 and 2; each det cell's two fingerprints agree and its receipt
# re-verifies.
burst serve-smoke "$addr" "$tmp/burst"

# Warm-cache phase: the same deterministic spec submitted twice must hit
# the result cache on the resubmission — identical spec and fingerprint,
# cached:true on the second response only, hit counter advanced. The
# burst above used seed 42, so this seed's first submission is cold.
echo "serve-smoke: warm-cache check"
spec='{"kind":"bfs","variant":"g-d","scale":"small","seed":7070,"threads":2}'
r1=$(curl -sf -X POST "http://$addr/jobs" -d "$spec")
hits_before=$(curl -sf "http://$addr/metrics" | sed -n 's/^serve\.rescache\.hits //p')
r2=$(curl -sf -X POST "http://$addr/jobs" -d "$spec")
hits_after=$(curl -sf "http://$addr/metrics" | sed -n 's/^serve\.rescache\.hits //p')
fp1=$(printf '%s' "$r1" | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
fp2=$(printf '%s' "$r2" | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
sp1=$(printf '%s' "$r1" | sed -n 's/.*"spec":\({[^}]*}\).*/\1/p')
sp2=$(printf '%s' "$r2" | sed -n 's/.*"spec":\({[^}]*}\).*/\1/p')
case "$r1" in
*'"cached":true'*) echo "serve-smoke: first submission unexpectedly cached" >&2; exit 1 ;;
esac
case "$r2" in
*'"cached":true'*) ;;
*) echo "serve-smoke: resubmission not served from cache: $r2" >&2; exit 1 ;;
esac
if [ -z "$fp1" ] || [ "$fp1" != "$fp2" ] || [ "$sp1" != "$sp2" ]; then
    echo "serve-smoke: cached receipt differs from fresh (fp $fp1 vs $fp2)" >&2
    exit 1
fi
if [ -z "$hits_after" ] || [ "${hits_before:-0}" -ge "$hits_after" ]; then
    echo "serve-smoke: cache hit counter did not advance ($hits_before -> $hits_after)" >&2
    exit 1
fi
echo "serve-smoke: warm-cache ok (fp $fp1, hits $hits_before -> $hits_after)"

# Session phase: the mutation API end to end. Create a dmr session, chain
# three refinement batches (each naming its predecessor), then audit the
# entire history from nothing but the final receipt.
echo "serve-smoke: session phase"
created=$(curl -sf -X POST "http://$addr/sessions" -d '{"kind":"dmr","scale":"small","seed":42}')
sid=$(printf '%s' "$created" | sed -n 's/.*"id":"\(s[0-9a-f-]*\)".*/\1/p')
prev=$(printf '%s' "$created" | sed -n 's/.*"head":"\([0-9a-f]*\)".*/\1/p')
if [ -z "$sid" ] || [ -z "$prev" ]; then
    echo "serve-smoke: session create malformed: $created" >&2
    exit 1
fi
for angle in 2400 2600 2800; do
    br=$(curl -sf -X POST "http://$addr/sessions/$sid/batches" \
        -d "{\"op\":\"refine\",\"angle_centideg\":$angle,\"prev\":\"$prev\"}")
    chain=$(printf '%s' "$br" | sed -n 's/.*"chain":"\([0-9a-f]*\)".*/\1/p')
    if [ -z "$chain" ]; then
        echo "serve-smoke: batch (angle $angle) malformed: $br" >&2
        exit 1
    fi
    prev=$chain
done
vr=$(curl -sf -X POST "http://$addr/sessions/$sid/verify" -d "{\"final_chain\":\"$prev\"}")
case "$vr" in
*'"match":true'*) echo "serve-smoke: session chain verified from last receipt ($prev)" ;;
*) echo "serve-smoke: chain verification failed: $vr" >&2; exit 1 ;;
esac

# Idle past -session-idle: the sweep on the next request must have sealed
# a tombstone; the chain stays readable and verifiable, new batches 410.
sleep 3
info=$(curl -sf "http://$addr/sessions/$sid")
case "$info" in
*'"evicted":true'*) ;;
*) echo "serve-smoke: session not evicted after idle: $info" >&2; exit 1 ;;
esac
case "$info" in
*'"op":"tombstone"'*) echo "serve-smoke: idle eviction sealed a tombstone" ;;
*) echo "serve-smoke: evicted session has no tombstone link: $info" >&2; exit 1 ;;
esac
vr=$(curl -sf -X POST "http://$addr/sessions/$sid/verify")
case "$vr" in
*'"match":true'*) ;;
*) echo "serve-smoke: evicted chain no longer verifies: $vr" >&2; exit 1 ;;
esac
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/sessions/$sid/batches" \
    -d '{"op":"refine","angle_centideg":2900}')
if [ "$code" != "410" ]; then
    echo "serve-smoke: batch against evicted session returned $code, want 410" >&2
    exit 1
fi
echo "serve-smoke: session phase ok"

echo "serve-smoke: draining galoisd"
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=
echo "serve-smoke: ok"
