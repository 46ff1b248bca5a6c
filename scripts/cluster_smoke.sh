#!/bin/sh
# cluster_smoke.sh — end-to-end smoke test of the galoisrouter cluster tier.
#
# Starts TWO galoisd backends and one galoisrouter on ephemeral ports and
# fires one concurrent burst through the router (scripts/burst.sh: every
# registered kind × {g-n, g-d, g-dnc} at threads 1 and 2). The router
# places each det spec by its key, and a cell's two thread counts are two
# keys, so its two fingerprints may come from different backends and must
# still agree; each receipt re-verifies through the router's round-robin
# verify path. Then walks the headline portability demo with
# curl: submit one job, note which backend produced it (X-Galois-Backend),
# verify the receipt twice — round-robin guarantees the two verifies land
# on different backends, so at least one is a cross-node replay — and
# require match:true from both. A session created through the router must
# stick to its creating backend for every batch. Finishes with a SIGTERM
# drain of the router, then the backends. Fails on any request error,
# fingerprint mismatch, failed verification, broken stickiness, or a
# verify pair that never left one backend.
#
# Usage: scripts/cluster_smoke.sh
set -eu

. "$(dirname "$0")/burst.sh"

tmp=$(mktemp -d)
trap 'status=$?
  [ -n "${router_pid:-}" ] && kill "$router_pid" 2>/dev/null
  [ -n "${b1_pid:-}" ] && kill "$b1_pid" 2>/dev/null
  [ -n "${b2_pid:-}" ] && kill "$b2_pid" 2>/dev/null
  rm -rf "$tmp"; exit $status' EXIT INT TERM

echo "cluster-smoke: building galoisd and galoisrouter"
go build -o "$tmp/galoisd" ./cmd/galoisd
go build -o "$tmp/galoisrouter" ./cmd/galoisrouter

wait_addr() { # file pid name
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "cluster-smoke: $3 did not bind within 10s" >&2
            exit 1
        fi
        kill -0 "$2" 2>/dev/null || { echo "cluster-smoke: $3 exited early" >&2; exit 1; }
        sleep 0.1
    done
}

"$tmp/galoisd" -addr 127.0.0.1:0 -addr-file "$tmp/b1" &
b1_pid=$!
"$tmp/galoisd" -addr 127.0.0.1:0 -addr-file "$tmp/b2" &
b2_pid=$!
wait_addr "$tmp/b1" "$b1_pid" "backend 1"
wait_addr "$tmp/b2" "$b2_pid" "backend 2"
b1=$(cat "$tmp/b1")
b2=$(cat "$tmp/b2")
echo "cluster-smoke: backends on $b1 and $b2"

"$tmp/galoisrouter" -addr 127.0.0.1:0 -addr-file "$tmp/r" \
    -backends "$b1,$b2" -probe-interval 500ms &
router_pid=$!
wait_addr "$tmp/r" "$router_pid" "galoisrouter"
raddr=$(cat "$tmp/r")
echo "cluster-smoke: router on $raddr (2 backends)"

hz=$(curl -sf "http://$raddr/healthz")
case "$hz" in
*'"ok":true'*'"healthy":2'*) echo "cluster-smoke: router healthz ok, 2 healthy backends" ;;
*) echo "cluster-smoke: router healthz unexpected: $hz" >&2; exit 1 ;;
esac

# Concurrent burst through the router: a det cell's t1 and t2 submissions
# are two keys, each placed by the rendezvous hash on either backend, and
# must agree; its receipt re-verifies via the router's round-robin verify
# path, which ignores placement.
burst cluster-smoke "$raddr" "$tmp/burst"

# Headline portability demo, by hand: one job, two verifies.
echo "cluster-smoke: cross-node verify"
spec='{"kind":"sssp","variant":"g-d","scale":"small","seed":4242}'
curl -sf -D "$tmp/h0" -o "$tmp/job" -X POST "http://$raddr/jobs" -d "$spec"
producer=$(tr -d '\r' < "$tmp/h0" | sed -n 's/^X-Galois-Backend: //p')
fp=$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' "$tmp/job")
sp=$(sed -n 's/.*"spec":\({[^}]*}\).*/\1/p' "$tmp/job")
if [ -z "$producer" ] || [ -z "$fp" ] || [ -z "$sp" ]; then
    echo "cluster-smoke: job response malformed: $(cat "$tmp/job")" >&2
    exit 1
fi
receipt="{\"spec\":$sp,\"fingerprint\":\"$fp\",\"deterministic\":true}"
verifiers=""
for i in 1 2; do
    curl -sf -D "$tmp/hv" -o "$tmp/vr" -X POST "http://$raddr/verify" -d "$receipt"
    v=$(tr -d '\r' < "$tmp/hv" | sed -n 's/^X-Galois-Backend: //p')
    case "$(cat "$tmp/vr")" in
    *'"match":true'*) ;;
    *) echo "cluster-smoke: verify $i on $v failed: $(cat "$tmp/vr")" >&2; exit 1 ;;
    esac
    verifiers="$verifiers $v"
done
case "$verifiers" in
*"$producer"*) ;; # fine — one of the two may be the producer
esac
v1=${verifiers# }
v2=${v1#* }
v1=${v1%% *}
if [ "$v1" = "$v2" ]; then
    echo "cluster-smoke: both verifies landed on $v1 — round-robin broken" >&2
    exit 1
fi
echo "cluster-smoke: produced on $producer, verified on $v1 and $v2 (match both)"

# Session stickiness through the router: every batch must be served by the
# backend that created the session.
echo "cluster-smoke: sticky session"
curl -sf -D "$tmp/hs" -o "$tmp/sess" -X POST "http://$raddr/sessions" \
    -d '{"kind":"sssp","scale":"small","seed":7}'
owner=$(tr -d '\r' < "$tmp/hs" | sed -n 's/^X-Galois-Backend: //p')
sid=$(sed -n 's/.*"id":"\(s[0-9a-f-]*\)".*/\1/p' "$tmp/sess")
if [ -z "$owner" ] || [ -z "$sid" ]; then
    echo "cluster-smoke: session create malformed: $(cat "$tmp/sess")" >&2
    exit 1
fi
for seed in 1 2 3; do
    curl -sf -D "$tmp/hb" -o "$tmp/br" -X POST "http://$raddr/sessions/$sid/batches" \
        -d "{\"op\":\"reweight\",\"edges\":16,\"seed\":$seed}"
    served=$(tr -d '\r' < "$tmp/hb" | sed -n 's/^X-Galois-Backend: //p')
    if [ "$served" != "$owner" ]; then
        echo "cluster-smoke: batch $seed served by $served, owner is $owner — stickiness broken" >&2
        exit 1
    fi
done
vr=$(curl -sf -X POST "http://$raddr/sessions/$sid/verify")
case "$vr" in
*'"match":true'*) echo "cluster-smoke: session stuck to $owner, chain verified" ;;
*) echo "cluster-smoke: session chain verification failed: $vr" >&2; exit 1 ;;
esac

echo "cluster-smoke: draining router, then backends"
kill -TERM "$router_pid"
wait "$router_pid"
router_pid=
kill -TERM "$b1_pid" "$b2_pid"
wait "$b1_pid" "$b2_pid"
b1_pid=
b2_pid=
echo "cluster-smoke: ok"
