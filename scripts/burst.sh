# burst.sh — the concurrent determinism burst both smoke scripts run.
# Sourced by scripts/serve_smoke.sh and scripts/cluster_smoke.sh, not run
# on its own.
#
# burst <label> <host:port> <dir> submits every kind listed by GET /kinds ×
# {g-n, g-d, g-dnc} at threads 1 and 2, all at once, writing each response
# into <dir>. Every request must succeed. Each deterministic cell's two
# fingerprints must agree, and its receipt must re-verify through POST
# /verify at the same address. Exits the calling script on any failure.
burst() {
    label=$1 addr=$2 dir=$3
    mkdir -p "$dir"
    kinds=$(curl -sf "http://$addr/kinds" | sed -n 's/.*"kinds":\[\([^]]*\)\].*/\1/p' | tr -d '"' | tr ',' ' ')
    if [ -z "$kinds" ]; then
        echo "$label: GET /kinds listed no kinds" >&2
        exit 1
    fi

    cells=""
    for kind in $kinds; do
        for variant in g-n g-d g-dnc; do
            for threads in 1 2; do
                curl -sf -o "$dir/$kind.$variant.$threads" -X POST "http://$addr/jobs" \
                    -d "{\"kind\":\"$kind\",\"variant\":\"$variant\",\"scale\":\"small\",\"seed\":42,\"threads\":$threads}" &
                cells="$cells $!:$kind/$variant/t$threads"
            done
        done
    done
    n=0
    for cell in $cells; do
        if ! wait "${cell%%:*}"; then
            echo "$label: burst request ${cell#*:} failed" >&2
            exit 1
        fi
        n=$((n + 1))
    done

    for kind in $kinds; do
        for variant in g-d g-dnc; do
            fp1=$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' "$dir/$kind.$variant.1")
            fp2=$(sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' "$dir/$kind.$variant.2")
            if [ -z "$fp1" ] || [ "$fp1" != "$fp2" ]; then
                echo "$label: $kind/$variant fingerprint varies with threads: t1 $fp1, t2 $fp2" >&2
                exit 1
            fi
            receipt=$(sed -n 's/.*"receipt":\({"spec":{[^}]*}[^}]*}\).*/\1/p' "$dir/$kind.$variant.2")
            vr=$(curl -sf -X POST "http://$addr/verify" -d "$receipt")
            case "$vr" in
            *'"match":true'*) ;;
            *) echo "$label: $kind/$variant receipt did not re-verify: $vr" >&2; exit 1 ;;
            esac
        done
    done
    echo "$label: burst ok ($n concurrent requests; every det cell agrees across threads and re-verifies)"
}
