#!/usr/bin/env bash
# End-to-end smoke test of the online locality service: build locserve
# and tracegen, start a server, stream a generated trace into it over
# HTTP, and diff the served snapshot against the batch pipeline's output
# for the same trace file — the eviction-off equivalence guarantee
# checked from the shell, the way CI exercises it.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/locserve" ./cmd/locserve
go build -o "$tmp/tracegen" ./cmd/tracegen

"$tmp/tracegen" -bench boxsim -refs 50000 -o "$tmp/box.trace" >/dev/null

addr=127.0.0.1:18231
"$tmp/locserve" -addr "$addr" &
server_pid=$!

# Wait for the listener.
up=""
for _ in $(seq 50); do
  if curl -sf "http://$addr/v1/sessions" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
[ -n "$up" ] || { echo "serve-smoke: server did not come up" >&2; exit 1; }

# Stream the trace into a session (chunked POST, throttled to exercise
# the pacing path).
"$tmp/tracegen" -stream -in "$tmp/box.trace" -rate 500000 \
  -url "http://$addr/v1/ingest?session=smoke" >/dev/null

# Live endpoints answer. (Pure-shell substring checks: under pipefail,
# grep -q's early exit would SIGPIPE its upstream.)
hot=$(curl -sf "http://$addr/v1/hotstreams?session=smoke")
case "$hot" in *'"hotStreams"'*) ;; *)
  echo "serve-smoke: /v1/hotstreams missing hotStreams section" >&2; exit 1;;
esac
loc=$(curl -sf "http://$addr/v1/locality?session=smoke")
case "$loc" in *'"wtAvgStreamSize"'*) ;; *)
  echo "serve-smoke: /v1/locality missing metrics" >&2; exit 1;;
esac

# The served snapshot must be byte-identical to the batch pipeline.
curl -sf "http://$addr/v1/snapshot?session=smoke" > "$tmp/served.json"
"$tmp/locserve" -batch "$tmp/box.trace" > "$tmp/batch.json"
diff -u "$tmp/batch.json" "$tmp/served.json" \
  || { echo "serve-smoke: served snapshot differs from batch analysis" >&2; exit 1; }

# The server's counters advanced.
curl -sf "http://$addr/v1/metrics" > "$tmp/metrics.json"
records=$(grep -o '"locserve.records": *[0-9]*' "$tmp/metrics.json" | grep -o '[0-9]*$' || echo 0)
rules=$(grep -o '"locserve.rules": *[0-9]*' "$tmp/metrics.json" | grep -o '[0-9]*$' || echo 0)
[ "${records:-0}" -gt 0 ] || { echo "serve-smoke: locserve.records did not advance" >&2; exit 1; }
[ "${rules:-0}" -gt 0 ] || { echo "serve-smoke: locserve.rules did not advance" >&2; exit 1; }

echo "serve-smoke: OK (records=$records rules=$rules, served snapshot matches batch)"
