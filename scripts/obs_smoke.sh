#!/usr/bin/env bash
# Observability smoke test: boot the daemon, drive a little load, and prove
# the whole telemetry plane answers — /metrics scrapes as Prometheus text,
# /v1/rounds explains recent decisions, /v1/jobs renders a finished job, the
# follow stream delivers live events, and tetrictl's status/submit -wait/
# tail/top front-ends work against a real server.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:8933}"
BASE="http://$ADDR"
SHARD_A_ADDR="${SHARD_A_ADDR:-127.0.0.1:8934}"
SHARD_B_ADDR="${SHARD_B_ADDR:-127.0.0.1:8935}"
ROUTER_ADDR="${ROUTER_ADDR:-127.0.0.1:8936}"
ROUTER_BASE="http://$ROUTER_ADDR"
TMP="$(mktemp -d)"
trap 'kill "$SERVE_PID" "$SHARD_A_PID" "$SHARD_B_PID" "$ROUTER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== building =="
go build -o "$TMP/tetriserve" ./cmd/tetriserve
go build -o "$TMP/tetrictl" ./cmd/tetrictl

echo "== starting tetriserve on $ADDR =="
"$TMP/tetriserve" -addr "$ADDR" -speedup 50 -pprof &
SERVE_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "$BASE/v1/stats" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "server died during startup" >&2
    exit 1
  fi
  sleep 0.2
done
curl -fsS "$BASE/v1/stats" >/dev/null

echo "== tailing the live trace while load runs =="
"$TMP/tetrictl" -server "$BASE" tail -for 25s >"$TMP/tail.jsonl" &
TAIL_PID=$!

echo "== submitting load =="
for i in 1 2 3; do
  curl -fsS -X POST "$BASE/v1/images/generations" \
    -H 'Content-Type: application/json' \
    -d '{"prompt":"obs smoke '"$i"'","width":512,"height":512}' >/dev/null
done

# Wait until everything submitted has finalized.
for i in $(seq 1 100); do
  done_count=$(curl -fsS "$BASE/v1/stats" | sed -n 's/.*"completed":\([0-9]*\).*/\1/p')
  [ "${done_count:-0}" -ge 3 ] && break
  sleep 0.3
done
[ "${done_count:-0}" -ge 3 ] || { echo "jobs never completed" >&2; exit 1; }

echo "== scraping /metrics =="
curl -fsS "$BASE/metrics" >"$TMP/metrics.txt"
grep -q '^# TYPE tetriserve_requests_total counter$' "$TMP/metrics.txt"
grep -q '^tetriserve_requests_total 3$' "$TMP/metrics.txt"
grep -q '^tetriserve_completed_total 3$' "$TMP/metrics.txt"
grep -q '^# TYPE tetriserve_e2e_latency_seconds histogram$' "$TMP/metrics.txt"
grep -q 'tetriserve_e2e_latency_seconds_bucket{resolution="512x512",le="+Inf"} 3' "$TMP/metrics.txt"
echo "   $(grep -c '^tetriserve' "$TMP/metrics.txt") tetriserve samples"

echo "== /v1/rounds =="
curl -fsS "$BASE/v1/rounds?n=5" >"$TMP/rounds.json"
grep -q '"degree"' "$TMP/rounds.json"
grep -q '"deadline_slack_us"' "$TMP/rounds.json"

echo "== pprof (flag-gated) =="
curl -fsS "$BASE/debug/pprof/cmdline" >/dev/null

echo "== /v1/jobs renders a finished job from its timeline =="
curl -fsS "$BASE/v1/jobs/0" >"$TMP/job0.json"
grep -q '"state":"completed"' "$TMP/job0.json" || { echo "job 0: $(cat "$TMP/job0.json")" >&2; exit 1; }
grep -q '"avg_degree"' "$TMP/job0.json"
"$TMP/tetrictl" -server "$BASE" status 0 | grep -q '"state": "completed"'
"$TMP/tetrictl" -server "$BASE" submit -prompt "obs smoke wait" -size 512 -wait | tee "$TMP/submit.txt"
grep -q 'done: latency=' "$TMP/submit.txt"

echo "== tetrictl top =="
"$TMP/tetrictl" -server "$BASE" top

echo "== live trace tail =="
wait "$TAIL_PID" || true
head -10 "$TMP/tail.jsonl"
lines=$(wc -l <"$TMP/tail.jsonl")
# 3 jobs → at least arrival+complete each, plus block events.
[ "$lines" -ge 6 ] || { echo "follow stream delivered only $lines events" >&2; exit 1; }
grep -q '"kind":"arrival"' "$TMP/tail.jsonl"
grep -q '"kind":"complete"' "$TMP/tail.jsonl"

echo "== an idle shard parks its round grid =="
round_ticks() {
  curl -fsS "$BASE/metrics" | sed -n 's/^tetriserve_round_ticks_total \([0-9]*\)$/\1/p'
}
ticks_before=$(round_ticks)
sleep 1
ticks_after=$(round_ticks)
[ "${ticks_before:-0}" -gt 0 ] || { echo "no round ticks fired under load" >&2; exit 1; }
[ "$ticks_after" = "$ticks_before" ] || {
  echo "idle shard kept ticking: round_ticks_total $ticks_before -> $ticks_after" >&2; exit 1; }
echo "   round_ticks_total steady at $ticks_after"

# --- fleet section: router + 2 shards + live rebalancer, one traced request
# end-to-end ------------------------------------------------------------------

echo "== starting 2 shards + router =="
"$TMP/tetriserve" -addr "$SHARD_A_ADDR" -speedup 50 &
SHARD_A_PID=$!
"$TMP/tetriserve" -addr "$SHARD_B_ADDR" -speedup 50 &
SHARD_B_PID=$!
for addr in "$SHARD_A_ADDR" "$SHARD_B_ADDR"; do
  for i in $(seq 1 50); do
    curl -fsS "http://$addr/v1/stats" >/dev/null 2>&1 && break
    sleep 0.2
  done
  curl -fsS "http://$addr/v1/stats" >/dev/null
done
"$TMP/tetriserve" -mode router -addr "$ROUTER_ADDR" \
  -shards "a=http://$SHARD_A_ADDR,b=http://$SHARD_B_ADDR" \
  -rebalance -rebalance-gpus 8:8,8:8 -rebalance-interval 1s &
ROUTER_PID=$!
for i in $(seq 1 50); do
  curl -fsS "$ROUTER_BASE/v1/router/stats" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$ROUTER_BASE/v1/router/stats" >/dev/null

echo "== routed traced request =="
curl -fsS -X POST "$ROUTER_BASE/v1/generate" \
  -H 'Content-Type: application/json' \
  -d '{"prompt":"fleet smoke","width":512,"height":512,"slo_ms":30000,"tenant":"smoke"}' \
  >"$TMP/routed.json"
trace=$(sed -n 's/.*"trace_id":"\([^"]*\)".*/\1/p' "$TMP/routed.json")
[ -n "$trace" ] || { echo "routed job carries no trace_id: $(cat "$TMP/routed.json")" >&2; exit 1; }
echo "   trace $trace"

# Wait for the timeline to finalize, then assert its shape.
for i in $(seq 1 100); do
  curl -fsS "$ROUTER_BASE/v1/requests/$trace" >"$TMP/timeline.json" 2>/dev/null || true
  grep -q '"done":true' "$TMP/timeline.json" 2>/dev/null && break
  sleep 0.3
done
grep -q '"done":true' "$TMP/timeline.json" || { echo "timeline never finalized" >&2; exit 1; }
spans=$(grep -o '"kind":' "$TMP/timeline.json" | wc -l)
[ "$spans" -ge 4 ] || { echo "timeline has only $spans spans, want >=4" >&2; exit 1; }
grep -q '"kind":"admission"' "$TMP/timeline.json"
grep -q '"kind":"compute"' "$TMP/timeline.json"
grep -q '"kind":"finish"' "$TMP/timeline.json"
grep -q '"tenant":"smoke"' "$TMP/timeline.json"
echo "   timeline finalized with $spans spans"

echo "== /v1/fleet aggregates both shards =="
curl -fsS "$ROUTER_BASE/v1/fleet" >"$TMP/fleet.json"
grep -q '"name":"a"' "$TMP/fleet.json"
grep -q '"name":"b"' "$TMP/fleet.json"
grep -q '"routed":1' "$TMP/fleet.json"
reachable=$(grep -o '"reachable":true' "$TMP/fleet.json" | wc -l)
[ "$reachable" -eq 2 ] || { echo "fleet reports $reachable reachable shards, want 2" >&2; exit 1; }
# Both shards start at their 8-GPU cap, so the live rebalancer's rounds run
# but can move nothing.
grep -q '"gpu_counts":\[8,8\]' "$TMP/fleet.json" || {
  echo "fleet rebalancer view: $(cat "$TMP/fleet.json")" >&2; exit 1; }

echo "== a second routed request is answered from the shards' digests =="
# The first request's HTTP probes started each shard's digest stream; from
# then on the router projects feasibility locally.
curl -fsS -X POST "$ROUTER_BASE/v1/generate" \
  -H 'Content-Type: application/json' \
  -d '{"prompt":"fleet smoke again","width":512,"height":512,"slo_ms":30000,"tenant":"smoke"}' \
  >/dev/null
curl -fsS "$ROUTER_BASE/metrics" >"$TMP/router_metrics.txt"
from_digest=$(awk '/^tetriserve_router_projections_total\{.*source="digest"/ {s += $2} END {print s+0}' "$TMP/router_metrics.txt")
[ "${from_digest%.*}" -gt 0 ] || {
  echo "router made no digest-sourced projections:" >&2
  grep tetriserve_router_projections_total "$TMP/router_metrics.txt" >&2; exit 1; }
echo "   $from_digest digest-sourced projections"

echo "== tetrictl trace / fleet / top -shards =="
"$TMP/tetrictl" -server "$ROUTER_BASE" trace "$trace"
"$TMP/tetrictl" -server "$ROUTER_BASE" fleet
"$TMP/tetrictl" -server "$ROUTER_BASE" top -shards

echo "== shard metrics carry the lifecycle histograms =="
curl -fsS "http://$SHARD_A_ADDR/metrics" >"$TMP/shard_metrics.txt"
curl -fsS "http://$SHARD_B_ADDR/metrics" >>"$TMP/shard_metrics.txt"
grep -q '^# TYPE tetriserve_phase_seconds histogram$' "$TMP/shard_metrics.txt"
grep -q '^# TYPE tetriserve_round_duration_seconds histogram$' "$TMP/shard_metrics.txt"
grep -q 'tetriserve_slo_attainment{tenant="smoke"}' "$TMP/shard_metrics.txt"

echo "obs-smoke OK ($lines live events, fleet trace $trace: $spans spans)"
