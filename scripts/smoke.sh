#!/usr/bin/env bash
# smoke.sh — boot the simd daemon and drive one end-to-end query, the
# exact sequence CI's service-smoke job runs. Gates, in order:
#   1. simlint over the service packages (the pooled types carry
#      resetcheck annotations; see DESIGN.md "Service layer")
#   2. simd builds and starts serving with -prewarm test
#   3. GET /healthz answers "ok"
#   4. POST /v1/query on the tiny "test" topology returns HTTP 200 with
#      a recommendation, and the same query repeated (warm pool) returns
#      byte-identical bytes
#   5. GET /metrics reflects the queries: executed counter, pool hits,
#      zero misses (the -prewarm flag absorbed the cold start), the
#      simulation-cost gauges (events/packet, warm fabric reuses), and
#      the streaming-reduction gauges (every retained sample a compact
#      report without tile-ratio slices, nonzero retained bytes)
#
# Usage: scripts/smoke.sh [port]   (default 8091)
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-8091}"
addr="127.0.0.1:${port}"
query='{"topology":"test","app":"MILC","nodes":8,"modes":["AD0","AD3"],"runs":2,"seed":42}'

echo "== simlint (service packages) ==" >&2
go run ./cmd/simlint ./internal/service ./internal/parallel ./cmd/simd

echo "== build ==" >&2
go build -o /tmp/simd-smoke ./cmd/simd

echo "== boot ==" >&2
/tmp/simd-smoke -listen "$addr" -profile bench -j 2 -prewarm test &
simd_pid=$!
trap 'kill "$simd_pid" 2>/dev/null || true' EXIT

for i in $(seq 1 50); do
	if curl -sf "http://${addr}/healthz" >/dev/null 2>&1; then
		break
	fi
	if ! kill -0 "$simd_pid" 2>/dev/null; then
		echo "simd exited before serving" >&2
		exit 1
	fi
	sleep 0.2
done

echo "== healthz ==" >&2
health=$(curl -sf "http://${addr}/healthz")
[[ "$health" == "ok" ]] || { echo "healthz said: $health" >&2; exit 1; }

echo "== query (cold) ==" >&2
cold=$(curl -sf -X POST "http://${addr}/v1/query" -d "$query")
grep -q '"recommended"' <<<"$cold" || { echo "no recommendation in: $cold" >&2; exit 1; }

echo "== query (warm, must be byte-identical) ==" >&2
warm=$(curl -sf -X POST "http://${addr}/v1/query" -d "$query")
if [[ "$cold" != "$warm" ]]; then
	echo "warm-pool response differs from cold:" >&2
	diff <(echo "$cold") <(echo "$warm") >&2 || true
	exit 1
fi

echo "== metrics ==" >&2
metrics=$(curl -sf "http://${addr}/metrics")
grep -q '^simd_queries_executed_total 2$' <<<"$metrics" || {
	echo "metrics did not count 2 executions:" >&2
	echo "$metrics" >&2
	exit 1
}
grep -q '^simd_pool_hits_total [1-9]' <<<"$metrics" || {
	echo "second query never hit the warm pool:" >&2
	echo "$metrics" >&2
	exit 1
}
grep -q '^simd_pool_misses_total 0$' <<<"$metrics" || {
	echo "-prewarm test did not absorb the cold start (expected 0 misses):" >&2
	echo "$metrics" >&2
	exit 1
}
grep -q '^simd_pool_prewarmed_total 2$' <<<"$metrics" || {
	echo "prewarm counter missing or wrong (expected 2 for -j 2):" >&2
	echo "$metrics" >&2
	exit 1
}
grep -Eq '^simd_events_per_packet [1-9][0-9]*(\.[0-9]+)?$' <<<"$metrics" || {
	echo "events_per_packet missing or zero after executed queries:" >&2
	echo "$metrics" >&2
	exit 1
}
grep -q '^simd_machine_warm_reuses_total [1-9]' <<<"$metrics" || {
	echo "no warm fabric reuses recorded on a prewarmed pool:" >&2
	echo "$metrics" >&2
	exit 1
}
grep -q '^simd_machine_cold_builds_total 0$' <<<"$metrics" || {
	echo "serving path built fabrics cold despite -prewarm:" >&2
	echo "$metrics" >&2
	exit 1
}
# 2 executions x 2 runs x 2 modes: every sample must come back as a
# compact report (tile-ratio slices dropped in the fold).
grep -q '^simd_samples_reduced_total 8$' <<<"$metrics" || {
	echo "expected all 8 samples reduced to compact digests:" >&2
	echo "$metrics" >&2
	exit 1
}
grep -q '^simd_retained_digest_bytes [1-9]' <<<"$metrics" || {
	echo "retained digest bytes missing or zero:" >&2
	echo "$metrics" >&2
	exit 1
}

kill "$simd_pid"
wait "$simd_pid" 2>/dev/null || true
trap - EXIT
echo "smoke clean" >&2
