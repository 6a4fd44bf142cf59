package service

import (
	"fmt"
	"strings"
	"sync"
)

// metrics aggregates serving observability: everything wall-clock or
// load-dependent lives here, exposed on /metrics only, never in a query
// response (which must stay a deterministic function of the query).
// The exposition format is Prometheus-compatible text.
type metrics struct {
	mu sync.Mutex

	requests       uint64  // POST /v1/query requests received
	clientErrors   uint64  // rejected with 4xx (validation, limits)
	serverErrors   uint64  // failed with 5xx
	coalesced      uint64  // requests served by riding another execution
	executed       uint64  // ensembles actually simulated
	rejectedTenant uint64  // 429s from the per-tenant cap
	queueDepth     int64   // requests currently inside the handler
	latencySum     float64 // seconds spent executing ensembles
	latencyCount   uint64
	latencyMax     float64

	// Simulation-cost counters, aggregated over every executed run:
	// kernel events and delivered packets (their ratio is the
	// events-per-packet figure link fusion drives down), and how many
	// runs rewound a warm fabric versus building one cold.
	simEvents  uint64
	simPackets uint64
	warmReuses uint64
	coldBuilds uint64

	// Streaming-reduction counters: how many samples came back compact
	// (report kept without its tile-ratio slices) and the retained size of
	// those compact reports in bytes — the O(runs)-vs-O(workers) memory
	// story made observable. The gauge keeps its historical
	// retained_digest_bytes name.
	samplesReduced uint64
	digestBytes    uint64
}

func (m *metrics) requestStart() {
	m.mu.Lock()
	m.requests++
	m.queueDepth++
	m.mu.Unlock()
}

func (m *metrics) requestEnd(status int) {
	m.mu.Lock()
	m.queueDepth--
	switch {
	case status == 429:
		m.rejectedTenant++
		m.clientErrors++
	case status >= 400 && status < 500:
		m.clientErrors++
	case status >= 500:
		m.serverErrors++
	}
	m.mu.Unlock()
}

func (m *metrics) recordCoalesced() {
	m.mu.Lock()
	m.coalesced++
	m.mu.Unlock()
}

func (m *metrics) recordExecution(seconds float64) {
	m.mu.Lock()
	m.executed++
	m.latencySum += seconds
	m.latencyCount++
	if seconds > m.latencyMax {
		m.latencyMax = seconds
	}
	m.mu.Unlock()
}

func (m *metrics) recordSim(events, packets, warmReuses, coldBuilds uint64) {
	m.mu.Lock()
	m.simEvents += events
	m.simPackets += packets
	m.warmReuses += warmReuses
	m.coldBuilds += coldBuilds
	m.mu.Unlock()
}

func (m *metrics) recordReduced(samples, bytes uint64) {
	m.mu.Lock()
	m.samplesReduced += samples
	m.digestBytes += bytes
	m.mu.Unlock()
}

// render writes the exposition text. Pool stats are passed in so the
// metrics page is one consistent snapshot.
func (m *metrics) render(pool PoolStats) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	line := func(name string, format string, v any) {
		fmt.Fprintf(&b, "simd_%s "+format+"\n", name, v)
	}
	line("requests_total", "%d", m.requests)
	line("requests_coalesced_total", "%d", m.coalesced)
	line("requests_rejected_tenant_total", "%d", m.rejectedTenant)
	line("request_errors_client_total", "%d", m.clientErrors)
	line("request_errors_server_total", "%d", m.serverErrors)
	line("queries_executed_total", "%d", m.executed)
	line("queue_depth", "%d", m.queueDepth)
	line("pool_hits_total", "%d", pool.Hits)
	line("pool_misses_total", "%d", pool.Misses)
	line("pool_discarded_total", "%d", pool.Discarded)
	line("pool_prewarmed_total", "%d", pool.Prewarmed)
	line("pool_idle_machines", "%d", pool.Idle)
	line("pool_live_machines", "%d", pool.Live)
	line("pool_hit_rate", "%g", pool.HitRate())
	line("sim_events_total", "%d", m.simEvents)
	line("sim_packets_delivered_total", "%d", m.simPackets)
	epp := 0.0
	if m.simPackets > 0 {
		epp = float64(m.simEvents) / float64(m.simPackets)
	}
	line("events_per_packet", "%g", epp)
	line("machine_warm_reuses_total", "%d", m.warmReuses)
	line("machine_cold_builds_total", "%d", m.coldBuilds)
	line("samples_reduced_total", "%d", m.samplesReduced)
	line("retained_digest_bytes", "%d", m.digestBytes)
	line("query_latency_seconds_count", "%d", m.latencyCount)
	line("query_latency_seconds_sum", "%g", m.latencySum)
	line("query_latency_seconds_max", "%g", m.latencyMax)
	return b.String()
}
