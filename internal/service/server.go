package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/topology"
)

// Config assembles one Server. The zero value of any field means its
// default.
type Config struct {
	// Profile sets the simulation scale (iteration counts, message-size
	// scale, warmup). Default: experiments.Quick(). The profile's own
	// Runs/Workers fields are ignored — each query carries its run
	// count, and Workers below sets the fan-out.
	Profile experiments.Profile
	// Workers is the per-query ensemble fan-out: how many machines a
	// query checks out and how many runs simulate concurrently. Response
	// bytes are identical for every value (default 1).
	Workers int
	// PoolCap bounds idle machines retained per topology key
	// (default 2×Workers).
	PoolCap int
	// TenantLimit caps concurrent requests per tenant; 0 means no limit.
	TenantLimit int
	// QueryTimeout bounds one query's simulation time; at the deadline,
	// runs not yet dispatched are abandoned and the request fails with
	// 504 (default 120s; a run already simulating finishes first).
	QueryTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Profile.Name == "" {
		c.Profile = experiments.Quick()
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.PoolCap <= 0 {
		c.PoolCap = 2 * c.Workers
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 120 * time.Second
	}
	return c
}

// Server answers routing what-if queries over HTTP. Create with New,
// mount via Handler.
type Server struct {
	cfg     Config
	pool    *MachinePool
	coal    *coalescer
	limiter *tenantLimiter
	metrics *metrics

	// testHookExecuting, when non-nil, runs at the start of every leader
	// execution (after admission and coalescer registration, before any
	// simulation). Tests use it to hold queries in flight at a known
	// point; serving never sets it.
	testHookExecuting func(key string)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		pool:    NewMachinePool(cfg.PoolCap),
		coal:    newCoalescer(),
		limiter: newTenantLimiter(cfg.TenantLimit),
		metrics: &metrics{},
	}
}

// Handler returns the daemon's HTTP routes: POST /v1/query, GET
// /healthz, GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// PoolStats exposes the machine pool counters (tests and diagnostics).
func (s *Server) PoolStats() PoolStats { return s.pool.Stats() }

// Prewarm builds Workers machines (kernel and fabric included) for each
// named topology before serving, so the first query against each is a
// pool hit running on a warm fabric. Names must be valid request
// topologies; the first unknown name fails the whole call. Intended for
// boot time (simd -prewarm), before the listener accepts traffic.
func (s *Server) Prewarm(names []string) error {
	for _, name := range names {
		if _, err := topology.ByName(name); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
		if err := s.pool.Prewarm(name, s.cfg.Workers); err != nil {
			return fmt.Errorf("prewarm %s: %w", name, err)
		}
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, s.metrics.render(s.pool.Stats()))
}

// handleQuery is the what-if endpoint. Pipeline: decode/validate (400),
// tenant admission (429), coalesce with identical in-flight queries,
// execute the ensemble on pooled machines, answer with the canonical
// response bytes.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestStart()
	status := http.StatusOK
	defer func() { s.metrics.requestEnd(status) }()

	if r.Method != http.MethodPost {
		status = http.StatusMethodNotAllowed
		httpError(w, status, "use POST")
		return
	}
	lim := DefaultLimits()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, lim.MaxBody))
	if err != nil {
		status = http.StatusBadRequest
		httpError(w, status, "read body: "+err.Error())
		return
	}
	q, err := DecodeRequest(body, lim)
	if err != nil {
		status = http.StatusBadRequest
		httpError(w, status, err.Error())
		return
	}

	if !s.limiter.tryAcquire(q.Tenant) {
		status = http.StatusTooManyRequests
		httpError(w, status, fmt.Sprintf("tenant %q at its concurrency limit (%d)",
			q.Tenant, s.cfg.TenantLimit))
		return
	}
	defer s.limiter.release(q.Tenant)

	st, respBody, shared := s.coal.do(q.Key(), func() (int, []byte) {
		return s.execute(q)
	})
	if shared {
		s.metrics.recordCoalesced()
	}
	status = st
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(respBody)
}

// execute runs one query's ensemble as the coalescing leader and renders
// the canonical response bytes. Called at most once per coalesced
// generation.
//
// The timeout context is rooted at Background rather than the leader's
// request context: coalesced followers share this execution, and one
// client's disconnect must not fail the others' answers.
func (s *Server) execute(q Query) (int, []byte) {
	if s.testHookExecuting != nil {
		s.testHookExecuting(q.Key())
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.QueryTimeout)
	defer cancel()

	workers := s.cfg.Workers
	if n := q.Runs * len(q.Modes); workers > n {
		workers = n
	}
	machines, err := s.pool.CheckoutN(q.Topology, workers)
	if err != nil {
		return http.StatusInternalServerError, errorBody("build machine: " + err.Error())
	}
	defer s.pool.CheckinAll(machines)

	// Machine reuse counters are lifetime-monotonic; the delta across
	// this execution (machines are exclusively ours until checkin) is
	// how many of the query's runs rewound a warm fabric vs built cold.
	warmBefore, coldBefore := reuseTotals(machines)

	p := s.cfg.Profile
	p.Runs = q.Runs
	start := time.Now()
	samples, err := p.SamplesOn(ctx, machines, q.App, q.Nodes, q.Modes,
		q.backgroundSpec(), q.Seed)
	s.metrics.recordExecution(time.Since(start).Seconds())

	warmAfter, coldAfter := reuseTotals(machines)
	var events, packets, digestBytes uint64
	for _, smp := range samples {
		events += smp.Events
		packets += smp.Packets
		digestBytes += uint64(smp.Report.MemBytes())
	}
	s.metrics.recordSim(events, packets, warmAfter-warmBefore, coldAfter-coldBefore)
	s.metrics.recordReduced(uint64(len(samples)), digestBytes)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout,
				errorBody(fmt.Sprintf("query exceeded timeout %s", s.cfg.QueryTimeout))
		}
		return http.StatusInternalServerError, errorBody("simulate: " + err.Error())
	}
	return http.StatusOK, marshalResponse(buildResponse(q, samples))
}

// reuseTotals sums the lifetime warm/cold fabric counters across a
// checkout's machines.
func reuseTotals(machines []*core.Machine) (warm, cold uint64) {
	for _, m := range machines {
		w, c := m.ReuseStats()
		warm += w
		cold += c
	}
	return warm, cold
}

// backgroundSpec maps the query's background request onto core's spec;
// nil means an otherwise idle machine.
func (q Query) backgroundSpec() *core.BackgroundSpec {
	if q.BGUtil <= 0 {
		return nil
	}
	bg := core.DefaultBackground()
	bg.TargetUtilization = q.BGUtil
	if q.BGModeSet {
		bg.Env.RoutingMode = q.BGMode
		bg.Env.A2ARoutingMode = q.BGMode
	}
	return bg
}

// httpError writes a JSON error body. Error responses are never
// coalesced targets for byte-identity guarantees, but they are still
// deterministic for a given failure.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(errorBody(msg))
}

// errorBody renders the error JSON.
func errorBody(msg string) []byte {
	return []byte(fmt.Sprintf("{\n  \"error\": %q\n}\n", msg))
}
