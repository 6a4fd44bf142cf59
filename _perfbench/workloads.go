package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ldms"
	"repro/internal/service"
	"repro/internal/sim"
)

// workload is one named, fixed op sequence. Op i of a run simulates seed
// wseed+i; the nominal rate only sets how many ops a run of a given length
// holds, so both sides of a comparison simulate exactly the same seeds.
type workload struct {
	name string
	// rate is the nominal ops per second on the reference host (2-vCPU
	// VM, go1.24); ops per run = ceil(seconds × rate).
	rate  float64
	setup func() (instance, error)
}

// instance is one workload's built system: a served simd or a Theta
// machine. op runs one operation and returns the bytes its output digest
// is taken over; counts returns the exact cumulative counters visible
// from outside the program.
type instance interface {
	op(seed int64, tr *tracer) ([]byte, error)
	counts() (map[string]float64, error)
	close()
}

// The simd workloads' query: MILC on 16 theta-mini nodes comparing AD0
// with AD3, one seeded run per mode. prodQuery keeps the service's default
// 75% production background; idleQuery runs on an otherwise idle machine.
const (
	prodQuery = `{"app":"MILC","nodes":16,"modes":["AD0","AD3"],"runs":1,"seed":%d}`
	idleQuery = `{"app":"MILC","nodes":16,"modes":["AD0","AD3"],"runs":1,"seed":%d,"background":{"utilization":0}}`
)

// Why each workload is in the benchmark: whatif-prod is the paper's
// scenario, a what-if query whose routing load queries run under the
// default 75% production background. whatif-idle shares its code on an
// uncontended fabric, so per-query fixed cost and proc handoff are a larger
// share, and it is the only workload with enough ops for a tail percentile.
// theta-full is a production window on full-size Theta with 11x
// theta-mini's working set, where fabric layout and event-queue depth show;
// it never calls the service layer.
var workloads = []workload{
	{name: "whatif-prod", rate: 0.8, setup: func() (instance, error) { return newSimd(prodQuery) }},
	{name: "whatif-idle", rate: 17, setup: func() (instance, error) { return newSimd(idleQuery) }},
	{name: "theta-full", rate: 0.5, setup: newTheta},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// simd serves a fresh service.Server on a loopback listener; the client
// holds one keep-alive connection (a closed loop with one client).
type simd struct {
	handler  http.Handler
	hs       *http.Server
	served   chan struct{}
	base     string
	client   *http.Client
	template string // request body with one %d for the seed
	// tr is the tracer of the op in flight, read by the server-side
	// handler to record its span (nil when untraced).
	tr atomic.Pointer[tracer]
}

func newSimd(template string) (instance, error) {
	srv := service.New(service.Config{Profile: experiments.Bench(), Workers: 1})
	if err := srv.Prewarm([]string{"theta-mini"}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &simd{
		served:   make(chan struct{}),
		base:     "http://" + ln.Addr().String(),
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		template: template,
	}
	s.handler = srv.Handler()
	s.hs = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // http.ErrServerClosed once close runs; other failures fail the ops
	}()
	return s, nil
}

// handle forwards to the daemon's routes, recording a service span when
// the op in flight is traced.
func (s *simd) handle(w http.ResponseWriter, r *http.Request) {
	if tr := s.tr.Load(); tr != nil {
		defer tr.record(tr.current(), "service.Handler", time.Now())
	}
	s.handler.ServeHTTP(w, r)
}

func (s *simd) request(seed int64) []byte {
	return []byte(fmt.Sprintf(s.template, seed))
}

func (s *simd) op(seed int64, tr *tracer) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/query", bytes.NewReader(s.request(seed)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	s.tr.Store(tr)
	defer s.tr.Store(nil)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// counts scrapes /metrics into name → value (simd_ prefix dropped).
func (s *simd) counts() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[strings.TrimPrefix(name, "simd_")] = v
	}
	return out, nil
}

func (s *simd) close() {
	s.hs.Close()
	<-s.served
	s.client.CloseIdleConnections()
}

// Theta campaign parameters: a fixed virtual window under the paper's
// production background, sampled by streaming LDMS.
const (
	thetaWindow = 100 * sim.Microsecond
	ldmsPeriod  = 20 * sim.Microsecond
)

type theta struct {
	m     *core.Machine
	flits uint64
}

func newTheta() (instance, error) {
	m, err := core.Theta()
	if err != nil {
		return nil, err
	}
	m.Prewarm()
	return &theta{m: m}, nil
}

// campaignDigest is the model output of one campaign: every field of
// CampaignResult that the physics determines.
type campaignDigest struct {
	Duration       sim.Time
	Flits          []uint64
	Stalls         []float64
	Windows        int
	WindowFlits    []uint64
	RatioCount     int
	RatioMean      float64
	RatioQuartiles []float64
}

func (t *theta) op(seed int64, tr *tracer) ([]byte, error) {
	start := time.Now()
	res, err := t.m.RunCampaign(thetaWindow, *core.DefaultBackground(),
		ldms.Options{Period: ldmsPeriod, RecordRouterRatios: true, Stream: true}, seed)
	if tr != nil {
		tr.record(tr.current(), "core.RunCampaign", start)
	}
	if err != nil {
		return nil, err
	}
	d := campaignDigest{
		Duration:   res.Duration,
		Flits:      res.Global.Flits[:],
		Stalls:     res.Global.Stalls[:],
		Windows:    len(res.LDMS.Samples()),
		RatioCount: res.LDMS.RouterRatioAgg().Count(),
		RatioMean:  res.LDMS.RouterRatioAgg().Mean(),
	}
	for _, s := range res.LDMS.Samples() {
		d.WindowFlits = append(d.WindowFlits, s.Totals.TotalFlits())
	}
	d.RatioQuartiles = res.LDMS.RouterRatioAgg().Percentiles([]float64{25, 50, 75})
	t.flits += res.Global.TotalFlits()
	return json.Marshal(d)
}

func (t *theta) counts() (map[string]float64, error) {
	warm, cold := t.m.ReuseStats()
	return map[string]float64{
		"flits_total":               float64(t.flits),
		"machine_warm_reuses_total": float64(warm),
		"machine_cold_builds_total": float64(cold),
	}, nil
}

func (t *theta) close() {}
