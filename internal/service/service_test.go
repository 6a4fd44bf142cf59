package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// Service tests run at the Bench profile on the tiny "test" dragonfly:
// the smallest scale that still drives placement, background noise,
// adaptive routing, and the counter machinery end to end. The profile is
// deliberately NOT -short-sensitive — golden bytes must not depend on
// test flags.

// testConfig returns the baseline server config for tests.
func testConfig() Config {
	return Config{Profile: experiments.Bench(), Workers: 2}
}

// canonicalBody is the fixed request the determinism gate replays under
// every execution condition.
const canonicalBody = `{"topology":"test","app":"MILC","nodes":8,"modes":["AD0","AD3"],"runs":2,"seed":42}`

// post drives one query through the handler and returns status and body.
func post(t *testing.T, h http.Handler, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// mustPost is post asserting HTTP 200.
func mustPost(t *testing.T, h http.Handler, body string) []byte {
	t.Helper()
	status, resp := post(t, h, body)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body:\n%s", status, resp)
	}
	return resp
}

// TestEndToEndOverHTTP exercises the daemon through a real listener:
// health probe, one query, and the metrics page reflecting it.
func TestEndToEndOverHTTP(t *testing.T) {
	srv := New(testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if status, body := get("/healthz"); status != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", status, body)
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(canonicalBody))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body:\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"recommended"`) {
		t.Fatalf("response missing recommendation:\n%s", body)
	}

	status, metrics := get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	for _, want := range []string{
		"simd_requests_total 1",
		"simd_queries_executed_total 1",
		"simd_pool_misses_total 2", // workers=2, cold pool
		"simd_pool_prewarmed_total 0",
		"simd_queue_depth 0",
		"simd_query_latency_seconds_count 1",
		"simd_sim_events_total ",
		"simd_sim_packets_delivered_total ",
		"simd_events_per_packet ",
		"simd_machine_warm_reuses_total ",
		"simd_machine_cold_builds_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// One executed query must leave real simulation cost on the page:
	// zero events, packets, or events/packet means the plumbing from
	// RunResult through Sample to /metrics is severed.
	for _, zero := range []string{
		"simd_sim_events_total 0\n",
		"simd_sim_packets_delivered_total 0\n",
		"simd_events_per_packet 0\n",
	} {
		if strings.Contains(metrics, zero) {
			t.Errorf("metrics shows %q after an executed query:\n%s", strings.TrimSpace(zero), metrics)
		}
	}
}

// TestPrewarmServesFirstQueryWarm drives a query into a prewarmed
// server: every checkout must be a pool hit, every run must rewind a
// warm fabric (zero cold builds during serving), and — the part that
// makes prewarming safe to ship — the response bytes must be identical
// to a cold server's.
func TestPrewarmServesFirstQueryWarm(t *testing.T) {
	cold := New(testConfig())
	coldResp := mustPost(t, cold.Handler(), canonicalBody)

	srv := New(testConfig())
	if err := srv.Prewarm([]string{"test"}); err != nil {
		t.Fatal(err)
	}
	if s := srv.PoolStats(); s.Prewarmed != 2 || s.Idle != 2 { // Workers=2
		t.Fatalf("after Prewarm: %+v", s)
	}

	warmResp := mustPost(t, srv.Handler(), canonicalBody)
	if string(warmResp) != string(coldResp) {
		t.Errorf("prewarmed response differs from cold response:\nwarm: %s\ncold: %s",
			warmResp, coldResp)
	}
	s := srv.PoolStats()
	if s.Hits != 2 || s.Misses != 0 {
		t.Fatalf("first query on prewarmed pool should be all hits: %+v", s)
	}

	// 2 runs x 2 modes on fabric-prewarmed machines: 4 warm rewinds,
	// no cold builds inside the serving path.
	metrics := srv.metrics.render(srv.PoolStats())
	for _, want := range []string{
		"simd_pool_prewarmed_total 2",
		"simd_machine_warm_reuses_total 4",
		"simd_machine_cold_builds_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	if err := srv.Prewarm([]string{"no-such-topology"}); err == nil {
		t.Fatal("Prewarm accepted an unknown topology")
	}
}

// TestRequestValidationStatusCodes pins the 4xx surface of the request
// parser on the HTTP path: malformed bodies, absurd sizes, and negative
// seeds must be client errors, never 500s (and never panics — the fuzz
// target covers the long tail).
func TestRequestValidationStatusCodes(t *testing.T) {
	srv := New(testConfig())
	h := srv.Handler()
	cases := []struct {
		name, body string
	}{
		{"empty", ``},
		{"not json", `hello`},
		{"wrong type", `[1,2,3]`},
		{"truncated", `{"app":"MILC"`},
		{"unknown field", `{"app":"MILC","nodes":8,"frobnicate":1}`},
		{"trailing data", canonicalBody + `{"again":true}`},
		{"unknown app", `{"app":"LINPACK","nodes":8}`},
		{"unknown topology", `{"topology":"summit","app":"MILC","nodes":8}`},
		{"zero nodes", `{"topology":"test","app":"MILC","nodes":0}`},
		{"negative nodes", `{"topology":"test","app":"MILC","nodes":-4}`},
		{"absurd nodes", `{"topology":"test","app":"MILC","nodes":1000000000}`},
		{"negative seed", `{"topology":"test","app":"MILC","nodes":8,"seed":-1}`},
		{"negative runs", `{"topology":"test","app":"MILC","nodes":8,"runs":-2}`},
		{"absurd runs", `{"topology":"test","app":"MILC","nodes":8,"runs":1000000}`},
		{"bad mode", `{"topology":"test","app":"MILC","nodes":8,"modes":["AD9"]}`},
		{"duplicate mode", `{"topology":"test","app":"MILC","nodes":8,"modes":["AD0","AD0"]}`},
		{"bad utilization", `{"topology":"test","app":"MILC","nodes":8,"background":{"utilization":1.5}}`},
		{"huge body", `{"app":"MILC","nodes":8,"tenant":"` + strings.Repeat("x", 1<<17) + `"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, h, tc.body)
			if status < 400 || status >= 500 {
				t.Fatalf("status = %d, want 4xx; body:\n%s", status, body)
			}
		})
	}
	if status, _ := post(t, h, `{"topology":"test","app":"MILC","nodes":8,"runs":1,"modes":["AD0"]}`); status != http.StatusOK {
		t.Fatalf("valid request after rejections: status = %d", status)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/query", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query status = %d, want 405", rec.Code)
	}
}

// TestQueryTimeoutReturns504 pins the request-timeout path: a timeout
// that has already expired lets no run dispatch (parallel.ReduceContext's
// caller-cancels contract), and the client sees a 504, not a hang or a
// partial response presented as complete.
func TestQueryTimeoutReturns504(t *testing.T) {
	cfg := testConfig()
	cfg.QueryTimeout = 1 // nanosecond: expired before the first run
	srv := New(cfg)
	status, body := post(t, srv.Handler(), canonicalBody)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body:\n%s", status, body)
	}
	if !strings.Contains(string(body), "timeout") {
		t.Fatalf("body does not mention the timeout:\n%s", body)
	}
}
