package service

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
	"time"
)

// The service determinism gate: one canonical request must produce
// byte-identical response bodies under every execution condition a
// production deployment mixes freely — pool cold or warm, ensemble
// fan-out 1 or 8, executed solo or coalesced with concurrent
// duplicates. This is the service-path extension of
// internal/experiments/determinism_test.go: those tests pin the sample
// slices; these pin the rendered bytes a client actually sees, through
// the full decode → admit → coalesce → pool → simulate → marshal
// pipeline. All of them run unconditionally in CI.

// TestDeterminismColdVsWarmPool replays the canonical query against one
// server twice, cold pool (machines built fresh) then warm pool (machines
// rewound in place), and once more against a fresh server. Any state
// leaking through Machine.Reset shows up as a byte diff here.
func TestDeterminismColdVsWarmPool(t *testing.T) {
	srv := New(testConfig())
	h := srv.Handler()

	cold := mustPost(t, h, canonicalBody)
	if s := srv.PoolStats(); s.Misses == 0 || s.Hits != 0 {
		t.Fatalf("first query should be all misses: %+v", s)
	}

	warm := mustPost(t, h, canonicalBody)
	if s := srv.PoolStats(); s.Hits == 0 {
		t.Fatalf("second query should hit the warm pool: %+v", s)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("cold-pool and warm-pool responses differ:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}

	recold := mustPost(t, New(testConfig()).Handler(), canonicalBody)
	if !bytes.Equal(cold, recold) {
		t.Errorf("fresh server's response differs from the original cold response")
	}
}

// TestDeterminismWorkers1Vs8 answers the canonical query on two servers
// whose only difference is the per-query fan-out. The ensemble merges
// results in seed order, so the bytes must agree.
func TestDeterminismWorkers1Vs8(t *testing.T) {
	cfg1 := testConfig()
	cfg1.Workers = 1
	cfg8 := testConfig()
	cfg8.Workers = 8

	seq := mustPost(t, New(cfg1).Handler(), canonicalBody)
	par := mustPost(t, New(cfg8).Handler(), canonicalBody)
	if !bytes.Equal(seq, par) {
		t.Errorf("workers=1 and workers=8 responses differ:\n--- w1 ---\n%s--- w8 ---\n%s", seq, par)
	}
}

// TestKeySeparatesUtilizations pins that the coalescing key tells apart
// backgrounds that differ only past the sixth significant digit: a
// shared key would hand one query the other's response, whose echoed
// background.utilization is wrong.
func TestKeySeparatesUtilizations(t *testing.T) {
	body := func(u string) string {
		return `{"topology":"test","app":"MILC","nodes":8,"runs":1,"background":{"utilization":` + u + `}}`
	}
	a, b := mustDecode(t, body("0.1234567")), mustDecode(t, body("0.1234568"))
	if a.BGUtil == b.BGUtil {
		t.Fatalf("decoded utilizations are equal: %v", a.BGUtil)
	}
	if a.Key() == b.Key() {
		t.Fatalf("distinct utilizations share coalescing key %q", a.Key())
	}
	if a.Key() != mustDecode(t, body("0.1234567")).Key() {
		t.Fatal("equal utilizations produced different keys")
	}
}

// TestDeterminismSoloVsCoalesced holds one execution of the canonical
// query at a test hook, piles concurrent duplicates (from distinct
// tenants) onto it, and checks that every coalesced response is
// byte-identical to a solo execution on a fresh server — plus that the
// ensemble really ran once for all of them.
func TestDeterminismSoloVsCoalesced(t *testing.T) {
	solo := mustPost(t, New(testConfig()).Handler(), canonicalBody)

	const followers = 4
	srv := New(testConfig())
	h := srv.Handler()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHookExecuting = func(string) {
		entered <- struct{}{}
		<-release
	}

	results := make([][]byte, followers+1)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Distinct tenants: coalescing must be invisible to tenancy.
			body := canonicalBody[:len(canonicalBody)-1] + `,"tenant":"t` + string(rune('a'+i)) + `"}`
			status, resp := post(t, h, body)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, resp)
			}
			results[i] = resp
		}()
	}

	launch(0) // leader
	<-entered // leader is inside the execution, coalescer registered
	for i := 1; i <= followers; i++ {
		launch(i)
	}
	// Wait until every follower is parked on the leader's execution, then
	// let it proceed — so the coalescing is certain, not schedule-lucky.
	key := mustDecode(t, canonicalBody).Key()
	waitForWaiters(t, srv, key, followers)
	close(release)
	wg.Wait()

	for i, resp := range results {
		if !bytes.Equal(resp, solo) {
			t.Errorf("request %d differs from solo execution:\n--- coalesced ---\n%s--- solo ---\n%s", i, resp, solo)
		}
	}
	m := snapshotMetrics(srv)
	if m.executed != 1 {
		t.Errorf("executed = %d ensembles, want 1 (the whole point of coalescing)", m.executed)
	}
	if m.coalesced != followers {
		t.Errorf("coalesced = %d, want %d", m.coalesced, followers)
	}
}

// mustDecode normalizes a request body or fails the test.
func mustDecode(t *testing.T, body string) Query {
	t.Helper()
	q, err := DecodeRequest([]byte(body), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// waitForWaiters spins until n followers are parked on key's in-flight
// execution.
func waitForWaiters(t *testing.T, srv *Server, key string, n int) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if srv.coal.waitersFor(key) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d coalesced waiters on %q", n, key)
}

// snapshotMetrics copies the counters under the lock.
func snapshotMetrics(srv *Server) metrics {
	srv.metrics.mu.Lock()
	defer srv.metrics.mu.Unlock()
	return metrics{
		requests:  srv.metrics.requests,
		coalesced: srv.metrics.coalesced,
		executed:  srv.metrics.executed,
	}
}
