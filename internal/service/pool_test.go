package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPoolCheckoutCheckin exercises the pool's bookkeeping: cold
// checkouts miss, checkins park, warm checkouts hit LIFO (warmest
// first), and the per-key cap discards the overflow.
func TestPoolCheckoutCheckin(t *testing.T) {
	p := NewMachinePool(2)
	m1, err := p.Checkout("test")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.Checkout("test")
	if err != nil {
		t.Fatal(err)
	}
	m3, err := p.Checkout("test")
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Misses != 3 || s.Hits != 0 || s.Live != 3 {
		t.Fatalf("after 3 cold checkouts: %+v", s)
	}

	p.Checkin(m1)
	p.Checkin(m2)
	p.Checkin(m3) // over cap 2: discarded
	s := p.Stats()
	if s.Idle != 2 || s.Discarded != 1 || s.Live != 0 {
		t.Fatalf("after 3 checkins with cap 2: %+v", s)
	}

	got, err := p.Checkout("test")
	if err != nil {
		t.Fatal(err)
	}
	if got != m2 {
		t.Errorf("checkout is not LIFO: got %p, want most recently parked %p", got, m2)
	}
	if s := p.Stats(); s.Hits != 1 {
		t.Fatalf("warm checkout should hit: %+v", s)
	}
}

// TestPoolWarmCycleAllocFree pins the pool's per-query overhead on the
// warm path: on a prewarmed key, a Checkout served from the idle list
// followed by its Checkin allocates nothing — the idle slice keeps its
// capacity and the in-use map reuses its slot.
func TestPoolWarmCycleAllocFree(t *testing.T) {
	p := NewMachinePool(2)
	if err := p.Prewarm("test", 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m, err := p.Checkout("test")
		if err != nil {
			t.Fatal(err)
		}
		p.Checkin(m)
	})
	if allocs != 0 {
		t.Errorf("warm Checkout+Checkin allocates %.1f objects per cycle, want 0", allocs)
	}
	if s := p.Stats(); s.Misses != 0 || s.Hits != 101 {
		t.Errorf("every checkout should be a warm hit: %+v", s)
	}
}

// TestPoolPrewarm pins the prewarm contract: prewarmed machines are
// parked idle with their fabric already constructed, the first checkout
// against the key is a pool hit (not a miss), and the first run on that
// machine takes the warm rewind path — the entire point of paying
// construction at boot instead of inside the first request's latency.
func TestPoolPrewarm(t *testing.T) {
	p := NewMachinePool(4)
	if err := p.Prewarm("test", 2); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Prewarmed != 2 || s.Idle != 2 || s.Misses != 0 || s.Hits != 0 {
		t.Fatalf("after prewarm(2): %+v", s)
	}

	m, err := p.Checkout("test")
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("first checkout after prewarm should hit: %+v", s)
	}
	// The prewarmed machine's fabric exists already (one cold build on
	// the books); its first real run must reuse it warm.
	if warm, cold := m.ReuseStats(); warm != 0 || cold != 1 {
		t.Fatalf("prewarmed machine reuse stats = warm %d cold %d, want 0/1", warm, cold)
	}
	m.Prewarm() // idempotent: already warm, builds and counts nothing
	if warm, cold := m.ReuseStats(); warm != 0 || cold != 1 {
		t.Fatalf("re-prewarm changed the books: warm %d cold %d, want 0/1", warm, cold)
	}

	// Prewarm tops up to n, counting machines already idle; unknown
	// topologies fail like any other build.
	p.Checkin(m)
	if err := p.Prewarm("test", 3); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Idle != 3 || s.Prewarmed != 3 {
		t.Fatalf("top-up prewarm: %+v", s)
	}
	if err := p.Prewarm("summit", 1); err == nil {
		t.Fatal("prewarm of unknown topology did not fail")
	}
}

// TestPoolKeysAreIsolated checks machines park under their own topology
// key: a warm "test" machine must never satisfy a "theta-mini" query.
func TestPoolKeysAreIsolated(t *testing.T) {
	p := NewMachinePool(4)
	m, err := p.Checkout("test")
	if err != nil {
		t.Fatal(err)
	}
	p.Checkin(m)

	if _, err := p.Checkout("theta-mini"); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("cross-key checkout must miss: %+v", s)
	}
}

// TestPoolDoubleCheckinPanics pins the double-handout gate: returning a
// machine the pool does not consider live is a bug in the caller, and
// the pool refuses to continue rather than hand the same machine to two
// queries later.
func TestPoolDoubleCheckinPanics(t *testing.T) {
	p := NewMachinePool(4)
	m, err := p.Checkout("test")
	if err != nil {
		t.Fatal(err)
	}
	p.Checkin(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double checkin did not panic")
		}
	}()
	p.Checkin(m)
}

// TestPoolUnknownKey checks Checkout surfaces a build error for a key
// with no registered topology instead of panicking.
func TestPoolUnknownKey(t *testing.T) {
	p := NewMachinePool(4)
	if _, err := p.Checkout("no-such-topology"); err == nil {
		t.Fatal("checkout of unknown key succeeded")
	}
}

// TestTenantLimitReturns429 holds one query in flight at the test hook
// and checks that the same tenant's next query is rejected immediately
// with 429 while a different tenant is admitted (and coalesces onto the
// in-flight execution).
func TestTenantLimitReturns429(t *testing.T) {
	cfg := testConfig()
	cfg.TenantLimit = 1
	srv := New(cfg)
	h := srv.Handler()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.testHookExecuting = func(string) {
		entered <- struct{}{}
		<-release
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if status, resp := post(t, h, canonicalBody); status != http.StatusOK {
			t.Errorf("leader: status %d: %s", status, resp)
		}
	}()
	<-entered

	// Same tenant ("default"), limit 1: immediate 429, no queueing.
	status, body := post(t, h, canonicalBody)
	if status != http.StatusTooManyRequests {
		t.Errorf("same-tenant status = %d, want 429; body:\n%s", status, body)
	}

	// A different tenant is admitted; identical query, so it coalesces
	// onto the held execution rather than deadlocking on the hook.
	otherTenant := canonicalBody[:len(canonicalBody)-1] + `,"tenant":"other"}`
	wg.Add(1)
	go func() {
		defer wg.Done()
		if status, resp := post(t, h, otherTenant); status != http.StatusOK {
			t.Errorf("other tenant: status %d: %s", status, resp)
		}
	}()
	key := mustDecode(t, canonicalBody).Key()
	waitForWaiters(t, srv, key, 1)
	close(release)
	wg.Wait()

	if m := snapshotMetrics(srv); m.executed != 1 {
		t.Errorf("executed = %d, want 1", m.executed)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "simd_requests_rejected_tenant_total 1") {
		t.Errorf("metrics missing tenant rejection:\n%s", rec.Body.String())
	}
}
