package service

import (
	"sync"

	"repro/internal/core"
	"repro/internal/topology"
)

// MachinePool keeps warm core.Machines keyed by topology configuration.
// A checked-in machine retains its kernel/fabric pair, so the next query
// against the same topology rewinds it in place (core.Machine's warm
// path) instead of rebuilding — construction is half the allocation
// volume of a run, and skipping it is what makes per-query marginal cost
// nearly free for a long-lived daemon.
//
// Correctness leans on two invariants, both machine-checked:
//   - a machine is never live in two requests at once (Checkout/Checkin
//     panic on double handout; the soak test hammers this under -race);
//   - a warm machine is behaviourally identical to a cold one
//     (core.Machine's reset-equivalence tests, plus this package's
//     cold-vs-warm byte-identity test on the full HTTP path).
type MachinePool struct {
	mu sync.Mutex //simlint:resetsafe synchronization primitive, never rewound
	// keyCap bounds the idle machines retained per key; extra checkins
	// are discarded so one burst cannot pin memory forever.
	keyCap int //simlint:resetsafe configuration; Reset discards machines, not limits
	free   map[string][]*core.Machine
	// inUse maps every checked-out machine to its key: the double-
	// handout detector and the checkin validator.
	inUse map[*core.Machine]string //simlint:resetsafe live machines keep their checkout identity across Reset

	hits, misses, discarded, prewarmed uint64
}

// PoolStats is a point-in-time snapshot of pool activity.
type PoolStats struct {
	Hits      uint64 // checkouts served by a warm machine
	Misses    uint64 // checkouts that had to build a machine
	Discarded uint64 // checkins dropped because the key was at capacity
	Prewarmed uint64 // machines built ahead of demand by Prewarm
	Idle      int    // machines currently parked
	Live      int    // machines currently checked out
}

// HitRate returns Hits/(Hits+Misses), 0 before the first checkout.
func (s PoolStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewMachinePool builds a pool retaining up to keyCap idle machines per
// topology key.
func NewMachinePool(keyCap int) *MachinePool {
	if keyCap < 1 {
		keyCap = 1
	}
	return &MachinePool{
		keyCap: keyCap,
		free:   make(map[string][]*core.Machine),
		inUse:  make(map[*core.Machine]string),
	}
}

// Checkout hands out one machine for the topology key, preferring the
// most recently parked (warmest) machine and building a fresh one on a
// pool miss. The caller must Checkin the machine when its query
// completes, success or failure.
//
//simlint:hotpath
func (p *MachinePool) Checkout(key string) (*core.Machine, error) {
	p.mu.Lock()
	if free := p.free[key]; len(free) > 0 {
		m := free[len(free)-1]
		p.free[key] = free[:len(free)-1]
		if _, live := p.inUse[m]; live {
			badCheckout()
		}
		p.inUse[m] = key
		p.hits++
		p.mu.Unlock()
		return m, nil
	}
	p.misses++
	p.mu.Unlock()

	// Build outside the lock: construction is the expensive path, and
	// concurrent misses for different keys shouldn't serialize on it.
	m, err := buildMachine(key)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.inUse[m] = key
	p.mu.Unlock()
	return m, nil
}

// Prewarm parks up to n freshly built, fabric-constructed machines for
// key before any query asks for them, so the first checkout is a pool
// hit and its run rewinds a warm fabric instead of building one. The
// count is clamped to the pool's per-key capacity and reduced by
// machines already idle under the key; prewarm builds are tallied in
// PoolStats.Prewarmed, not Misses — a miss means demand arrived cold,
// which is exactly what prewarming exists to prevent.
func (p *MachinePool) Prewarm(key string, n int) error {
	p.mu.Lock()
	if n > p.keyCap {
		n = p.keyCap
	}
	n -= len(p.free[key])
	p.mu.Unlock()
	for i := 0; i < n; i++ {
		// Build outside the lock, like the miss path: construction and
		// fabric prewarming dominate, and concurrent checkouts for other
		// keys shouldn't stall behind a boot-time warmup.
		m, err := buildMachine(key)
		if err != nil {
			return err
		}
		m.Prewarm()
		p.mu.Lock()
		if len(p.free[key]) >= p.keyCap {
			p.discarded++
		} else {
			p.free[key] = append(p.free[key], m)
			p.prewarmed++
		}
		p.mu.Unlock()
	}
	return nil
}

// CheckoutN checks out n machines for one key, unwinding on failure.
func (p *MachinePool) CheckoutN(key string, n int) ([]*core.Machine, error) {
	machines := make([]*core.Machine, 0, n)
	for i := 0; i < n; i++ {
		m, err := p.Checkout(key)
		if err != nil {
			p.CheckinAll(machines)
			return nil, err
		}
		machines = append(machines, m)
	}
	return machines, nil
}

// Checkin parks a machine back in the pool (or discards it when the key
// already holds keyCap idle machines). Checking in a machine that is not
// currently checked out is a caller bug and panics.
//
//simlint:hotpath
func (p *MachinePool) Checkin(m *core.Machine) {
	p.mu.Lock()
	key, live := p.inUse[m]
	if !live {
		badCheckin()
	}
	delete(p.inUse, m)
	if len(p.free[key]) >= p.keyCap {
		p.discarded++
		p.mu.Unlock()
		return
	}
	p.free[key] = append(p.free[key], m)
	p.mu.Unlock()
}

// CheckinAll parks every machine in ms.
func (p *MachinePool) CheckinAll(ms []*core.Machine) {
	for _, m := range ms {
		p.Checkin(m)
	}
}

// Stats snapshots the pool counters.
func (p *MachinePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := 0
	for _, free := range p.free { //simlint:allow detrand order-insensitive sum
		idle += len(free)
	}
	return PoolStats{
		Hits: p.hits, Misses: p.misses, Discarded: p.discarded,
		Prewarmed: p.prewarmed,
		Idle:      idle, Live: len(p.inUse),
	}
}

// Reset discards all idle machines and zeroes the counters. With no
// queries in flight (the only state tests call it in) every subsequent
// checkout is cold; a machine still live across a Reset keeps its
// checkout identity and parks normally at its checkin. Serving never
// needs Reset — tests use it as the explicit cold path.
func (p *MachinePool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = make(map[string][]*core.Machine)
	p.hits, p.misses, p.discarded, p.prewarmed = 0, 0, 0, 0
}

// buildMachine constructs a fresh machine for a pool key (a validated
// topology name — DecodeRequest only admits names topology.ByName
// knows).
//
//simlint:cold pool-miss construction path; fabric build dominates any formatting
func buildMachine(key string) (*core.Machine, error) {
	cfg, err := topology.ByName(key)
	if err != nil {
		return nil, errUnknownPoolKey(key)
	}
	return core.NewMachine(cfg)
}

// Cold panic/error helpers, outlined so the annotated hot paths stay
// free of boxing and formatting.

func badCheckout() {
	panic("service: pool handed out a machine that is already live")
}

func badCheckin() {
	panic("service: checkin of a machine that was never checked out")
}

func errUnknownPoolKey(key string) error {
	return &unknownPoolKeyError{key: key}
}

type unknownPoolKeyError struct{ key string }

func (e *unknownPoolKeyError) Error() string {
	return "service: unknown pool key " + e.key
}
