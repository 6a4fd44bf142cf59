package sim

// Proc is a coroutine running on the kernel: a goroutine that alternates
// control with the kernel so that exactly one of (kernel, some proc) is
// executing at any instant. Procs give model code (MPI ranks, traffic
// generators) a natural blocking style — Sleep, Wait — on top of the
// event queue, with fully deterministic scheduling.
//
// Everything that hands control to a proc — SpawnAt, Sleep, Signal.Fire —
// schedules one typed event for the kernel's own handler with the proc's
// id as payload, so waking a proc never allocates: Signal.Fire sits on
// the fabric's packet-delivery hot path.
type Proc struct {
	k      *Kernel
	resume chan struct{}
	id     int32 // index in Kernel.procs while live
	done   bool
}

// Kernel returns the kernel this proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.done }

// Spawn starts fn as a new proc at the current virtual time. fn begins
// executing when the kernel reaches the spawn event; Spawn itself returns
// immediately.
func (k *Kernel) Spawn(fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, fn)
}

// SpawnAt starts fn as a new proc at absolute virtual time t.
func (k *Kernel) SpawnAt(t Time, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, resume: make(chan struct{})}
	n := len(k.freeProcs)
	if n > 0 {
		p.id = k.freeProcs[n-1]
	} else {
		p.id = int32(len(k.procs))
	}
	// Schedule the first resume before the id is taken or the goroutine
	// started: AtEvent panics on a t in the past, and then no part of the
	// proc exists, so the kernel stays resettable.
	k.AtEvent(t, procHandler, 0, int64(p.id), 0)
	if n > 0 {
		k.freeProcs = k.freeProcs[:n-1]
		k.procs[p.id] = p
	} else {
		k.procs = append(k.procs, p)
	}
	k.stats.ProcsSpawned++
	//simlint:allow detrand coroutine handoff: exactly one of (kernel, proc) runs at a time, order fixed by the event queue
	go func() {
		<-p.resume // wait for the kernel to hand us control the first time
		fn(p)
		p.done = true
		// Each Sleep and each Fire schedules exactly one resume, so none
		// is pending now and the id is free for the next spawn.
		k.procs[p.id] = nil
		k.freeProcs = append(k.freeProcs, p.id)
		k.parked <- struct{}{} // final handback; never resumed again
	}()
	return p
}

// HandleEvent implements Handler for the kernel's own events: each one
// resumes the proc whose id is a, transferring control from the kernel and
// blocking until the proc parks (or finishes).
func (k *Kernel) HandleEvent(_ uint8, a, _ int64) {
	k.stats.ProcSwitches++
	p := k.procs[a]
	p.resume <- struct{}{}
	<-k.parked
}

// park transfers control from the proc back to the kernel and blocks until
// the kernel resumes this proc again.
func (p *Proc) park() {
	p.k.parked <- struct{}{}
	<-p.resume
}

// Sleep blocks the proc for duration d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Even a zero-length sleep yields: the proc re-enters the event
		// queue so same-time events scheduled earlier run first.
		d = 0
	}
	p.k.AfterEvent(d, procHandler, 0, int64(p.id), 0)
	p.park()
}

// Wait blocks the proc until s fires. If s has already fired it returns
// immediately without yielding.
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}

// Signal is a one-shot broadcast event. The zero value is ready to use.
// Procs Wait on it; any model code (kernel or proc context) Fires it.
// Waiters are resumed via fresh kernel events, preserving determinism.
type Signal struct {
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired and schedules every waiter to resume at the
// current virtual time. Firing an already-fired signal is a no-op. Fire is
// allocation-free: each waiter's resume is a typed event naming its proc
// id, so firing from the packet-delivery hot path never touches the heap.
//
//simlint:hotpath
func (s *Signal) Fire(k *Kernel) {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		k.AtEvent(k.now, procHandler, 0, int64(w.id), 0)
	}
	s.waiters = nil
}
