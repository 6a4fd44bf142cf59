package sim

import "testing"

// BenchmarkQueueChurn measures scheduling with a deep pending queue, the
// regime of a busy fabric.
func BenchmarkQueueChurn(b *testing.B) {
	k := NewKernel()
	h := &benchHandler{k: k, n: b.N, spread: 7}
	h.id = k.RegisterHandler(h)
	// Pre-fill with events past the chain's last one (each step is at
	// most 7ns) to keep the queue deep.
	far := Time(8*b.N) * Nanosecond
	for i := 0; i < 4096; i++ {
		k.AtEvent(far+Time(i), h.id, 0, 0, 0)
	}
	b.ResetTimer()
	k.AtEvent(0, h.id, 0, 0, 0)
	k.RunUntil(far - 1)
}

// benchHandler self-reschedules through the typed-event path until it
// has fired n times, each successor 1..spread ns on (1ns when spread is 0).
type benchHandler struct {
	k      *Kernel
	id     HandlerID
	i      int
	n      int
	spread int
}

func (h *benchHandler) HandleEvent(kind uint8, a, b int64) {
	h.i++
	if h.i < h.n {
		d := Nanosecond
		if h.spread > 0 {
			d = Time(h.i%h.spread+1) * Nanosecond
		}
		h.k.AfterEvent(d, h.id, kind, a, b)
	}
}

// BenchmarkTypedEventThroughput measures raw kernel event dispatch
// (AfterEvent + HandleEvent): the floor cost of everything built on the
// simulator. Run with -benchmem: this path must report 0 allocs/op.
func BenchmarkTypedEventThroughput(b *testing.B) {
	k := NewKernel()
	h := &benchHandler{k: k, n: b.N}
	h.id = k.RegisterHandler(h)
	b.ReportAllocs()
	b.ResetTimer()
	k.AtEvent(0, h.id, 0, 0, 0)
	k.Run()
}

// BenchmarkProcSwitch measures coroutine handoff cost (two goroutine
// channel transfers per blocking operation).
func BenchmarkProcSwitch(b *testing.B) {
	k := NewKernel()
	k.Spawn(func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run()
}
