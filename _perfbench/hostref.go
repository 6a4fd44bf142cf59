package main

import (
	"math/rand"
	"sort"
	"time"
)

// The host reference is a fixed CPU kernel of the benchmark's own — a
// binary min-heap fed by a linear congruential generator, then a pointer
// chase around a ring the size of an L2 cache — timed while each op runs. On a shared VM the same op runs up to 1.5x slower while a
// neighbour is busy, in phases from seconds to longer than a whole run;
// the reference slows in the same phases, so dividing each op's time by
// the host factor measured during it removes most of that spread. The
// kernel calls no code of the program, so a change to the program cannot
// move it.
//
// No single kernel tried (the heap, L2- and DRAM-sized chases) tracked
// both the simd ops and theta-full; the heap and the L2 chase together
// cut the spread left after normalising by a third to a half on both,
// against the heap alone (README.md, Host reference).
const (
	refHeapCap = 2048
	refPushes  = 10_000
	refRing    = 1 << 16 // 256 KiB of uint32
	refSteps   = 60_000
	// refNominalMS is a typical sample time on the reference host (2-vCPU
	// VM, go1.24), so the normalised figures read as times on that host.
	refNominalMS = 1.3
	// refEveryMS is the sampling period during an op; an op shorter than
	// refMinSamples periods is topped up with samples right after it.
	refEveryMS    = 40
	refMinSamples = 2
)

// hostRef samples the reference kernel on a goroutine of its own between
// start and finish; in between, only that goroutine touches the fields
// below stop and done. Its heap and ring are allocated once, so a sample
// neither allocates nor wakes the garbage collector.
type hostRef struct {
	stop, done chan struct{}
	heap       []uint64
	ring       []uint32 // ring[i] is the slot after i, in a fixed random order
	samples    []float64
	spentMS    float64
	sink       uint64
}

func newHostRef() *hostRef {
	h := &hostRef{heap: make([]uint64, 0, refHeapCap+1), ring: make([]uint32, refRing),
		samples: make([]float64, 0, 512)}
	order := rand.New(rand.NewSource(1)).Perm(refRing)
	for i, slot := range order {
		h.ring[slot] = uint32(order[(i+1)%refRing])
	}
	return h
}

// sampleMS times one run of the kernel.
func (h *hostRef) sampleMS() float64 {
	start := time.Now()
	hp := h.heap[:0]
	x := uint64(12345)
	for i := 0; i < refPushes; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		hp = refPush(hp, x>>20)
		if len(hp) > refHeapCap {
			var v uint64
			hp, v = refPop(hp)
			h.sink += v
		}
	}
	p := uint32(h.sink % refRing)
	for i := 0; i < refSteps; i++ {
		p = h.ring[p]
	}
	h.sink += uint64(p)
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// start samples the kernel every refEveryMS until finish. With one P the
// sampler takes turns with the op on the same thread, so it sees the host
// the op sees.
func (h *hostRef) start() {
	h.samples = h.samples[:0]
	h.spentMS = 0
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	go func() {
		defer close(h.done)
		t := time.NewTicker(refEveryMS * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				ms := h.sampleMS()
				h.samples = append(h.samples, ms)
				h.spentMS += ms
			}
		}
	}()
}

// finish stops the sampler and returns the host factor — the samples'
// median over refNominalMS, above 1 when the host is slower than the
// reference host typically is — and the time the samples took, which the
// caller takes off the op's time.
func (h *hostRef) finish() (factor, spentMS float64) {
	close(h.stop)
	<-h.done
	for len(h.samples) < refMinSamples {
		h.samples = append(h.samples, h.sampleMS())
	}
	sort.Float64s(h.samples)
	return h.samples[len(h.samples)/2] / refNominalMS, h.spentMS
}

func refPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func refPop(h []uint64) ([]uint64, uint64) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return h, top
}
