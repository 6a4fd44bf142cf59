package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// Op; a child's Parent names the span that caused it.
type span struct {
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced pass in memory. The server-side
// handler of a simd op records from another goroutine, hence the lock.
type tracer struct {
	t0    time.Time
	op    atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// current is the id of the op in flight.
func (t *tracer) current() int64 { return t.op.Load() }

// record closes a span that started at start. Spans other than "op" are
// children of their op's "op" span.
func (t *tracer) record(op int64, name string, start time.Time) {
	end := time.Now()
	parent := "op"
	if name == "op" {
		parent = ""
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// opSelfNS is the total time of "op" spans not covered by their child
// spans: for simd, the HTTP client, loopback and response read; for the
// Theta campaign, the digest of the result.
func (t *tracer) opSelfNS() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := map[int64]span{}
	for _, s := range t.spans {
		if s.Name == "op" {
			ops[s.Op] = s
		}
	}
	var self int64
	for _, s := range ops {
		self += s.EndNS - s.StartNS
	}
	for _, c := range t.spans {
		if c.Parent != "op" {
			continue
		}
		p, ok := ops[c.Op]
		if !ok {
			continue
		}
		lo, hi := max(c.StartNS, p.StartNS), min(c.EndNS, p.EndNS)
		if hi > lo {
			self -= hi - lo
		}
	}
	return self
}

// layers are the repository modules a profile sample can be charged to:
// every internal package the workloads reach.
var layers = []string{"sim", "network", "routing", "mpi", "apps", "core", "experiments",
	"service", "stats", "autoperf", "ldms", "placement", "workload", "topology", "parallel"}

// runtimeBuckets take samples with no repository frame on their stack.
var runtimeBuckets = []string{"runtime.gc", "runtime.sched", "runtime.other"}

// selfMetric names a bucket's self-time metric: <module>.self_ms_per_op
// for a layer, runtime.gc_ms_per_op and the like for a runtime bucket.
func selfMetric(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_ms_per_op"
	}
	return bucket + ".self_ms_per_op"
}

// gcFuncs mark a stack without repository frames as garbage collection;
// schedFuncs as scheduler, channel or futex handoff.
var (
	gcFuncs    = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot", "runtime.scanobject", "runtime.gcStart", "runtime.forEachP", "runtime.gcMarkTermination", "runtime.sweepone"}
	schedFuncs = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.futex", "runtime.mcall", "runtime.chansend", "runtime.chanrecv", "runtime.goready", "runtime.notesleep", "runtime.stopm", "runtime.usleep", "runtime.gopark", "runtime.netpoll", "runtime.mstart"}
)

// attribute charges each CPU sample to the innermost repro/internal/<module>
// frame on its stack, so library code a layer calls (math/rand under the
// fabric's jitter, mallocgc under a layer's allocations) counts against
// that layer. Stacks with no repository frame go to a runtime bucket;
// stacks under the host reference are left out. The result is CPU
// nanoseconds per bucket.
func attribute(stacks []profStack) map[string]int64 {
	out := map[string]int64{}
	for _, b := range append(append([]string{}, layers...), runtimeBuckets...) {
		out[b] = 0
	}
	for _, st := range stacks {
		if b := bucketOf(st.funcs); b != "" {
			out[b] += st.ns
		}
	}
	return out
}

// bucketOf is the bucket a stack's sample is charged to, or "" for the
// host reference sampled between ops, which is no part of an op.
func bucketOf(funcs []string) string {
	for _, f := range funcs {
		if strings.HasPrefix(f, "main.(*hostRef).") {
			return ""
		}
	}
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			if slices.Contains(layers, mod) {
				return mod
			}
		}
	}
	for _, f := range funcs {
		for _, g := range gcFuncs {
			if strings.HasPrefix(f, g) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range funcs {
		for _, g := range schedFuncs {
			if strings.HasPrefix(f, g) {
				return "runtime.sched"
			}
		}
	}
	return "runtime.other"
}

// profStack is one profile sample: function names leaf first, and its
// CPU time.
type profStack struct {
	funcs []string
	ns    int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: each sample's stack of
// function names (inlined frames expanded, innermost first) and its
// cpu/nanoseconds value.
func parseCPUProfile(gz []byte) ([]profStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					return appendUints(&s.vals, wire, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("profile: sample without cpu/nanoseconds value")
		}
		st := profStack{ns: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints reads a repeated integer field in either packed or plain
// encoding (runtime/pprof packs only lists longer than two).
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
