package service

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/topology"
)

// FuzzRequestDecode throws arbitrary bytes at the request parser. The
// contract under fuzzing: DecodeRequest either returns a valid,
// limit-respecting Query or an error — it never panics, never allocates
// proportionally to claimed (rather than actual) input size, and never
// lets an out-of-range value (absurd node counts, negative seeds,
// unknown modes) through to the simulator. The seed corpus in
// testdata/fuzz/FuzzRequestDecode covers each validation branch so even
// a plain `go test` run (which executes seeds only) exercises them.
func FuzzRequestDecode(f *testing.F) {
	seeds := []string{
		canonicalBody,
		``,
		`{}`,
		`null`,
		`[1,2,3]`,
		`{"app":"MILC"`,
		`{"topology":"test","app":"MILC","nodes":8}`,
		`{"topology":"summit","app":"MILC","nodes":8}`,
		`{"app":"LINPACK","nodes":8}`,
		`{"app":"MILC","nodes":-1}`,
		`{"app":"MILC","nodes":1000000000}`,
		`{"app":"MILC","nodes":8,"seed":-42}`,
		`{"app":"MILC","nodes":8,"seed":9223372036854775807}`,
		`{"app":"MILC","nodes":8,"runs":-5}`,
		`{"app":"MILC","nodes":8,"runs":999999}`,
		`{"app":"MILC","nodes":8,"modes":["AD9"]}`,
		`{"app":"MILC","nodes":8,"modes":["AD0","AD0"]}`,
		`{"app":"MILC","nodes":8,"modes":["AD0","AD1","AD2","AD3","AD0","AD1","AD2","AD3","AD0"]}`,
		`{"app":"MILC","nodes":8,"background":{"utilization":-0.5}}`,
		`{"app":"MILC","nodes":8,"background":{"utilization":2}}`,
		`{"app":"MILC","nodes":8,"background":{"mode":"AD7"}}`,
		`{"app":"MILC","nodes":8,"frobnicate":true}`,
		canonicalBody + `{"again":true}`,
		`{"app":"MILC","nodes":8,"tenant":"` + strings.Repeat("x", 100) + `"}`,
		`{"nodes":8.5,"app":"MILC"}`,
		"{\"app\":\"MILC\",\"nodes\":8}\x00",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	lim := DefaultLimits()
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeRequest(data, lim)
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		// Anything accepted must be inside the validated envelope: these
		// are the invariants the simulator relies on.
		if q.Nodes < 1 || q.Nodes > lim.MaxNodes {
			t.Fatalf("accepted out-of-range nodes %d from %q", q.Nodes, data)
		}
		if q.Runs < 1 || q.Runs > lim.MaxRuns {
			t.Fatalf("accepted out-of-range runs %d from %q", q.Runs, data)
		}
		if q.Seed < 0 {
			t.Fatalf("accepted negative seed %d from %q", q.Seed, data)
		}
		if len(q.Modes) == 0 || len(q.Modes) > lim.MaxModes {
			t.Fatalf("accepted %d modes from %q", len(q.Modes), data)
		}
		if q.BGUtil < 0 || q.BGUtil > 1 {
			t.Fatalf("accepted out-of-range utilization %v from %q", q.BGUtil, data)
		}
		if q.Tenant == "" || len(q.Tenant) > 64 || !utf8.ValidString(q.Tenant) {
			t.Fatalf("accepted bad tenant %q from %q", q.Tenant, data)
		}
		if _, err := topology.ByName(q.Topology); err != nil {
			t.Fatalf("accepted unknown topology %q from %q", q.Topology, data)
		}
		// The canonical key must be stable: decoding the same bytes twice
		// yields the same coalescing identity.
		q2, err := DecodeRequest(data, lim)
		if err != nil || q.Key() != q2.Key() {
			t.Fatalf("unstable decode for %q: %v", data, err)
		}
	})
}
