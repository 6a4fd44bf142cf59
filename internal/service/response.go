package service

import (
	"encoding/json"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Response is the wire format of one query answer. Every field derives
// from simulated quantities only — no wall-clock time, pool state, or
// worker count can reach it — which is what makes the byte-identity
// contract possible. Tenant identity is also excluded: coalesced
// duplicates from different tenants share these bytes.
type Response struct {
	// Request echoes the normalized query the response answers.
	Request RequestEcho `json:"request"`
	// Modes holds one aggregate per requested routing mode, in request
	// order.
	Modes []ModeResult `json:"modes"`
	// Recommended is the mode with the lowest mean predicted runtime
	// (ties break toward the earlier mode in request order) — the
	// paper's "which bias should this app mix run with?" answer.
	Recommended string `json:"recommended"`
}

// RequestEcho is the normalized request embedded in a response.
type RequestEcho struct {
	Topology   string          `json:"topology"`
	App        string          `json:"app"`
	Nodes      int             `json:"nodes"`
	Modes      []string        `json:"modes"`
	Runs       int             `json:"runs"`
	Seed       int64           `json:"seed"`
	Background *BackgroundEcho `json:"background,omitempty"`
}

// BackgroundEcho is the normalized background spec in a response.
type BackgroundEcho struct {
	Utilization float64 `json:"utilization"`
	Mode        string  `json:"mode,omitempty"`
}

// ModeResult aggregates one routing mode's seeded runs.
type ModeResult struct {
	Mode string `json:"mode"`
	Runs int    `json:"runs"`
	// Predicted runtime statistics over the seeded runs (simulated
	// seconds). The percentiles are the tail-latency answer: what the
	// unluckiest placements/background draws cost.
	RuntimeMeanSec float64 `json:"runtime_mean_sec"`
	RuntimeStdSec  float64 `json:"runtime_std_sec"`
	RuntimeP95Sec  float64 `json:"runtime_p95_sec"`
	RuntimeP99Sec  float64 `json:"runtime_p99_sec"`
	// MPIFracMean is the mean fraction of runtime spent in MPI.
	MPIFracMean float64 `json:"mpi_frac_mean"`
	// StallRatio is total stalls over total flits on the job's local
	// network tiles, pooled over all runs (the paper's congestion
	// indicator, Fig. 6).
	StallRatio float64 `json:"stall_ratio"`
	// NonMinimalFrac is the fraction of the job's own packets that took
	// a non-minimal route, pooled over all runs.
	NonMinimalFrac float64 `json:"nonminimal_frac"`
	// MeanTransitUsec is the mean per-packet network transit in
	// microseconds, averaged over runs.
	MeanTransitUsec float64 `json:"mean_transit_usec"`
}

// echo builds the response's request echo from a normalized query.
func (q Query) echo() RequestEcho {
	modes := make([]string, len(q.Modes))
	for i, m := range q.Modes {
		modes[i] = m.String()
	}
	e := RequestEcho{
		Topology: q.Topology,
		App:      q.App.Name(),
		Nodes:    q.Nodes,
		Modes:    modes,
		Runs:     q.Runs,
		Seed:     q.Seed,
	}
	if q.BGUtil > 0 {
		bg := &BackgroundEcho{Utilization: q.BGUtil}
		if q.BGModeSet {
			bg.Mode = q.BGMode.String()
		}
		e.Background = bg
	}
	return e
}

// buildResponse aggregates the ensemble's samples into a response.
// Samples arrive compact (Report without its tile-ratio slices) in
// (run, mode) interleaved order from the seed-order merge; each mode's
// per-run values are collected in that fixed order, so float summation
// order — and therefore the marshaled bytes — is independent of pool
// warmth, worker count, and coalescing.
func buildResponse(q Query, samples []experiments.Sample) *Response {
	resp := &Response{Request: q.echo(), Modes: make([]ModeResult, len(q.Modes))}
	for mi, mode := range q.Modes {
		var runtimes, mpiFracs, transits []float64
		var flits, minPkts, nonMinPkts uint64
		var stalls float64
		for si := mi; si < len(samples); si += len(q.Modes) {
			s := samples[si]
			runtimes = append(runtimes, s.RuntimeSec)
			frac := 0.0
			if s.RuntimeSec > 0 {
				frac = s.MPISec() / s.RuntimeSec
			}
			mpiFracs = append(mpiFracs, frac)
			transits = append(transits, s.MeanTransitSec)
			for _, class := range topology.NetworkTileClasses {
				flits += s.Report.LocalTiles.Flits[class]
				stalls += s.Report.LocalTiles.Stalls[class]
			}
			minPkts += s.MinPkts
			nonMinPkts += s.NonMinPkts
		}
		ps := stats.Percentiles(runtimes, []float64{95, 99})
		mean, std := stats.MeanStd(runtimes)
		r := ModeResult{
			Mode:           mode.String(),
			Runs:           len(runtimes),
			RuntimeMeanSec: mean,
			RuntimeStdSec:  std,
			RuntimeP95Sec:  ps[0],
			RuntimeP99Sec:  ps[1],
			MPIFracMean:    stats.Mean(mpiFracs),
		}
		if flits > 0 {
			r.StallRatio = stalls / float64(flits)
		}
		if total := minPkts + nonMinPkts; total > 0 {
			r.NonMinimalFrac = float64(nonMinPkts) / float64(total)
		}
		r.MeanTransitUsec = stats.Mean(transits) * 1e6
		resp.Modes[mi] = r
	}
	best := 0
	for i := 1; i < len(resp.Modes); i++ {
		if resp.Modes[i].RuntimeMeanSec < resp.Modes[best].RuntimeMeanSec {
			best = i
		}
	}
	if len(resp.Modes) > 0 {
		resp.Recommended = resp.Modes[best].Mode
	}
	return resp
}

// marshalResponse renders the canonical response bytes: indented JSON
// with a trailing newline. encoding/json emits struct fields in
// declaration order and floats in shortest-roundtrip form, so equal
// values always produce equal bytes.
func marshalResponse(resp *Response) []byte {
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		// Response contains only plain structs, strings, and finite
		// floats; Marshal cannot fail on it unless a field type changes
		// incompatibly, which tests catch immediately.
		panic("service: marshal response: " + err.Error())
	}
	return append(b, '\n')
}
