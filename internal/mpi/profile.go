// Package mpi is a message-passing runtime for simulated applications: one
// coroutine per rank, nonblocking point-to-point with tag matching, the
// collectives the paper's applications use (Allreduce, Alltoallv, Bcast,
// Barrier), and per-posted-message routing-mode
// selection mirroring Cray MPI's MPICH_GNI_ROUTING_MODE /
// MPICH_GNI_A2A_ROUTING_MODE environment variables.
package mpi

import (
	"sort"

	"repro/internal/sim"
)

// CallStats accumulates AutoPerf-style statistics for one MPI interface:
// call count, total payload bytes, and total wallclock spent in the call.
type CallStats struct {
	Calls uint64
	Bytes uint64
	Time  sim.Time
}

// AvgBytes returns mean payload per call.
func (s CallStats) AvgBytes() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Calls)
}

// Profile is one rank's MPI usage profile, the per-rank unit AutoPerf
// aggregates. ComputeTime covers all non-MPI wallclock.
type Profile struct {
	ByCall      map[string]*CallStats
	ComputeTime sim.Time
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{ByCall: make(map[string]*CallStats)}
}

// add records one completed MPI call.
func (p *Profile) add(call string, bytes int, elapsed sim.Time) {
	s := p.ByCall[call]
	if s == nil {
		s = &CallStats{}
		p.ByCall[call] = s
	}
	s.Calls++
	s.Bytes += uint64(bytes)
	s.Time += elapsed
}

// MPITime returns total time across all MPI calls.
func (p *Profile) MPITime() sim.Time {
	var t sim.Time
	//simlint:allow detrand commutative sum; iteration order cannot reach the result
	for _, s := range p.ByCall {
		t += s.Time
	}
	return t
}

// TotalTime returns MPI + compute time.
func (p *Profile) TotalTime() sim.Time { return p.MPITime() + p.ComputeTime }

// Merge adds other's counts into p (used to aggregate across ranks).
func (p *Profile) Merge(other *Profile) {
	//simlint:allow detrand per-key commutative accumulation; visit order cannot reach the result
	for call, s := range other.ByCall {
		d := p.ByCall[call]
		if d == nil {
			d = &CallStats{}
			p.ByCall[call] = d
		}
		d.Calls += s.Calls
		d.Bytes += s.Bytes
		d.Time += s.Time
	}
	p.ComputeTime += other.ComputeTime
}

// TopCalls returns call names sorted by descending time (the paper's
// "MPI Call 1/2/3" columns in Table I).
func (p *Profile) TopCalls(n int) []string {
	names := make([]string, 0, len(p.ByCall))
	//simlint:allow detrand collection order erased by the total sort.Slice order below (time, then name)
	for name := range p.ByCall {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		si, sj := p.ByCall[names[i]], p.ByCall[names[j]]
		if si.Time != sj.Time {
			return si.Time > sj.Time
		}
		return names[i] < names[j]
	})
	if n > 0 && len(names) > n {
		names = names[:n]
	}
	return names
}
