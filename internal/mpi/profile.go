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

// Call identifies one profiled MPI interface (the vocabulary of the
// paper's Table I). The constants are declared in alphabetical order of
// their names, so ordering Calls orders their names.
type Call uint8

const (
	Allreduce Call = iota
	Alltoallv
	Barrier
	Bcast
	Irecv
	Isend
	Recv
	Send
	Wait
	Waitall
	// NumCalls is the number of profiled interfaces.
	NumCalls
)

var callNames = [NumCalls]string{
	"MPI_Allreduce", "MPI_Alltoallv", "MPI_Barrier", "MPI_Bcast", "MPI_Irecv",
	"MPI_Isend", "MPI_Recv", "MPI_Send", "MPI_Wait", "MPI_Waitall",
}

// String returns the interface's MPI name, e.g. "MPI_Allreduce".
func (c Call) String() string { return callNames[c] }

// Short returns the name without its "MPI_" prefix, e.g. "Allreduce".
func (c Call) Short() string { return callNames[c][len("MPI_"):] }

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
// aggregates. ComputeTime covers all non-MPI wallclock. The zero value
// is an empty profile.
type Profile struct {
	ByCall      [NumCalls]CallStats
	ComputeTime sim.Time
}

// add records one completed MPI call.
func (p *Profile) add(call Call, bytes int, elapsed sim.Time) {
	s := &p.ByCall[call]
	s.Calls++
	s.Bytes += uint64(bytes)
	s.Time += elapsed
}

// MPITime returns total time across all MPI calls.
func (p *Profile) MPITime() sim.Time {
	var t sim.Time
	for _, s := range p.ByCall {
		t += s.Time
	}
	return t
}

// TotalTime returns MPI + compute time.
func (p *Profile) TotalTime() sim.Time { return p.MPITime() + p.ComputeTime }

// Merge adds other's counts into p (used to aggregate across ranks).
func (p *Profile) Merge(other *Profile) {
	for c, s := range other.ByCall {
		d := &p.ByCall[c]
		d.Calls += s.Calls
		d.Bytes += s.Bytes
		d.Time += s.Time
	}
	p.ComputeTime += other.ComputeTime
}

// TopCalls returns the interfaces called at least once, sorted by
// descending time and then by name (the paper's "MPI Call 1/2/3" columns
// in Table I). n > 0 keeps only the first n.
func (p *Profile) TopCalls(n int) []Call {
	var calls []Call
	for c := Call(0); c < NumCalls; c++ {
		if p.ByCall[c].Calls > 0 {
			calls = append(calls, c)
		}
	}
	sort.Slice(calls, func(i, j int) bool {
		ti, tj := p.ByCall[calls[i]].Time, p.ByCall[calls[j]].Time
		if ti != tj {
			return ti > tj
		}
		return calls[i] < calls[j]
	})
	if n > 0 && len(calls) > n {
		calls = calls[:n]
	}
	return calls
}
