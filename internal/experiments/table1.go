package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/routing"
)

// Table1Row characterizes one application's communication (the paper's
// Table I): dominant point-to-point and collective sizes, MPI share of
// runtime, and the three most time-consuming MPI interfaces.
type Table1Row struct {
	App         string
	P2PAvgBytes float64 // average point-to-point payload
	CollBytes   float64 // average collective payload
	MPIPercent  float64
	TopCalls    [3]string
}

// Table1Result is the full characterization table.
type Table1Result struct {
	Rows  []Table1Row
	Nodes int
}

// p2pCalls and collCalls classify MPI interfaces for the size columns.
var p2pCalls = []mpi.Call{mpi.Isend, mpi.Send}
var collCalls = []mpi.Call{mpi.Allreduce, mpi.Alltoallv, mpi.Bcast}

// Table1Characterization runs each app isolated at the medium size on the
// default routing and extracts its communication properties. The six apps
// are independent single runs, so they fan out one per worker; each row
// is folded in app order and the full report dropped right after, so at
// most O(workers) reports are live at once.
func Table1Characterization(p Profile, seed int64) (*Table1Result, error) {
	ms, err := p.thetaPool()
	if err != nil {
		return nil, err
	}
	res := &Table1Result{Nodes: p.NodesMedium}
	all := apps.All()
	err = parallel.ReduceContext(context.Background(), len(ms), len(all),
		func(worker, idx int) (Sample, error) {
			return isolatedSample(ms[worker], p, all[idx],
				p.NodesMedium, routing.AD0, placement.Compact, seed)
		},
		func(idx int, s Sample) {
			prof := s.Report.Profile
			row := Table1Row{App: all[idx].Name(), MPIPercent: 100 * s.Report.MPIFraction()}
			var p2pBytes, p2pCallsN, collBytes, collCallsN uint64
			for _, c := range p2pCalls {
				p2pBytes += prof.ByCall[c].Bytes
				p2pCallsN += prof.ByCall[c].Calls
			}
			for _, c := range collCalls {
				collBytes += prof.ByCall[c].Bytes
				collCallsN += prof.ByCall[c].Calls
			}
			if p2pCallsN > 0 {
				row.P2PAvgBytes = float64(p2pBytes) / float64(p2pCallsN)
			}
			if collCallsN > 0 {
				row.CollBytes = float64(collBytes) / float64(collCallsN)
			}
			for i, c := range prof.TopCalls(3) {
				row.TopCalls[i] = c.String()
			}
			res.Rows = append(res.Rows, row)
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the table in the paper's column order.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — Communication properties (%d-node runs, isolated, AD0)\n", r.Nodes)
	fmt.Fprintf(&b, "%-13s %-12s %-12s %-8s %-16s %-16s %-16s\n",
		"App", "p2p(avgB)", "coll(avgB)", "%MPI", "Call1", "Call2", "Call3")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-13s %-12.0f %-12.0f %-8.1f %-16s %-16s %-16s\n",
			row.App, row.P2PAvgBytes, row.CollBytes, row.MPIPercent,
			row.TopCalls[0], row.TopCalls[1], row.TopCalls[2])
	}
	return b.String()
}
