package experiments

import "repro/internal/mpi"

// Fig8HACCBreakdown reproduces the paper's Fig. 8: HACC's runtime split
// into Compute, MPI_Wait, MPI_Waitall, MPI_Allreduce and other MPI per
// production run. It reuses the Table II samples when available.
func Fig8HACCBreakdown(t2 *Table2Result) *BreakdownResult {
	return breakdownFromSamples("HACC", "Fig. 8",
		[]mpi.Call{mpi.Wait, mpi.Waitall, mpi.Allreduce}, t2.Samples)
}
