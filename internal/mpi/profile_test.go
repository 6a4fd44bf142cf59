package mpi

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// TestCallNames pins each Call to its Table I interface name, and the
// declaration order to the names' alphabetical order (TopCalls breaks
// time ties by comparing Calls).
func TestCallNames(t *testing.T) {
	want := [NumCalls]string{
		Allreduce: "MPI_Allreduce", Alltoallv: "MPI_Alltoallv",
		Barrier: "MPI_Barrier", Bcast: "MPI_Bcast",
		Irecv: "MPI_Irecv", Isend: "MPI_Isend",
		Recv: "MPI_Recv", Send: "MPI_Send",
		Wait: "MPI_Wait", Waitall: "MPI_Waitall",
	}
	for c := Call(0); c < NumCalls; c++ {
		if c.String() != want[c] {
			t.Errorf("Call(%d).String() = %q, want %q", c, c.String(), want[c])
		}
		if c.Short() != want[c][len("MPI_"):] {
			t.Errorf("Call(%d).Short() = %q", c, c.Short())
		}
		if c > 0 && want[c-1] >= want[c] {
			t.Errorf("%s declared before %s: not in name order", want[c-1], want[c])
		}
	}
}

// TestTopCallsCalledOnly checks that TopCalls lists exactly the
// interfaces called at least once: a zero-time Irecv is in, an uncalled
// Barrier is out.
func TestTopCallsCalledOnly(t *testing.T) {
	var p Profile
	p.add(Wait, 0, 5*sim.Microsecond)
	p.add(Isend, 256, sim.Microsecond)
	p.add(Irecv, 256, 0)
	got := p.TopCalls(0)
	want := []Call{Wait, Isend, Irecv}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopCalls = %v, want %v", got, want)
	}
	for _, c := range got {
		if c == Barrier {
			t.Fatal("uncalled MPI_Barrier listed")
		}
	}
	if got := p.TopCalls(2); !reflect.DeepEqual(got, want[:2]) {
		t.Errorf("TopCalls(2) = %v, want %v", got, want[:2])
	}
	var empty Profile
	if got := empty.TopCalls(3); len(got) != 0 {
		t.Errorf("empty profile TopCalls = %v", got)
	}
}

// TestTopCallsTieByName checks that equal times order by name.
func TestTopCallsTieByName(t *testing.T) {
	var p Profile
	for _, c := range []Call{Waitall, Send, Bcast, Allreduce} {
		p.add(c, 8, 3*sim.Microsecond)
	}
	p.add(Recv, 8, 4*sim.Microsecond)
	got := p.TopCalls(0)
	want := []Call{Recv, Allreduce, Bcast, Send, Waitall}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopCalls = %v, want %v", got, want)
	}
}

// TestMergeAddsPerCall checks that Merge sums counts, bytes and times
// call by call, and compute time alongside.
func TestMergeAddsPerCall(t *testing.T) {
	var a, b Profile
	a.add(Allreduce, 8, 2*sim.Microsecond)
	a.add(Isend, 100, sim.Microsecond)
	a.ComputeTime = 10 * sim.Microsecond
	b.add(Allreduce, 16, 3*sim.Microsecond)
	b.add(Allreduce, 16, 4*sim.Microsecond)
	b.add(Wait, 0, 5*sim.Microsecond)
	b.ComputeTime = 7 * sim.Microsecond

	var agg Profile
	agg.Merge(&a)
	agg.Merge(&b)
	want := Profile{ComputeTime: 17 * sim.Microsecond}
	want.ByCall[Allreduce] = CallStats{Calls: 3, Bytes: 40, Time: 9 * sim.Microsecond}
	want.ByCall[Isend] = CallStats{Calls: 1, Bytes: 100, Time: sim.Microsecond}
	want.ByCall[Wait] = CallStats{Calls: 1, Time: 5 * sim.Microsecond}
	if agg != want {
		t.Fatalf("merged profile = %+v, want %+v", agg, want)
	}
	if agg.MPITime() != 15*sim.Microsecond || agg.TotalTime() != 32*sim.Microsecond {
		t.Errorf("MPITime = %v, TotalTime = %v", agg.MPITime(), agg.TotalTime())
	}
}
